//! The live request-plane entries: simulated peers connect, export
//! buffers, and issue remote stores/fetches that each mechanism translates
//! on demand. An uncapped run also times itself into a `BENCH_*.json`.

use crate::cli::{write_json, Invocation};
use crate::registry::{capped, Outcome, CACHE_ENTRIES};
use std::path::Path;
use std::time::Instant;
use utlb_sim::experiments::{
    cluster_frontend as cluster_frontend_grid, frontend_load, CLUSTER_FRONTEND_CONNS,
    CLUSTER_FRONTEND_NODES, FRONTEND_CONNS,
};
use utlb_sim::frontend::{frontend_trace, FrontendConfig};
use utlb_sim::{ClusterConfig, Live, Mechanism, Run, RunOutputExt, SimConfig};

/// Wall-clock cost of the sweep plus the reactor's own overhead: the same
/// steady workload served live (handshakes, credit admission, teardown)
/// and replayed serially from its materialized trace.
#[derive(Debug, serde::Serialize)]
struct BenchFrontend {
    cells: usize,
    sweep_wall_ms: f64,
    served_requests: u64,
    wall_requests_per_sec: f64,
    live_requests: u64,
    live_wall_ms: f64,
    trace_replay_wall_ms: f64,
    /// live / trace_replay: what the connection lifecycle costs on top of
    /// translation for an identical request stream.
    live_over_replay: f64,
}

fn bench_reactor() -> (u64, f64, f64) {
    let sim = SimConfig::study(CACHE_ENTRIES);
    // All connections stay open with a wide window: the live run and the
    // serial replay of its own trace then do identical translation work.
    let fcfg = FrontendConfig {
        connections: 32,
        open_window: 32,
        requests_per_conn: 256,
        credit_window: 256,
        queue_depth: 0,
        ..FrontendConfig::default()
    };
    let requests = (fcfg.connections * fcfg.requests_per_conn) as u64;
    let trace = frontend_trace(&fcfg);
    let live = Run::new(Mechanism::Utlb).config(&sim).frontend(fcfg);
    let serial = Run::new(Mechanism::Utlb).config(&sim);

    let run_live = || {
        live.execute(Live)
            .into_frontend()
            .expect("live run succeeds")
    };
    let run_serial = || serial.execute(&trace).into_sim().expect("replay succeeds");

    // One warm-up each, then a timed pass of several iterations.
    run_live();
    run_serial();
    const ITERS: u32 = 10;
    let t = Instant::now();
    for _ in 0..ITERS {
        assert_eq!(run_live().served, requests);
    }
    let live_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    let t = Instant::now();
    for _ in 0..ITERS {
        run_serial();
    }
    let replay_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    (requests, live_ms, replay_ms)
}

/// One board: connection churn, credit-window admission, and
/// per-mechanism throughput / tail latency over a connections × offered-
/// load grid.
pub(crate) fn frontend(inv: &Invocation) -> Outcome {
    let axis = capped(&FRONTEND_CONNS, inv.cap);
    eprintln!(
        "frontend: request-plane sweep over {axis:?} connections × 2 loads × 4 mechanisms..."
    );
    let sweep_start = Instant::now();
    let result = frontend_load(CACHE_ENTRIES, &axis);
    let sweep_wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    println!("{result}");
    inv.archive(&result)?;

    if inv.cap.is_none() {
        // Only a full-axis run updates the archived wall-clock numbers.
        let served: u64 = result.cells.iter().map(|c| c.served).sum();
        let (live_requests, live_wall_ms, trace_replay_wall_ms) = bench_reactor();
        let bench = BenchFrontend {
            cells: result.cells.len(),
            sweep_wall_ms,
            served_requests: served,
            wall_requests_per_sec: served as f64 / (sweep_wall_ms / 1e3),
            live_requests,
            live_wall_ms,
            trace_replay_wall_ms,
            live_over_replay: live_wall_ms / trace_replay_wall_ms,
        };
        write_json(Path::new("BENCH_frontend.json"), &bench)?;
        eprintln!(
            "frontend bench: {} cells in {:.1} s ({:.2} M req/s wall), live/replay {:.2}x",
            bench.cells,
            bench.sweep_wall_ms / 1e3,
            bench.wall_requests_per_sec / 1e6,
            bench.live_over_replay,
        );
    }
    Ok(())
}

/// Wall-clock cost of the grid plus the cluster driver's own overhead:
/// the same churn served by one board and by eight, timed.
#[derive(Debug, serde::Serialize)]
struct BenchClusterFrontend {
    cells: usize,
    sweep_wall_ms: f64,
    served_requests: u64,
    wall_requests_per_sec: f64,
    churn_connections: usize,
    one_board_wall_ms: f64,
    eight_board_wall_ms: f64,
    /// eight / one: what homing, redirects, and shared-station pricing
    /// cost on top of a single board serving the same churn.
    eight_over_one: f64,
}

fn bench_cluster_reactor() -> (usize, f64, f64) {
    let sim = SimConfig::study(CACHE_ENTRIES);
    let fcfg = FrontendConfig {
        connections: 2_048,
        open_window: 256,
        requests_per_conn: 8,
        ..FrontendConfig::default()
    };
    let run_nodes = |nodes: usize| {
        Run::new(Mechanism::Indexed)
            .config(&sim)
            .frontend(fcfg.clone())
            .cluster(ClusterConfig::new(nodes))
            .execute(Live)
            .into_cluster_frontend()
            .expect("clustered live run succeeds")
    };
    // One warm-up each, then a timed pass of several iterations.
    let _ = run_nodes(1).served;
    let _ = run_nodes(8).served;
    const ITERS: u32 = 5;
    let t = Instant::now();
    for _ in 0..ITERS {
        let _ = run_nodes(1);
    }
    let one_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    let t = Instant::now();
    for _ in 0..ITERS {
        let _ = run_nodes(8);
    }
    let eight_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    (fcfg.connections, one_ms, eight_ms)
}

/// A million simulated peers homed over N boards, re-homed by
/// `Frame::Redirect` when a board's registration SRAM runs out, priced on
/// the shared host-memory / I/O-bus / interrupt stations — capacity and
/// tail latency over a boards × homing-policy × mechanism grid.
pub(crate) fn cluster_frontend(inv: &Invocation) -> Outcome {
    let connections = inv.cap.unwrap_or(CLUSTER_FRONTEND_CONNS);
    eprintln!(
        "cluster_frontend: {connections} connections over {CLUSTER_FRONTEND_NODES:?} boards \
         × 2 homing policies × 4 mechanisms..."
    );
    let sweep_start = Instant::now();
    let result = cluster_frontend_grid(CACHE_ENTRIES, connections, &CLUSTER_FRONTEND_NODES);
    let sweep_wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    println!("{result}");
    inv.archive(&result)?;

    if inv.cap.is_none() {
        // Only a full-churn run updates the archived wall-clock numbers.
        let served: u64 = result.cells.iter().map(|c| c.served).sum();
        let (churn_connections, one_board_wall_ms, eight_board_wall_ms) = bench_cluster_reactor();
        let bench = BenchClusterFrontend {
            cells: result.cells.len(),
            sweep_wall_ms,
            served_requests: served,
            wall_requests_per_sec: served as f64 / (sweep_wall_ms / 1e3),
            churn_connections,
            one_board_wall_ms,
            eight_board_wall_ms,
            eight_over_one: eight_board_wall_ms / one_board_wall_ms,
        };
        write_json(Path::new("BENCH_cluster_frontend.json"), &bench)?;
        eprintln!(
            "cluster_frontend bench: {} cells in {:.1} s ({:.2} M req/s wall), \
             8-board/1-board {:.2}x",
            bench.cells,
            bench.sweep_wall_ms / 1e3,
            bench.wall_requests_per_sec / 1e6,
            bench.eight_over_one,
        );
    }
    Ok(())
}
