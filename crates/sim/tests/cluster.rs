//! Cluster-runner contracts: a 1-board zero-contention cluster is
//! bit-exact with the serial DES runner, cluster results are deterministic
//! (run-to-run and across worker counts), and mid-trace migration never
//! leaves a stale translation behind on the source board.

use proptest::prelude::*;
use std::collections::BTreeSet;
use utlb_mem::{ProcessId, VirtAddr, PAGE_SIZE};
use utlb_sim::experiments::{cluster_scaling, cluster_workload};
use utlb_sim::sweep::THREADS_ENV;
use utlb_sim::RunOutputExt;
use utlb_sim::{ClusterConfig, ClusterResult, DesConfig, Mechanism, Run, SimConfig};
use utlb_trace::{gen, GenConfig, Op, SplashApp, Trace, TraceRecord};

fn gen_config() -> GenConfig {
    GenConfig {
        seed: 7,
        scale: 0.04,
        app_processes: 4,
    }
}

fn run_cluster(
    mech: Mechanism,
    trace: &Trace,
    cfg: &SimConfig,
    cluster: ClusterConfig,
) -> ClusterResult {
    Run::new(mech)
        .config(cfg)
        .cluster(cluster)
        .execute(trace)
        .into_cluster()
        .unwrap()
}

/// Acceptance gate: sharding "over one board" must be the identity. With
/// zero contention the cluster's single board replays the exact serial
/// schedule, so its serial half is byte-identical JSON to `Run::des`'s
/// `base` and its completion time matches to the nanosecond — for all four
/// mechanisms.
#[test]
fn one_board_zero_contention_is_bit_exact_with_the_serial_des_run() {
    let trace = cluster_workload(&gen_config(), 2);
    let cfg = SimConfig::study(1024);
    for mech in Mechanism::ALL {
        let serial = Run::new(mech)
            .config(&cfg)
            .des(DesConfig::zero_contention())
            .execute(&trace)
            .into_des()
            .unwrap();
        let cluster = run_cluster(mech, &trace, &cfg, ClusterConfig::new(1));

        assert_eq!(cluster.nodes, 1);
        assert_eq!(cluster.boards.len(), 1);
        let board = &cluster.boards[0];
        assert_eq!(
            serde_json::to_string(&board.sim).unwrap(),
            serde_json::to_string(&serial.base).unwrap(),
            "{mech}: 1-board serial half must be byte-identical"
        );
        assert_eq!(
            cluster.des_time_ns, serial.des_time_ns,
            "{mech}: 1-board completion time must be bit-exact"
        );
        assert_eq!(
            serde_json::to_string(&cluster.latency_ns).unwrap(),
            serde_json::to_string(&serial.latency_ns).unwrap(),
            "{mech}: per-request latency distribution must be bit-exact"
        );
        assert_eq!(cluster.host_mem_wait_ns + cluster.bus_wait_ns, 0, "{mech}");
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// The same identity under contention: payload traffic queues on the bus,
/// interrupt service and DMA engine, and a 1-board cluster must still be
/// `.des()` byte for byte. On one board the firmware holds every walk, so
/// the shared host-memory station never queues.
#[test]
fn one_board_contended_cluster_is_bit_exact_with_the_des_run() {
    let gc = GenConfig {
        seed: 7,
        scale: 0.1,
        app_processes: 4,
    };
    let traces: Vec<Trace> = [SplashApp::Radix, SplashApp::Water, SplashApp::Fft]
        .iter()
        .map(|&app| gen::generate(app, &gc))
        .collect();
    let mut queued = 0u64;
    for trace in &traces {
        for cfg in [SimConfig::study(256).limit_mb(4), SimConfig::study(8192)] {
            for load in [1.0, 4.0] {
                let des = DesConfig::contended(load);
                for mech in Mechanism::ALL {
                    let what = format!("{mech}/{}/load {load}", trace.workload);
                    let serial = Run::new(mech)
                        .config(&cfg)
                        .des(des)
                        .execute(trace)
                        .into_des()
                        .unwrap();
                    let cluster = Run::new(mech)
                        .config(&cfg)
                        .des(des)
                        .cluster(ClusterConfig::new(1))
                        .execute(trace)
                        .into_cluster()
                        .unwrap();
                    let board = &cluster.boards[0];
                    assert_eq!(json(&board.sim), json(&serial.base), "{what}: serial half");
                    assert_eq!(
                        cluster.des_time_ns, serial.des_time_ns,
                        "{what}: completion"
                    );
                    assert_eq!(
                        json(&cluster.latency_ns),
                        json(&serial.latency_ns),
                        "{what}: latency distribution"
                    );
                    let waits = [
                        board.fw_wait_ns,
                        board.dma_wait_ns,
                        board.bus_wait_ns,
                        board.intr_wait_ns,
                    ];
                    let want = [
                        serial.fw_wait_ns,
                        serial.dma_wait_ns,
                        serial.bus_wait_ns,
                        serial.intr_wait_ns,
                    ];
                    assert_eq!(waits, want, "{what}: fw/dma/bus/intr waits");
                    assert_eq!(board.host_mem_wait_ns, 0, "{what}: host memory");
                    // DES resources: firmware, DMA engine, bus, interrupt
                    // service; the cluster splits them into the board's
                    // private pair and the shared host-memory/bus/intr trio.
                    let resources = [
                        &board.resources[0],
                        &board.resources[1],
                        &cluster.shared[1],
                        &cluster.shared[2],
                    ];
                    for (got, want) in resources.iter().zip(&serial.resources) {
                        assert_eq!(json(got), json(want), "{what}: {}", want.name);
                    }
                    assert_eq!(
                        (cluster.payload_transfers, cluster.payload_words),
                        (serial.payload_transfers, serial.payload_words),
                        "{what}: payload traffic"
                    );
                    queued += serial.bus_wait_ns.min(serial.intr_wait_ns);
                }
            }
        }
    }
    assert!(
        queued > 0,
        "contention must actually queue on the bus and intr"
    );
}

/// Every board of a multi-board run carries its own metrics and reconciles
/// them against its engine's counters; together the boards account for
/// every lookup in the stream.
#[test]
fn per_board_metrics_partition_the_stream() {
    let trace = cluster_workload(&gen_config(), 4);
    let cfg = SimConfig::study(1024);
    let r = run_cluster(Mechanism::Utlb, &trace, &cfg, ClusterConfig::new(4));
    assert_eq!(r.boards.len(), 4);
    for b in &r.boards {
        assert!(
            !b.pids.is_empty(),
            "board {}: round-robin spreads pids",
            b.board
        );
        assert!(b.reconciled, "board {}: metrics must reconcile", b.board);
        assert!(
            b.metrics.counts.lookups > 0,
            "board {}: has traffic",
            b.board
        );
    }
    assert_eq!(r.aggregate_stats().lookups, trace.total_lookups());
}

/// One test owns the whole sequence: `UTLB_SIM_THREADS` is process-global,
/// so splitting the worker-count halves into separate `#[test]`s would race
/// on it. Pins (a) run-to-run identity of a migrating 2-board cluster,
/// (b) worker-count independence of the cluster measurements (the topology
/// header records the worker count by design, so the comparison covers the
/// cells and the detail result).
#[test]
fn cluster_results_are_deterministic() {
    let gc = gen_config();
    let trace = cluster_workload(&gc, 4);
    let cfg = SimConfig::study(1024);
    let mid = trace.records[trace.records.len() / 2].ts_ns;
    let plan = || ClusterConfig::new(2).migrate(1, mid, 1).migrate(2, mid, 0);

    // (a) The same 2-board run twice: byte-identical JSON.
    let a = serde_json::to_string(&run_cluster(Mechanism::Utlb, &trace, &cfg, plan())).unwrap();
    let b = serde_json::to_string(&run_cluster(Mechanism::Utlb, &trace, &cfg, plan())).unwrap();
    assert_eq!(a, b, "2-board cluster replay must be reproducible");
    assert!(a.contains("\"migrations\""));

    // (b) 1 worker vs 4 workers: the measurements must not move.
    std::env::set_var(THREADS_ENV, "1");
    let seq = cluster_scaling(&gc, 512, &[1, 2]);
    std::env::set_var(THREADS_ENV, "4");
    let par = cluster_scaling(&gc, 512, &[1, 2]);
    std::env::remove_var(THREADS_ENV);
    assert_eq!(
        serde_json::to_string(&seq.cells).unwrap(),
        serde_json::to_string(&par.cells).unwrap(),
        "cluster cells must not depend on the worker count"
    );
    assert_eq!(
        serde_json::to_string(&seq.detail).unwrap(),
        serde_json::to_string(&par.detail).unwrap(),
        "the detail result must not depend on the worker count"
    );
}

/// One scheduled migration in the reference model.
#[derive(Debug, Clone, Copy)]
struct PlannedMove {
    pid: u32,
    at_ns: u64,
    to_board: usize,
}

/// Reference model of migration semantics: walks the trace with the same
/// "apply every migration with `at_ns <= ts`" rule as the runner, and
/// counts, per pid, the distinct pages touched during each board residency.
/// With infinite memory and no prepinning, UTLB pins exactly one page per
/// residency first-touch — so total pins per pid must equal the model's
/// sum. A stale translation surviving a migration (including A → B → A
/// round trips) would hit instead of re-pinning and undershoot the model.
fn expected_pins(records: &[TraceRecord], nodes: usize, moves: &[PlannedMove]) -> Vec<u64> {
    let mut route: Vec<usize> = (0..3).map(|p| p % nodes).collect();
    let mut touched: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); 3];
    let mut pins = vec![0u64; 3];
    let mut moves = moves.to_vec();
    moves.sort_by_key(|m| m.at_ns);
    let mut mi = 0;
    let apply = |m: PlannedMove,
                 route: &mut Vec<usize>,
                 touched: &mut Vec<BTreeSet<u64>>,
                 pins: &mut Vec<u64>| {
        let slot = (m.pid - 1) as usize;
        if route[slot] != m.to_board {
            pins[slot] += touched[slot].len() as u64;
            touched[slot].clear();
            route[slot] = m.to_board;
        }
    };
    for rec in records {
        while mi < moves.len() && moves[mi].at_ns <= rec.ts_ns {
            apply(moves[mi], &mut route, &mut touched, &mut pins);
            mi += 1;
        }
        touched[(rec.pid.raw() - 1) as usize].insert(rec.va.raw() / PAGE_SIZE);
    }
    while mi < moves.len() {
        apply(moves[mi], &mut route, &mut touched, &mut pins);
        mi += 1;
    }
    for slot in 0..3 {
        pins[slot] += touched[slot].len() as u64;
    }
    pins
}

proptest! {
    /// After any sequence of mid-trace migrations, no stale translation on
    /// a source board ever hits: each residency demand-re-pins its pages
    /// from scratch, so per-pid pins across all boards equal the reference
    /// model's per-residency distinct-page count exactly.
    #[test]
    fn migration_never_leaves_a_stale_translation(
        nodes in 2usize..=3,
        body in proptest::collection::vec((1u32..=3, 0u64..6), 0..24),
        raw_moves in proptest::collection::vec((1u32..=3, 0u64..2800, 0usize..3), 0..4),
    ) {
        // Dense pids 1..=3: the first three records pin the pid set.
        let mut records: Vec<TraceRecord> = Vec::new();
        for (i, (pid, page)) in (1u32..=3)
            .zip([0u64, 1, 2])
            .chain(body.into_iter())
            .enumerate()
        {
            records.push(TraceRecord {
                ts_ns: (i as u64 + 1) * 100,
                pid: ProcessId::new(pid),
                op: Op::Send,
                va: VirtAddr::new(page * PAGE_SIZE),
                nbytes: PAGE_SIZE,
            });
        }
        let trace = Trace::new("migration-prop", 0, records);
        let moves: Vec<PlannedMove> = raw_moves
            .into_iter()
            .map(|(pid, at_ns, board)| PlannedMove { pid, at_ns, to_board: board % nodes })
            .collect();

        let mut cluster = ClusterConfig::new(nodes);
        for m in &moves {
            cluster = cluster.migrate(m.pid, m.at_ns, m.to_board);
        }
        let cfg = SimConfig {
            prefetch: 1,
            prepin: 1,
            ..SimConfig::study(4096)
        };
        let r = run_cluster(Mechanism::Utlb, &trace, &cfg, cluster);

        let expected = expected_pins(&trace.records, nodes, &moves);
        for slot in 0..3u32 {
            let pid = slot + 1;
            let actual: u64 = r
                .boards
                .iter()
                .flat_map(|b| &b.sim.per_process)
                .filter(|(p, _)| *p == pid)
                .map(|(_, s)| s.pins)
                .sum();
            prop_assert_eq!(
                actual,
                expected[slot as usize],
                "pid {}: pins must equal per-residency distinct pages (stale hit or lost invalidation otherwise)",
                pid
            );
            let lookups: u64 = r
                .boards
                .iter()
                .flat_map(|b| &b.sim.per_process)
                .filter(|(p, _)| *p == pid)
                .map(|(_, s)| s.lookups)
                .sum();
            let in_trace = trace
                .records
                .iter()
                .filter(|rec| rec.pid.raw() == pid)
                .count() as u64;
            prop_assert_eq!(lookups, in_trace, "pid {}: no lookup lost in migration", pid);
        }
    }
}
