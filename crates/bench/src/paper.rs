//! The no-name `run_all` run: every table and figure in paper order — the
//! one-shot reproduction of the whole evaluation section — then, with
//! `--obs`, the probe-attached pass, and finally a timing of the sweep
//! executor (Table 8's grid, sequential vs parallel) and the cache probe
//! hot path, archived to `BENCH_sweep.json`.

use crate::cli::{find, write_json, Invocation};
use crate::registry::Outcome;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;
use utlb_core::obs::Metrics;
use utlb_core::{CacheConfig, SharedUtlbCache};
use utlb_mem::{PhysAddr, ProcessId, VirtPage};
use utlb_sim::sweep::{worker_topology, WorkerTopology, THREADS_ENV};
use utlb_sim::RunOutputExt;
use utlb_sim::{phase_breakdown, sweep_over, Mechanism, ObsReport, Run, SimConfig};
use utlb_trace::{gen, GenConfig, SplashApp};

/// Worker counts the sweep bench times the Table 8 grid at. Points beyond
/// the machine's available parallelism measure oversubscription: on a
/// single-core host every point degenerates to the sequential numbers, and
/// cells/sec is expected to rise only up to `available_parallelism`.
const WORKER_AXIS: [usize; 4] = [1, 2, 4, 8];

/// One timed run of the grid at a pinned worker count.
#[derive(Debug, Serialize)]
struct SweepWorkerPoint {
    /// Workers the run was pinned to (`UTLB_SIM_THREADS`).
    workers: usize,
    /// Wall-clock seconds for the grid.
    secs: f64,
    /// Cells per second at this worker count.
    cells_per_sec: f64,
    /// Wall-clock speedup over the 1-worker point.
    speedup: f64,
}

/// Measured throughput of the experiment sweep machinery, archived so runs
/// on different machines can be compared.
#[derive(Debug, Serialize)]
struct SweepBench {
    /// Cells in the timed grid (Table 8: sizes × organizations × apps).
    cells: usize,
    /// The host's resolved worker topology (available parallelism and how
    /// the default worker count was chosen) — the context the `worker_axis`
    /// numbers must be read in.
    topology: WorkerTopology,
    /// One timed grid run per pinned worker count.
    worker_axis: Vec<SweepWorkerPoint>,
    /// Boards each sweep cell simulates — the paper's serial runners model
    /// one NIC; multi-board topologies archive to `results/cluster.json`.
    nodes: usize,
    /// Stations shared across boards in these runs (none at one board).
    shared_stations: Vec<String>,
    /// Nanoseconds per hit lookup in a resident 8 K-entry direct cache.
    cache_probe_ns: f64,
}

impl SweepBench {
    /// The largest speedup any axis point achieved over one worker.
    fn best_speedup(&self) -> f64 {
        self.worker_axis
            .iter()
            .map(|p| p.speedup)
            .fold(1.0, f64::max)
    }
}

fn bench_sweep(gen: &GenConfig) -> SweepBench {
    // The earlier printing pass already populated the trace memo, so the
    // timed runs measure pure simulation, not generation.
    let prior = std::env::var(THREADS_ENV).ok();
    let mut cells = 0;
    let mut sequential_secs = f64::NAN;
    let mut worker_axis = Vec::with_capacity(WORKER_AXIS.len());
    for &workers in &WORKER_AXIS {
        std::env::set_var(THREADS_ENV, workers.to_string());
        let start = Instant::now();
        let n = utlb_sim::experiments::table8(gen).cells.len();
        let secs = start.elapsed().as_secs_f64();
        cells = n;
        if workers == 1 {
            sequential_secs = secs;
        }
        worker_axis.push(SweepWorkerPoint {
            workers,
            secs,
            cells_per_sec: n as f64 / secs,
            speedup: sequential_secs / secs,
        });
    }
    // Restore any user override before resolving the topology, so the
    // archived `source` reflects the user's environment, not the axis pin.
    match &prior {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    let topology = worker_topology(cells);

    let entries = 8192usize;
    let mut cache = SharedUtlbCache::new(CacheConfig::direct(entries));
    let pid = ProcessId::new(1);
    for v in 0..entries as u64 {
        cache.insert(pid, VirtPage::new(v), PhysAddr::new(v << 12));
    }
    let rounds = 128u64;
    let start = Instant::now();
    for _ in 0..rounds {
        for v in 0..entries as u64 {
            std::hint::black_box(cache.lookup(pid, VirtPage::new(v)));
        }
    }
    let cache_probe_ns = start.elapsed().as_nanos() as f64 / (rounds * entries as u64) as f64;

    SweepBench {
        cells,
        topology,
        worker_axis,
        nodes: 1,
        shared_stations: Vec::new(),
        cache_probe_ns,
    }
}

/// Per-process event-ring capacity for observed runs: enough tail to
/// explain a surprising final state, small enough to keep exports readable.
const OBS_RING: usize = 64;

/// One observed run inside an experiment's obs export.
#[derive(Debug, Serialize)]
struct ObsRun {
    /// Application name.
    app: String,
    /// NIC cache entries of this run.
    cache_entries: usize,
    /// The full probe report (metrics, rings, board counters).
    report: ObsReport,
}

/// The `results/obs_<experiment>.json` document.
#[derive(Debug, Serialize)]
struct ObsExport {
    /// Experiment name ("table4", …).
    experiment: String,
    /// One entry per (app, mechanism) cell.
    runs: Vec<ObsRun>,
}

/// One observed cell: trace index, mechanism, and run parameters.
type ObsCell = (usize, Mechanism, SimConfig);

/// Reruns the headline experiments with the engine probe attached,
/// asserting that the event stream reconciles with the engines' own
/// statistics on every cell, printing the merged per-phase breakdown,
/// and archiving one JSON report per experiment under `results/`.
fn obs_pass(gencfg: &GenConfig) -> Outcome {
    std::fs::create_dir_all("results").expect("create results/");
    let traces: Vec<_> = SplashApp::ALL
        .iter()
        .map(|&app| (app, gen::generate_shared(app, gencfg)))
        .collect();

    let all_apps_all_mechs = |cfg: &SimConfig| -> Vec<ObsCell> {
        let cell = |tix| Mechanism::ALL.map(|mech| (tix, mech, cfg.clone()));
        (0..traces.len()).flat_map(cell).collect()
    };
    let table7_cfg = {
        let mut c = SimConfig::study(8192).limit_mb(4);
        c.prepin = 16;
        c
    };
    let fig8_cfg = {
        let mut c = SimConfig::study(1024);
        c.prefetch = 8;
        c.prepin = 8;
        c
    };
    let experiments: Vec<(&str, Vec<ObsCell>)> = vec![
        ("table4", all_apps_all_mechs(&SimConfig::study(8192))),
        (
            "table5",
            all_apps_all_mechs(&SimConfig::study(8192).limit_mb(4)),
        ),
        (
            "table7",
            (0..traces.len())
                .map(|tix| (tix, Mechanism::Utlb, table7_cfg.clone()))
                .collect(),
        ),
        (
            "fig8",
            vec![(
                traces
                    .iter()
                    .position(|(app, _)| *app == SplashApp::Radix)
                    .expect("radix is in ALL"),
                Mechanism::Utlb,
                fig8_cfg,
            )],
        ),
    ];

    for (name, cells) in experiments {
        let runs: Vec<ObsRun> = sweep_over(&cells, |(tix, mech, cfg)| {
            let (app, trace) = &traces[*tix];
            let (_, report) = Run::new(*mech)
                .config(cfg)
                .observed_ring(OBS_RING)
                .execute(trace)
                .into_observed()
                .expect("observed replay succeeds");
            assert!(
                report.reconciled,
                "{name}/{app}/{mech}: probe stream disagrees with engine stats: {:?}",
                report.mismatches
            );
            ObsRun {
                app: app.to_string(),
                cache_entries: cfg.cache_entries,
                report,
            }
        });
        for mech in Mechanism::ALL {
            let mut merged = Metrics::new();
            let mut any = false;
            for run in runs
                .iter()
                .filter(|r| r.report.mechanism == mech.to_string())
            {
                merged.merge(&run.report.metrics);
                any = true;
            }
            if any {
                println!(
                    "{}",
                    phase_breakdown(format!("Obs breakdown — {name} / {mech}"), &merged)
                );
            }
        }
        let export = ObsExport {
            experiment: name.to_string(),
            runs,
        };
        write_json(Path::new(&format!("results/obs_{name}.json")), &export)?;
    }
    Ok(())
}

/// The entries the no-name run prints, in paper order.
#[rustfmt::skip]
pub(crate) const PAPER_ORDER: [&str; 12] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
    "fig7", "fig8", "contention", "interference",
];

/// Runs the whole evaluation (see the module docs).
pub(crate) fn run(inv: &Invocation) -> Outcome {
    for name in PAPER_ORDER {
        (find(name).expect("paper entries are registered").run)(inv)?;
        println!();
    }
    if inv.obs {
        obs_pass(&inv.gen)?;
    }

    let bench = bench_sweep(&inv.gen);
    write_json(Path::new("BENCH_sweep.json"), &bench)?;
    eprintln!(
        "sweep bench: {} cells, axis {:?} on {} available cores ({}), best {:.2}x, {:.1} ns/probe",
        bench.cells,
        WORKER_AXIS,
        bench.topology.available_parallelism,
        bench.topology.source,
        bench.best_speedup(),
        bench.cache_probe_ns
    );
    Ok(())
}
