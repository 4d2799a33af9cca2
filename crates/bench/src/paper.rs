//! The no-name `run_all` run: every table and figure in paper order — the
//! one-shot reproduction of the whole evaluation section — then, with
//! `--obs`, the probe-attached pass. It times nothing: the `sweep` criterion
//! bench prices the executor and the cache probe hot path.

use crate::cli::{find, write_json, Invocation};
use crate::registry::Outcome;
use serde::Serialize;
use std::path::Path;
use utlb_core::obs::Metrics;
use utlb_sim::RunOutputExt;
use utlb_sim::{phase_breakdown, sweep, Mechanism, ObsReport, Run, SimConfig};
use utlb_trace::{gen, GenConfig, SplashApp};

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
        let runs: Vec<ObsRun> = sweep(cells.len(), |i| {
            let (tix, mech, cfg) = &cells[i];
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
    Ok(())
}
