//! Benchmark harness for the UTLB reproduction: the scalar replay
//! baseline the Criterion benches compare against, and the experiment
//! registry behind the `run_all` binary — one entry per paper table and
//! figure plus the extension runs, all on one command line ([`cli`]).
//! With no name, `run_all` reproduces the whole evaluation in paper order;
//! `run_all --help` lists every entry with the flags it honours.
//!
//! An entry writes only its stdout and the `--json`/`--csv` paths it is
//! given (`--obs` adds `results/obs_*.json`), and it times nothing except
//! the `obs_guard` gate. Wall-clock cost comes from the Criterion benches
//! in `benches/`, which time the same runs over repeated samples.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cli;
mod paper;
pub mod registry;

/// The pre-batching replay loop, kept as the *scalar baseline* for the
/// batched-vs-scalar throughput benches: per-record `lookup_run` (one
/// outcome `Vec` allocated per record) and per-page classification. The
/// library's [`utlb_sim::Run`] replay path now goes through the allocation-free
/// [`utlb_core::TranslationMechanism::lookup_run_into`]; benchmarking both
/// on the same trace measures what the batch path buys.
pub fn scalar_replay<M: utlb_core::TranslationMechanism>(
    engine: &mut M,
    trace: &utlb_trace::Trace,
    cfg: &utlb_sim::SimConfig,
) -> utlb_sim::SimResult {
    use utlb_nic::Nanos;

    // Must stay in sync with the runner's own host sizing.
    let mut host = utlb_mem::Host::new(1 << 20);
    let mut board = utlb_nic::Board::new();
    let mut classifier = utlb_sim::MissClassifier::new(cfg.cache_entries);

    let pids = trace.process_ids();
    for expected in &pids {
        let got = host.spawn_process();
        assert_eq!(got, *expected, "trace pids must be dense from 1");
        engine
            .register_process(&mut host, &mut board, got)
            .expect("registration succeeds on a fresh host");
    }

    let t0 = board.clock.now();
    for rec in &trace.records {
        board.clock.advance_to(Nanos::from_nanos(rec.ts_ns));
        let npages = rec.va.span_pages(rec.nbytes);
        let pages = engine
            .lookup_run(&mut host, &mut board, rec.pid, rec.va.page(), npages)
            .expect("trace lookups succeed");
        for page in &pages {
            classifier.access(rec.pid, page.page, page.ni_miss);
        }
    }
    let sim_time_ns = (board.clock.now() - t0).as_nanos();

    let per_process = pids
        .iter()
        .map(|p| (p.raw(), engine.stats(*p).expect("registered")))
        .collect();
    utlb_sim::SimResult {
        workload: trace.workload.clone(),
        stats: engine.aggregate_stats(),
        cache: engine.cache_stats(),
        breakdown: classifier.breakdown(),
        per_process,
        sim_time_ns,
    }
}

/// [`scalar_replay`] behind a [`utlb_sim::Mechanism`] dispatch.
pub fn scalar_run_mechanism(
    mech: utlb_sim::Mechanism,
    trace: &utlb_trace::Trace,
    cfg: &utlb_sim::SimConfig,
) -> utlb_sim::SimResult {
    use utlb_core::{IndexedEngine, IntrEngine, PerProcessEngine, UtlbEngine};
    use utlb_sim::Mechanism;
    match mech {
        Mechanism::Utlb => scalar_replay(&mut UtlbEngine::new(cfg.utlb_config()), trace, cfg),
        Mechanism::PerProc => {
            scalar_replay(&mut PerProcessEngine::new(cfg.perproc_config()), trace, cfg)
        }
        Mechanism::Indexed => {
            scalar_replay(&mut IndexedEngine::new(cfg.indexed_config()), trace, cfg)
        }
        Mechanism::Intr => scalar_replay(&mut IntrEngine::new(cfg.intr_config()), trace, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utlb_sim::RunOutputExt;
    use utlb_trace::GenConfig;

    #[test]
    fn scalar_baseline_matches_the_batched_runner() {
        // The baseline must stay a faithful pre-batching replay: if the
        // runner's semantics drift, the benches would compare unlike things.
        let trace = utlb_trace::gen::generate(
            utlb_trace::SplashApp::Water,
            &GenConfig {
                seed: 21,
                scale: 0.02,
                app_processes: 2,
            },
        );
        let cfg = utlb_sim::SimConfig::study(256);
        for mech in utlb_sim::Mechanism::ALL {
            let scalar = scalar_run_mechanism(mech, &trace, &cfg);
            let batched = utlb_sim::Run::new(mech)
                .config(&cfg)
                .execute(&trace)
                .into_sim()
                .unwrap();
            assert_eq!(
                serde_json::to_string(&scalar).unwrap(),
                serde_json::to_string(&batched).unwrap(),
                "{mech}"
            );
        }
    }
}
