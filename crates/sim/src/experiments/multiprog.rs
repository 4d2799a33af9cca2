//! Extension: genuinely multiprogrammed workloads.
//!
//! The paper's §7 limitations: "our traces are from shared memory parallel
//! programs ... they may not reveal certain behaviors that multiple
//! independent programs have." This experiment merges two *different*
//! applications' traces onto one NIC (ten processes total) and measures
//! each program's miss rates alone versus co-scheduled, at each cache
//! organization — quantifying cache interference between independent
//! programs and how much index offsetting mitigates it.

use crate::report::{rate, TextTable};
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig, SweepGrid};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_trace::{gen, merge_multiprogram, GenConfig, SplashApp};

/// Miss rates of one program, alone vs co-scheduled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiprogCell {
    /// The application measured.
    pub app: SplashApp,
    /// NI miss rate running alone.
    pub alone: f64,
    /// NI miss rate co-scheduled with the partner, with index offsetting.
    pub shared_offset: f64,
    /// NI miss rate co-scheduled, without offsetting ("direct-nohash").
    pub shared_nohash: f64,
}

impl MultiprogCell {
    /// Absolute interference with offsetting: co-scheduled minus alone.
    pub fn interference(&self) -> f64 {
        self.shared_offset - self.alone
    }
}

/// The multiprogramming experiment for one application pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Multiprog {
    /// Cache entries used.
    pub cache_entries: usize,
    /// One cell per co-scheduled application.
    pub cells: Vec<MultiprogCell>,
}

/// Runs `a` and `b` alone and co-scheduled at `cache_entries`.
pub fn multiprog(a: SplashApp, b: SplashApp, cfg: &GenConfig, cache_entries: usize) -> Multiprog {
    let ta = gen::generate_shared(a, cfg);
    let tb = gen::generate_shared(b, cfg);
    let a_procs = ta.process_ids().len() as u32;
    let merged = merge_multiprogram(&[(*ta).clone(), (*tb).clone()]);

    let sim = SimConfig::study(cache_entries);
    let nohash = SimConfig {
        offsetting: false,
        ..SimConfig::study(cache_entries)
    };

    // The four runs (each program alone, merged with and without
    // offsetting) are independent cells — fan them out, merged-trace
    // cells (twice the lookups) first.
    let runs = [
        (&*ta, &sim),
        (&*tb, &sim),
        (&merged, &sim),
        (&merged, &nohash),
    ];
    let mut results = SweepGrid::over(&runs)
        .cost(|&(trace, _)| trace.total_lookups())
        .run(|&(trace, run_sim)| {
            Run::new(Mechanism::Utlb)
                .config(run_sim)
                .execute(trace)
                .into_sim()
                .unwrap()
        });
    let shared_nh = results.pop().expect("four runs");
    let shared = results.pop().expect("four runs");
    let alone_b = results.pop().expect("four runs").stats.ni_miss_rate();
    let alone_a = results.pop().expect("four runs").stats.ni_miss_rate();

    let a_pids: Vec<u32> = (1..=a_procs).collect();
    let b_pids: Vec<u32> = (a_procs + 1..=a_procs + tb.process_ids().len() as u32).collect();

    let cells = vec![
        MultiprogCell {
            app: a,
            alone: alone_a,
            shared_offset: shared.stats_for_pids(&a_pids).ni_miss_rate(),
            shared_nohash: shared_nh.stats_for_pids(&a_pids).ni_miss_rate(),
        },
        MultiprogCell {
            app: b,
            alone: alone_b,
            shared_offset: shared.stats_for_pids(&b_pids).ni_miss_rate(),
            shared_nohash: shared_nh.stats_for_pids(&b_pids).ni_miss_rate(),
        },
    ];
    Multiprog {
        cache_entries,
        cells,
    }
}

impl fmt::Display for Multiprog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Multiprogramming interference ({} entries): NI miss rate per program",
            self.cache_entries
        ));
        t.header(["app", "alone", "co-sched (offset)", "co-sched (nohash)"]);
        for c in &self.cells {
            t.row([
                c.app.to_string(),
                rate(c.alone),
                rate(c.shared_offset),
                rate(c.shared_nohash),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    #[test]
    fn cosched_interference_is_bounded_and_offsetting_helps() {
        let m = multiprog(
            SplashApp::Water,
            SplashApp::Volrend,
            &test_gen_config(),
            2048,
        );
        assert_eq!(m.cells.len(), 2);
        for c in &m.cells {
            // Sharing can only hurt (or leave unchanged, modulo hash noise).
            assert!(
                c.shared_offset >= c.alone - 0.02,
                "{}: co-scheduling reduced misses?! {} vs {}",
                c.app,
                c.shared_offset,
                c.alone
            );
            // Without offsetting the independent programs collide harder.
            assert!(
                c.shared_nohash >= c.shared_offset - 0.02,
                "{}: nohash {} should be no better than offset {}",
                c.app,
                c.shared_nohash,
                c.shared_offset
            );
        }
        assert!(m.to_string().contains("Multiprogramming"));
    }

    #[test]
    fn interference_vanishes_with_a_big_cache() {
        let small = multiprog(SplashApp::Water, SplashApp::Barnes, &test_gen_config(), 256);
        let big = multiprog(
            SplashApp::Water,
            SplashApp::Barnes,
            &test_gen_config(),
            16384,
        );
        let total =
            |m: &Multiprog| -> f64 { m.cells.iter().map(MultiprogCell::interference).sum() };
        assert!(
            total(&big) <= total(&small) + 0.02,
            "interference must shrink with cache size: {} vs {}",
            total(&big),
            total(&small)
        );
    }
}
