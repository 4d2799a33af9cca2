//! Figure 7: breakdown of translation-cache miss rates into compulsory,
//! capacity, and conflict components, per application and cache size.

use super::{app_traces, gen_key};
use crate::report::TextTable;
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig, SweepGrid, SweepScratch};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_trace::{GenConfig, SplashApp};

/// Cache sizes plotted in Figure 7 (1K, 4K, 8K, 16K entries).
pub const FIG7_SIZES: [usize; 4] = [1024, 4096, 8192, 16384];

/// One bar of Figure 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Bar {
    /// Application.
    pub app: SplashApp,
    /// Cache entries.
    pub cache_entries: usize,
    /// Compulsory miss rate (% of lookups).
    pub compulsory_pct: f64,
    /// Capacity miss rate (% of lookups).
    pub capacity_pct: f64,
    /// Conflict miss rate (% of lookups).
    pub conflict_pct: f64,
}

impl Fig7Bar {
    /// Total miss rate of the bar, in percent.
    pub fn total_pct(&self) -> f64 {
        self.compulsory_pct + self.capacity_pct + self.conflict_pct
    }
}

/// Figure 7 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    /// One bar per (app, size).
    pub bars: Vec<Fig7Bar>,
}

/// Regenerates Figure 7 (infinite host memory, direct-mapped with
/// offsetting, no prefetch).
pub fn fig7(cfg: &GenConfig) -> Fig7 {
    let traces = app_traces(cfg);
    let mut specs = Vec::new();
    for tix in 0..traces.len() {
        for &entries in &FIG7_SIZES {
            specs.push((tix, entries));
        }
    }
    let bars = SweepGrid::over(&specs)
        .cost(|&(tix, _)| traces[tix].1.total_lookups())
        .checkpoint("fig7", |&(tix, entries)| {
            format!("entries={entries}|app={}|{}", traces[tix].0, gen_key(cfg))
        })
        .run_with(SweepScratch::new, |&(tix, entries), scratch| {
            let (app, ref trace) = traces[tix];
            let sim = SimConfig::study(entries);
            let r = Run::new(Mechanism::Utlb)
                .config(&sim)
                .execute_in(scratch, trace)
                .into_sim()
                .unwrap();
            let (comp, cap, conf) = r.breakdown.rates(r.stats.lookups);
            Fig7Bar {
                app,
                cache_entries: entries,
                compulsory_pct: comp * 100.0,
                capacity_pct: cap * 100.0,
                conflict_pct: conf * 100.0,
            }
        });
    Fig7 { bars }
}

impl Fig7 {
    /// The bar for (`app`, `entries`), if present.
    pub fn bar(&self, app: SplashApp, entries: usize) -> Option<&Fig7Bar> {
        self.bars
            .iter()
            .find(|b| b.app == app && b.cache_entries == entries)
    }
}

impl Fig7 {
    /// Renders the figure as CSV (`app,cache_entries,compulsory_pct,...`),
    /// ready for any plotting tool.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("app,cache_entries,compulsory_pct,capacity_pct,conflict_pct\n");
        for b in &self.bars {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3}\n",
                b.app, b.cache_entries, b.compulsory_pct, b.capacity_pct, b.conflict_pct
            ));
        }
        out
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 7: miss-rate breakdown, % of lookups (compulsory / capacity / conflict)",
        );
        t.header([
            "app",
            "cache",
            "compulsory",
            "capacity",
            "conflict",
            "total",
        ]);
        for b in &self.bars {
            t.row([
                b.app.to_string(),
                format!("{}K", b.cache_entries / 1024),
                format!("{:.1}", b.compulsory_pct),
                format!("{:.1}", b.capacity_pct),
                format!("{:.1}", b.conflict_pct),
                format!("{:.1}", b.total_pct()),
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
    fn compulsory_is_size_invariant_and_dominates_at_large_caches() {
        let f = fig7(&test_gen_config());
        for app in SplashApp::ALL {
            let small = f.bar(app, FIG7_SIZES[0]).unwrap();
            let big = f.bar(app, FIG7_SIZES[3]).unwrap();
            assert!(
                (small.compulsory_pct - big.compulsory_pct).abs() < 0.5,
                "{app}: compulsory must not depend on cache size"
            );
            // Figure 7's headline: at the largest cache, compulsory misses
            // constitute the majority of all misses.
            assert!(
                big.compulsory_pct >= 0.5 * big.total_pct(),
                "{app}: compulsory {:.1}% of total {:.1}%",
                big.compulsory_pct,
                big.total_pct()
            );
        }
    }

    #[test]
    fn capacity_and_conflict_shrink_with_cache_size() {
        let f = fig7(&test_gen_config());
        for app in SplashApp::ALL {
            let small = f.bar(app, FIG7_SIZES[0]).unwrap();
            let big = f.bar(app, FIG7_SIZES[3]).unwrap();
            let small_cc = small.capacity_pct + small.conflict_pct;
            let big_cc = big.capacity_pct + big.conflict_pct;
            assert!(
                big_cc <= small_cc + 1.0,
                "{app}: capacity+conflict grew {small_cc:.1} → {big_cc:.1}"
            );
        }
    }

    #[test]
    fn renders_all_bars() {
        let f = fig7(&test_gen_config());
        assert_eq!(f.bars.len(), 7 * FIG7_SIZES.len());
        assert!(f.to_string().contains("Figure 7"));
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 1 + f.bars.len());
        assert!(csv.starts_with("app,cache_entries"));
    }
}
