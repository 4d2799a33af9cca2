//! Figure 8: the effect of prefetching translation entries (Radix).
//!
//! Two panels, both as functions of the prefetch width with one series per
//! cache size: overall miss rate (left) and average lookup cost (right).
//! The paper's observations to reproduce: miss rate falls as prefetching
//! grows more aggressive, and because fetching more entries costs only
//! marginally more than fetching one (DMA setup dominates), the average
//! lookup cost falls too.

use super::gen_key;
use crate::report::{micros, rate, TextTable};
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig, SweepGrid, SweepScratch};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_trace::{gen, GenConfig, SplashApp};

/// Prefetch widths swept on the x-axis.
pub const PREFETCH_WIDTHS: [u64; 9] = [1, 4, 8, 12, 16, 20, 24, 28, 32];

/// Cache sizes plotted as series.
pub const FIG8_SIZES: [usize; 5] = [1024, 2048, 4096, 8192, 16384];

/// One point of Figure 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Point {
    /// Cache entries (series).
    pub cache_entries: usize,
    /// Entries prefetched per miss (x-axis).
    pub prefetch: u64,
    /// Overall miss rate per lookup.
    pub miss_rate: f64,
    /// Average lookup cost in µs (§6.2 formula with the measured rates).
    pub lookup_us: f64,
}

/// Figure 8 data (the Radix application).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    /// All points.
    pub points: Vec<Fig8Point>,
}

/// Regenerates Figure 8 (Radix, infinite host memory, direct-mapped cache).
pub fn fig8(cfg: &GenConfig) -> Fig8 {
    let trace = gen::generate_shared(SplashApp::Radix, cfg);
    let mut specs = Vec::new();
    for &entries in &FIG8_SIZES {
        for &prefetch in &PREFETCH_WIDTHS {
            specs.push((entries, prefetch));
        }
    }
    // Every cell replays the same Radix trace, so costs are uniform and
    // the dispatcher keeps input order; the grid still buys the cells
    // scratch reuse and a resume journal.
    let points = SweepGrid::over(&specs)
        .checkpoint("fig8", |&(entries, prefetch)| {
            format!("entries={entries}|prefetch={prefetch}|{}", gen_key(cfg))
        })
        .run_with(SweepScratch::new, |&(entries, prefetch), scratch| {
            // §6.5: "in order for prefetching to work well, translations
            // for contiguous application pages must be available during a
            // miss" — so the user library pre-pins the same width the NIC
            // prefetches. Without this pairing, neighbours of a
            // first-touch miss still hold the garbage address and the
            // prefetch fetches nothing useful.
            let sim = SimConfig {
                prefetch,
                prepin: prefetch,
                ..SimConfig::study(entries)
            };
            let r = Run::new(Mechanism::Utlb)
                .config(&sim)
                .execute_in(scratch, &trace)
                .into_sim()
                .unwrap();
            Fig8Point {
                cache_entries: entries,
                prefetch,
                miss_rate: r.stats.ni_miss_rate(),
                lookup_us: r.utlb_lookup_cost(&sim),
            }
        });
    Fig8 { points }
}

impl Fig8 {
    /// The point for (`entries`, `prefetch`), if present.
    pub fn point(&self, entries: usize, prefetch: u64) -> Option<&Fig8Point> {
        self.points
            .iter()
            .find(|p| p.cache_entries == entries && p.prefetch == prefetch)
    }
}

impl Fig8 {
    /// Renders the figure as CSV (`cache_entries,prefetch,miss_rate,lookup_us`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cache_entries,prefetch,miss_rate,lookup_us\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{:.4},{:.3}\n",
                p.cache_entries, p.prefetch, p.miss_rate, p.lookup_us
            ));
        }
        out
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 8: prefetching in the translation cache (RADIX) — miss rate | lookup µs",
        );
        let mut header = vec!["prefetch".to_string()];
        header.extend(FIG8_SIZES.iter().map(|s| format!("{}K", s / 1024)));
        t.header(header.clone());
        for &w in &PREFETCH_WIDTHS {
            let mut row = vec![w.to_string()];
            for &s in &FIG8_SIZES {
                let p = self.point(s, w).expect("full grid");
                row.push(format!("{} | {}", rate(p.miss_rate), micros(p.lookup_us)));
            }
            t.row(row);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    #[test]
    fn prefetching_reduces_miss_rate() {
        let f = fig8(&test_gen_config());
        for &s in &FIG8_SIZES {
            let none = f.point(s, 1).unwrap().miss_rate;
            let aggressive = f.point(s, 32).unwrap().miss_rate;
            assert!(
                aggressive < none,
                "{s} entries: {none} → {aggressive} must fall"
            );
        }
    }

    #[test]
    fn prefetching_reduces_average_lookup_cost() {
        // §6.4: "average lookup cost decreases as fetching becomes more
        // aggressive" — the cost of fetching grows much slower than the
        // miss rate drops.
        let f = fig8(&test_gen_config());
        for &s in &FIG8_SIZES {
            let none = f.point(s, 1).unwrap().lookup_us;
            let aggressive = f.point(s, 32).unwrap().lookup_us;
            assert!(
                aggressive < none,
                "{s} entries: cost {none} → {aggressive} must fall"
            );
        }
    }

    #[test]
    fn full_grid_rendered() {
        let f = fig8(&test_gen_config());
        assert_eq!(f.points.len(), FIG8_SIZES.len() * PREFETCH_WIDTHS.len());
        assert!(f.to_string().contains("RADIX"));
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 1 + f.points.len());
    }
}
