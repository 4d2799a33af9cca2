//! Tables 4, 5, 6: UTLB vs the interrupt-based approach.
//!
//! Table 4 runs every application against both mechanisms with infinite
//! host memory; Table 5 repeats with a 4 MB-per-process pinned-memory
//! limit; Table 6 converts the measured rates into average lookup costs via
//! the §6.2 formulas for Barnes and FFT.

use super::{app_traces, gen_key, CACHE_SIZES, SPARSE_SIZES};
use crate::report::{micros, rate, TextTable};
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig, SweepGrid, SweepScratch};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_trace::{GenConfig, SplashApp};

/// Measurements of one (app, cache size) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareCell {
    /// Application.
    pub app: SplashApp,
    /// Cache entries.
    pub cache_entries: usize,
    /// UTLB check misses per lookup.
    pub utlb_check: f64,
    /// UTLB NIC misses per lookup.
    pub utlb_ni: f64,
    /// UTLB unpins per lookup.
    pub utlb_unpins: f64,
    /// Intr NIC misses per lookup.
    pub intr_ni: f64,
    /// Intr unpins per lookup.
    pub intr_unpins: f64,
}

/// Tables 4 and 5 share this shape; `mem_limit_mb` distinguishes them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table45 {
    /// Per-process memory limit in MB (`None` = Table 4's infinite memory).
    pub mem_limit_mb: Option<u64>,
    /// One cell per (cache size, app).
    pub cells: Vec<CompareCell>,
}

fn compare(cfg: &GenConfig, mem_limit_mb: Option<u64>) -> Table45 {
    let traces = app_traces(cfg);
    let mut specs = Vec::new();
    for &entries in &CACHE_SIZES {
        for tix in 0..traces.len() {
            specs.push((entries, tix));
        }
    }
    let label = match mem_limit_mb {
        None => "table4",
        Some(_) => "table5",
    };
    let cells = SweepGrid::over(&specs)
        // Two runs per cell (UTLB + Intr), both over the same trace.
        .cost(|&(_, tix)| 2 * traces[tix].1.total_lookups())
        .checkpoint(label, |&(entries, tix)| {
            format!(
                "entries={entries}|app={}|limit={mem_limit_mb:?}|{}",
                traces[tix].0,
                gen_key(cfg)
            )
        })
        .run_with(SweepScratch::new, |&(entries, tix), scratch| {
            let (app, ref trace) = traces[tix];
            let mut sim = SimConfig::study(entries);
            if let Some(mb) = mem_limit_mb {
                sim = sim.limit_mb(mb);
            }
            let u = Run::new(Mechanism::Utlb)
                .config(&sim)
                .execute_in(scratch, trace)
                .into_sim()
                .unwrap();
            let i = Run::new(Mechanism::Intr)
                .config(&sim)
                .execute_in(scratch, trace)
                .into_sim()
                .unwrap();
            CompareCell {
                app,
                cache_entries: entries,
                utlb_check: u.stats.check_miss_rate(),
                utlb_ni: u.stats.ni_miss_rate(),
                utlb_unpins: u.stats.unpin_rate(),
                intr_ni: i.stats.ni_miss_rate(),
                intr_unpins: i.stats.unpin_rate(),
            }
        });
    Table45 {
        mem_limit_mb,
        cells,
    }
}

/// Regenerates Table 4 (infinite host memory).
pub fn table4(cfg: &GenConfig) -> Table45 {
    compare(cfg, None)
}

/// Regenerates Table 5 (4 MB host memory per process).
pub fn table5(cfg: &GenConfig) -> Table45 {
    compare(cfg, Some(4))
}

impl Table45 {
    /// The cell for (`app`, `entries`), if simulated.
    pub fn cell(&self, app: SplashApp, entries: usize) -> Option<&CompareCell> {
        self.cells
            .iter()
            .find(|c| c.app == app && c.cache_entries == entries)
    }
}

impl fmt::Display for Table45 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let which = match self.mem_limit_mb {
            None => "Table 4: UTLB vs Intr, per lookup (infinite host memory)".to_string(),
            Some(mb) => format!("Table 5: UTLB vs Intr, per lookup ({mb} MB host memory)"),
        };
        let mut t = TextTable::new(which);
        t.header([
            "cache", "app", "U check", "U NI", "U unpin", "I NI", "I unpin",
        ]);
        for c in &self.cells {
            t.row([
                format!("{}K", c.cache_entries / 1024),
                c.app.to_string(),
                rate(c.utlb_check),
                rate(c.utlb_ni),
                rate(c.utlb_unpins),
                rate(c.intr_ni),
                rate(c.intr_unpins),
            ]);
        }
        t.fmt(f)
    }
}

/// One row of Table 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6Row {
    /// Application (Barnes or FFT in the paper).
    pub app: SplashApp,
    /// Cache entries.
    pub cache_entries: usize,
    /// Average UTLB lookup cost (µs).
    pub utlb_us: f64,
    /// Average interrupt-based lookup cost (µs).
    pub intr_us: f64,
}

/// Table 6: average lookup cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table6 {
    /// Rows for each (app, size).
    pub rows: Vec<Table6Row>,
}

/// Regenerates Table 6 (infinite memory, no prefetch, offsetting).
pub fn table6(cfg: &GenConfig) -> Table6 {
    let apps = [SplashApp::Barnes, SplashApp::Fft];
    let traces: Vec<_> = apps
        .iter()
        .map(|&app| (app, utlb_trace::gen::generate_shared(app, cfg)))
        .collect();
    let mut specs = Vec::new();
    for tix in 0..traces.len() {
        for &entries in &SPARSE_SIZES {
            specs.push((tix, entries));
        }
    }
    let rows = SweepGrid::over(&specs)
        .cost(|&(tix, _)| 2 * traces[tix].1.total_lookups())
        .checkpoint("table6", |&(tix, entries)| {
            format!("entries={entries}|app={}|{}", traces[tix].0, gen_key(cfg))
        })
        .run_with(SweepScratch::new, |&(tix, entries), scratch| {
            let (app, ref trace) = traces[tix];
            let sim = SimConfig::study(entries);
            let u = Run::new(Mechanism::Utlb)
                .config(&sim)
                .execute_in(scratch, trace)
                .into_sim()
                .unwrap();
            let i = Run::new(Mechanism::Intr)
                .config(&sim)
                .execute_in(scratch, trace)
                .into_sim()
                .unwrap();
            Table6Row {
                app,
                cache_entries: entries,
                utlb_us: u.utlb_lookup_cost(&sim),
                intr_us: i.intr_lookup_cost(&sim),
            }
        });
    Table6 { rows }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Table 6: average lookup cost, UTLB vs Intr (µs)");
        t.header(["app", "cache", "UTLB", "Intr"]);
        for r in &self.rows {
            t.row([
                r.app.to_string(),
                format!("{}K", r.cache_entries / 1024),
                micros(r.utlb_us),
                micros(r.intr_us),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    // The scaled-down traces shrink footprints but the paper's qualitative
    // claims must survive scaling; cache sizes shrink proportionally via
    // using the smaller entries of CACHE_SIZES.

    #[test]
    fn table4_utlb_never_unpins_and_check_below_ni() {
        let t = table4(&test_gen_config());
        assert_eq!(t.cells.len(), CACHE_SIZES.len() * 7);
        for c in &t.cells {
            assert_eq!(c.utlb_unpins, 0.0, "{}: infinite memory", c.app);
            // UTLB detects misses at user level; its check misses never
            // exceed its NIC misses materially (conclusion 1 of §7).
            assert!(
                c.utlb_check <= c.utlb_ni + 1e-9,
                "{} @{}: check {} > ni {}",
                c.app,
                c.cache_entries,
                c.utlb_check,
                c.utlb_ni
            );
            // Same cache ⇒ same NIC miss stream for both mechanisms.
            assert!((c.utlb_ni - c.intr_ni).abs() < 1e-9);
        }
    }

    #[test]
    fn table4_intr_unpins_fall_with_cache_size() {
        let t = table4(&test_gen_config());
        for app in SplashApp::ALL {
            let small = t.cell(app, CACHE_SIZES[0]).unwrap();
            let big = t.cell(app, CACHE_SIZES[4]).unwrap();
            assert!(
                big.intr_unpins <= small.intr_unpins + 1e-9,
                "{app}: {} → {}",
                small.intr_unpins,
                big.intr_unpins
            );
        }
    }

    #[test]
    fn table5_memory_pressure_makes_utlb_unpin_but_less_than_intr_pins() {
        // With a limit scaled to the shrunken traces (4 MB ≫ scaled
        // footprints), use a tighter limit to see pressure.
        let cfg = test_gen_config();
        let traces = app_traces(&cfg);
        let (app, trace) = &traces[1]; // LU: largest footprint
        let sim = SimConfig::study(1024);
        let tight = SimConfig {
            mem_limit_pages: Some(trace.footprint_pages() / 10),
            ..sim
        };
        let u = Run::new(Mechanism::Utlb)
            .config(&tight)
            .execute(trace)
            .into_sim()
            .unwrap();
        let i = Run::new(Mechanism::Intr)
            .config(&tight)
            .execute(trace)
            .into_sim()
            .unwrap();
        assert!(u.stats.unpins > 0, "{app}: limit must bind");
        assert!(
            u.stats.unpins <= i.stats.unpins,
            "{app}: UTLB unpins {} vs Intr {}",
            u.stats.unpins,
            i.stats.unpins
        );
    }

    #[test]
    fn table6_utlb_wins_at_small_caches_for_fft() {
        let t = table6(&test_gen_config());
        let fft_small = t
            .rows
            .iter()
            .find(|r| r.app == SplashApp::Fft && r.cache_entries == SPARSE_SIZES[0])
            .unwrap();
        assert!(
            fft_small.utlb_us < fft_small.intr_us,
            "utlb {} vs intr {}",
            fft_small.utlb_us,
            fft_small.intr_us
        );
        assert!(t.to_string().contains("Table 6"));
    }
}
