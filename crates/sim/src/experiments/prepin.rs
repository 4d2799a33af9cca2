//! Table 7 and the prepin-width sweep: user-level page pre-pinning (§6.5).
//!
//! "If a virtual page needs to be pinned, the user library tries to pin a
//! number of contiguous pages starting with that page" — because pinning a
//! batch in one `ioctl` is much cheaper per page than pinning one page at a
//! time. The paper compares 1-page and 16-page prepinning under a 16 MB
//! physical-memory limit and finds it helps every application except
//! strided FFT, which pre-pins pages it never uses and pays for the
//! eventual unpins.

use super::gen_key;
use crate::report::{micros, TextTable};
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig, SweepGrid, SweepScratch};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_trace::{gen, GenConfig, SplashApp, Trace};

/// Applications shown in Table 7, in the paper's column order.
pub const TABLE7_APPS: [SplashApp; 6] = [
    SplashApp::Barnes,
    SplashApp::Radix,
    SplashApp::Raytrace,
    SplashApp::Water,
    SplashApp::Fft,
    SplashApp::Lu,
];

/// One measurement: amortized pin/unpin cost per lookup for one prepin
/// width.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrepinCell {
    /// Application.
    pub app: SplashApp,
    /// Pages pre-pinned per check miss.
    pub prepin: u64,
    /// Amortized pin cost per lookup (µs).
    pub pin_us: f64,
    /// Amortized unpin cost per lookup (µs).
    pub unpin_us: f64,
    /// Pages pinned per lookup.
    pub pin_rate: f64,
    /// Pages unpinned per lookup.
    pub unpin_rate: f64,
}

/// Table 7: amortized pinning/unpinning, 1-page vs 16-page prepinning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table7 {
    /// Memory limit used (pages per process).
    pub mem_limit_pages: u64,
    /// All cells.
    pub cells: Vec<PrepinCell>,
}

fn measure(
    app: SplashApp,
    trace: &Trace,
    prepin: u64,
    limit_pages: u64,
    scratch: &mut SweepScratch,
) -> PrepinCell {
    let sim = SimConfig {
        prepin,
        mem_limit_pages: Some(limit_pages),
        ..SimConfig::study(8192)
    };
    let r = Run::new(Mechanism::Utlb)
        .config(&sim)
        .execute_in(scratch, trace)
        .into_sim()
        .unwrap();
    PrepinCell {
        app,
        prepin,
        pin_us: r.stats.pin_us_per_lookup(),
        unpin_us: r.stats.unpin_us_per_lookup(),
        pin_rate: r.stats.pin_rate(),
        unpin_rate: r.stats.unpin_rate(),
    }
}

/// The paper's 16 MB physical-memory limit, interpreted per node and split
/// across the five processes, scaled with the trace scale so it binds at
/// reduced sizes too.
fn scaled_limit(cfg: &GenConfig) -> u64 {
    ((16.0 * 256.0 * cfg.scale / 5.0).max(8.0)) as u64
}

/// Regenerates Table 7 with the paper's 16 MB limit.
pub fn table7(cfg: &GenConfig) -> Table7 {
    let limit_pages = scaled_limit(cfg);
    let traces: Vec<_> = TABLE7_APPS
        .iter()
        .map(|&app| (app, gen::generate_shared(app, cfg)))
        .collect();
    let mut specs = Vec::new();
    for tix in 0..traces.len() {
        for prepin in [1u64, 16] {
            specs.push((tix, prepin));
        }
    }
    let cells = SweepGrid::over(&specs)
        .cost(|&(tix, _)| traces[tix].1.total_lookups())
        .checkpoint("table7", |&(tix, prepin)| {
            format!(
                "app={}|prepin={prepin}|limit={limit_pages}|{}",
                traces[tix].0,
                gen_key(cfg)
            )
        })
        .run_with(SweepScratch::new, |&(tix, prepin), scratch| {
            let (app, ref trace) = traces[tix];
            measure(app, trace, prepin, limit_pages, scratch)
        });
    Table7 {
        mem_limit_pages: limit_pages,
        cells,
    }
}

impl Table7 {
    /// The cell for (`app`, `prepin`), if present.
    pub fn cell(&self, app: SplashApp, prepin: u64) -> Option<&PrepinCell> {
        self.cells
            .iter()
            .find(|c| c.app == app && c.prepin == prepin)
    }
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Table 7: amortized pin/unpin per lookup (µs), {}-page memory limit",
            self.mem_limit_pages
        ));
        let mut header = vec!["cost".to_string(), "pages".to_string()];
        header.extend(TABLE7_APPS.iter().map(|a| a.to_string()));
        t.header(header);
        for (label, pick) in [("pin", true), ("unpin", false)] {
            for prepin in [1u64, 16] {
                let mut row = vec![label.to_string(), prepin.to_string()];
                for app in TABLE7_APPS {
                    let c = self.cell(app, prepin).expect("full grid");
                    row.push(micros(if pick { c.pin_us } else { c.unpin_us }));
                }
                t.row(row);
            }
        }
        t.fmt(f)
    }
}

/// Extension: a full prepin-width sweep (the paper only ran 1 and 16).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrepinSweep {
    /// Application swept.
    pub app: SplashApp,
    /// One cell per width.
    pub cells: Vec<PrepinCell>,
}

/// Sweeps prepin widths 1–32 for `app` under a 16 MB-scaled limit.
pub fn prepin_sweep(app: SplashApp, cfg: &GenConfig) -> PrepinSweep {
    let limit_pages = scaled_limit(cfg);
    let trace = gen::generate_shared(app, cfg);
    let widths = [1u64, 2, 4, 8, 16, 32];
    let cells = SweepGrid::over(&widths)
        // Same trace for every width: cells cost the same, so LPT keeps
        // input order; the journal key still distinguishes widths.
        .checkpoint("prepin_sweep", |&w| {
            format!("app={app}|prepin={w}|limit={limit_pages}|{}", gen_key(cfg))
        })
        .run_with(SweepScratch::new, |&w, scratch| {
            measure(app, &trace, w, limit_pages, scratch)
        });
    PrepinSweep { app, cells }
}

impl fmt::Display for PrepinSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!("Prepin-width sweep: {}", self.app));
        t.header([
            "prepin",
            "pin µs/lookup",
            "unpin µs/lookup",
            "pin rate",
            "unpin rate",
        ]);
        for c in &self.cells {
            t.row([
                c.prepin.to_string(),
                micros(c.pin_us),
                micros(c.unpin_us),
                format!("{:.3}", c.pin_rate),
                format!("{:.3}", c.unpin_rate),
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
    fn prepinning_cuts_pin_cost_for_irregular_apps() {
        let t = table7(&test_gen_config());
        for app in [SplashApp::Barnes, SplashApp::Water] {
            let one = t.cell(app, 1).unwrap();
            let sixteen = t.cell(app, 16).unwrap();
            assert!(
                sixteen.pin_us < one.pin_us,
                "{app}: pin {} → {} must fall",
                one.pin_us,
                sixteen.pin_us
            );
        }
    }

    #[test]
    fn fft_pays_for_useless_prepinning_with_unpins() {
        // §6.5: FFT's strided pattern makes 16-page prepinning pin pages it
        // never uses; under the memory limit those get unpinned again.
        let t = table7(&test_gen_config());
        let one = t.cell(SplashApp::Fft, 1).unwrap();
        let sixteen = t.cell(SplashApp::Fft, 16).unwrap();
        assert!(
            sixteen.unpin_us > one.unpin_us,
            "fft: unpin {} → {} must grow",
            one.unpin_us,
            sixteen.unpin_us
        );
        assert!(sixteen.pin_rate > 2.0 * one.pin_rate, "wasted pins");
    }

    #[test]
    fn sweep_is_monotone_for_regular_sequential_lu() {
        let s = prepin_sweep(SplashApp::Lu, &test_gen_config());
        assert_eq!(s.cells.len(), 6);
        let first = &s.cells[0];
        let last = &s.cells[5];
        assert!(last.pin_us < first.pin_us, "batching always helps LU");
        assert!(s.to_string().contains("lu"));
    }

    #[test]
    fn table7_renders() {
        let t = table7(&test_gen_config());
        assert_eq!(t.cells.len(), TABLE7_APPS.len() * 2);
        let s = t.to_string();
        assert!(s.contains("Table 7"));
        assert!(s.contains("barnes"));
    }
}
