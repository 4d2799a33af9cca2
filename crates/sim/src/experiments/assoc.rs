//! Table 8: overall Shared UTLB-Cache miss rates vs size and associativity.
//!
//! Four organizations per size: direct-mapped with index offsetting
//! ("direct"), 2-way and 4-way set-associative (both with offsetting), and
//! direct-mapped *without* offsetting ("direct-nohash") — the row that shows
//! why the process-dependent index offset matters under multiprogramming.

use super::{app_traces, gen_key, CACHE_SIZES};
use crate::report::{rate, TextTable};
use crate::RunOutputExt;
use crate::{Mechanism, Run, SimConfig, SweepGrid, SweepScratch};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_core::Associativity;
use utlb_trace::{GenConfig, SplashApp};

/// The four cache organizations of Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Organization {
    /// Direct-mapped with index offsetting.
    Direct,
    /// 2-way set-associative with offsetting.
    TwoWay,
    /// 4-way set-associative with offsetting.
    FourWay,
    /// Direct-mapped without offsetting.
    DirectNohash,
}

impl Organization {
    /// All organizations in the paper's row order.
    pub const ALL: [Organization; 4] = [
        Organization::Direct,
        Organization::TwoWay,
        Organization::FourWay,
        Organization::DirectNohash,
    ];

    fn apply(self, mut sim: SimConfig) -> SimConfig {
        match self {
            Organization::Direct => {
                sim.associativity = Associativity::Direct;
                sim.offsetting = true;
            }
            Organization::TwoWay => {
                sim.associativity = Associativity::TwoWay;
                sim.offsetting = true;
            }
            Organization::FourWay => {
                sim.associativity = Associativity::FourWay;
                sim.offsetting = true;
            }
            Organization::DirectNohash => {
                sim.associativity = Associativity::Direct;
                sim.offsetting = false;
            }
        }
        sim
    }
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Organization::Direct => f.write_str("direct"),
            Organization::TwoWay => f.write_str("2-way"),
            Organization::FourWay => f.write_str("4-way"),
            Organization::DirectNohash => f.write_str("direct-nohash"),
        }
    }
}

/// One cell of Table 8.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table8Cell {
    /// Cache entries.
    pub cache_entries: usize,
    /// Cache organization.
    pub organization: Organization,
    /// Application.
    pub app: SplashApp,
    /// Overall NIC miss rate per lookup.
    pub miss_rate: f64,
}

/// Table 8: miss rates vs size × associativity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table8 {
    /// All cells.
    pub cells: Vec<Table8Cell>,
}

/// Regenerates Table 8 (infinite host memory, no prefetch).
pub fn table8(cfg: &GenConfig) -> Table8 {
    let traces = app_traces(cfg);
    let mut specs = Vec::new();
    for &entries in &CACHE_SIZES {
        for org in Organization::ALL {
            for tix in 0..traces.len() {
                specs.push((entries, org, tix));
            }
        }
    }
    let cells = SweepGrid::over(&specs)
        .cost(|&(_, _, tix)| traces[tix].1.total_lookups())
        .checkpoint("table8", |&(entries, org, tix)| {
            format!(
                "entries={entries}|org={org}|app={}|{}",
                traces[tix].0,
                gen_key(cfg)
            )
        })
        .run_with(SweepScratch::new, |&(entries, org, tix), scratch| {
            let (app, ref trace) = traces[tix];
            let sim = org.apply(SimConfig::study(entries));
            let r = Run::new(Mechanism::Utlb)
                .config(&sim)
                .execute_in(scratch, trace)
                .into_sim()
                .unwrap();
            Table8Cell {
                cache_entries: entries,
                organization: org,
                app,
                miss_rate: r.stats.ni_miss_rate(),
            }
        });
    Table8 { cells }
}

impl Table8 {
    /// Looks up one cell.
    pub fn cell(&self, entries: usize, org: Organization, app: SplashApp) -> Option<&Table8Cell> {
        self.cells
            .iter()
            .find(|c| c.cache_entries == entries && c.organization == org && c.app == app)
    }
}

impl fmt::Display for Table8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Table 8: overall Shared UTLB-Cache miss rates (per lookup)");
        let mut header = vec!["cache".to_string(), "assoc".to_string()];
        header.extend(SplashApp::ALL.iter().map(|a| a.to_string()));
        t.header(header);
        for &entries in &CACHE_SIZES {
            for org in Organization::ALL {
                let mut row = vec![format!("{}K", entries / 1024), org.to_string()];
                for app in SplashApp::ALL {
                    let cell = self
                        .cell(entries, org, app)
                        .map(|c| rate(c.miss_rate))
                        .unwrap_or_else(|| "-".into());
                    row.push(cell);
                }
                t.row(row);
            }
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    #[test]
    fn offsetting_beats_nohash_overall() {
        // §6.3's headline: the direct-mapped cache with offsetting has
        // overall miss rates "close to, and frequently lower than" the
        // set-associative ones, and nohash is clearly worse.
        let t = table8(&test_gen_config());
        let mean = |org: Organization| {
            let cells: Vec<f64> = t
                .cells
                .iter()
                .filter(|c| c.organization == org)
                .map(|c| c.miss_rate)
                .collect();
            cells.iter().sum::<f64>() / cells.len() as f64
        };
        let direct = mean(Organization::Direct);
        let nohash = mean(Organization::DirectNohash);
        assert!(
            direct < nohash,
            "offsetting must reduce conflict misses: direct {direct} vs nohash {nohash}"
        );
        // Direct with offsetting is competitive with 4-way (within 20%).
        let four = mean(Organization::FourWay);
        assert!(
            direct < four * 1.2,
            "direct {direct} should be close to 4-way {four}"
        );
    }

    #[test]
    fn miss_rates_monotone_in_cache_size_per_app() {
        let t = table8(&test_gen_config());
        for app in SplashApp::ALL {
            let small = t
                .cell(CACHE_SIZES[0], Organization::Direct, app)
                .unwrap()
                .miss_rate;
            let big = t
                .cell(CACHE_SIZES[4], Organization::Direct, app)
                .unwrap()
                .miss_rate;
            assert!(
                big <= small + 0.02,
                "{app}: miss rate grew with cache size {small} → {big}"
            );
        }
    }

    #[test]
    fn renders_full_grid() {
        let t = table8(&test_gen_config());
        assert_eq!(t.cells.len(), CACHE_SIZES.len() * 4 * 7);
        let s = t.to_string();
        assert!(s.contains("direct-nohash"));
        assert!(s.contains("water-spatial"));
    }
}
