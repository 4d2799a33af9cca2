//! Extension experiments the paper names but could not run.
//!
//! * **Replacement-policy sweep** — §3.4 predefines LRU/MRU/LFU/MFU/RANDOM,
//!   but "we only used LRU policy in this study; we have not explored other
//!   choices" (§7). We run all five under memory pressure.
//! * **Per-process UTLB vs Shared UTLB-Cache** — "we have not compared the
//!   per-process UTLB with Shared UTLB-Cache approach because we lack
//!   multiple program traces" (§7). Our generators produce the
//!   multiprogrammed traces, so we run it.

use crate::report::{micros, rate, TextTable};
use crate::RunOutputExt;
use crate::{sweep, Mechanism, Run, SimConfig, SimResult};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_core::{Associativity, IndexedEngine, Policy, TranslationStats};
use utlb_trace::{gen, GenConfig, SplashApp};

/// One variant's outcome in a comparison table: the counters plus the
/// serial-clock timing the unified runner reports for every mechanism.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantCell {
    /// Aggregate translation counters.
    pub stats: TranslationStats,
    /// Total simulated translation time (ns).
    pub sim_time_ns: u64,
    /// Simulated translation time per lookup (µs).
    pub sim_us_per_lookup: f64,
}

impl From<SimResult> for VariantCell {
    fn from(r: SimResult) -> Self {
        VariantCell {
            sim_us_per_lookup: r.sim_us_per_lookup(),
            sim_time_ns: r.sim_time_ns,
            stats: r.stats,
        }
    }
}

/// The §3.1 engine's SRAM budget, statically divided across the trace's
/// processes: `SimConfig` for a per-process run under a total entry budget.
fn perproc_split(budget_entries: usize, nprocs: usize) -> usize {
    (budget_entries / nprocs.max(1)).max(1)
}

/// One policy's outcome under memory pressure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyCell {
    /// The replacement policy.
    pub policy: Policy,
    /// Pages pinned per lookup.
    pub pin_rate: f64,
    /// Pages unpinned per lookup.
    pub unpin_rate: f64,
    /// Check misses per lookup (re-pins show up here).
    pub check_miss_rate: f64,
    /// Average UTLB lookup cost (µs).
    pub lookup_us: f64,
}

/// The replacement-policy sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicySweep {
    /// Application swept.
    pub app: SplashApp,
    /// Memory limit in pages.
    pub mem_limit_pages: u64,
    /// One cell per policy.
    pub cells: Vec<PolicyCell>,
}

/// Runs all five policies on `app` with a limit at 40% of the footprint.
pub fn policy_sweep(app: SplashApp, cfg: &GenConfig) -> PolicySweep {
    let trace = gen::generate_shared(app, cfg);
    let per_process_fp = trace.footprint_pages() / 5;
    let mem_limit_pages = (per_process_fp * 2 / 5).max(4);
    let cells = sweep(Policy::ALL.len(), |i| {
        let policy = Policy::ALL[i];
        let sim = SimConfig {
            policy,
            mem_limit_pages: Some(mem_limit_pages),
            ..SimConfig::study(8192)
        };
        let r = Run::new(Mechanism::Utlb)
            .config(&sim)
            .execute(&trace)
            .into_sim()
            .unwrap();
        PolicyCell {
            policy,
            pin_rate: r.stats.pin_rate(),
            unpin_rate: r.stats.unpin_rate(),
            check_miss_rate: r.stats.check_miss_rate(),
            lookup_us: r.utlb_lookup_cost(&sim),
        }
    });
    PolicySweep {
        app,
        mem_limit_pages,
        cells,
    }
}

impl fmt::Display for PolicySweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Replacement-policy sweep: {} ({} pinned pages/process)",
            self.app, self.mem_limit_pages
        ));
        t.header([
            "policy",
            "pin rate",
            "unpin rate",
            "check miss",
            "lookup µs",
        ]);
        for c in &self.cells {
            t.row([
                c.policy.to_string(),
                format!("{:.3}", c.pin_rate),
                format!("{:.3}", c.unpin_rate),
                format!("{:.3}", c.check_miss_rate),
                micros(c.lookup_us),
            ]);
        }
        t.fmt(f)
    }
}

/// Per-process UTLB vs Shared UTLB-Cache under an equal SRAM budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerprocVsShared {
    /// Application compared.
    pub app: SplashApp,
    /// SRAM entries total (split across processes for per-process tables).
    pub sram_entries: usize,
    /// Per-process variant (§3.1).
    pub perproc: VariantCell,
    /// Shared-cache variant (§3.3).
    pub shared: VariantCell,
}

/// Runs both UTLB variants on `app` with the same total SRAM entry budget.
///
/// Both runs go through the unified [`Run`] builder, so the timing columns
/// come from the same simulated clock as every other experiment.
pub fn perproc_vs_shared(app: SplashApp, cfg: &GenConfig, sram_entries: usize) -> PerprocVsShared {
    let trace = gen::generate_shared(app, cfg);

    // Shared UTLB-Cache (Hierarchical engine): the full budget is one cache.
    let shared_cfg = SimConfig::study(sram_entries);
    let shared = Run::new(Mechanism::Utlb)
        .config(&shared_cfg)
        .execute(&trace)
        .into_sim()
        .unwrap()
        .into();

    // Per-process UTLB: the budget is statically divided per process.
    let perproc_cfg = SimConfig {
        table_entries: perproc_split(sram_entries, trace.process_ids().len()),
        ..SimConfig::study(sram_entries)
    };
    let perproc = Run::new(Mechanism::PerProc)
        .config(&perproc_cfg)
        .execute(&trace)
        .into_sim()
        .unwrap()
        .into();

    PerprocVsShared {
        app,
        sram_entries,
        perproc,
        shared,
    }
}

impl fmt::Display for PerprocVsShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Per-process UTLB vs Shared UTLB-Cache: {} ({} SRAM entries total)",
            self.app, self.sram_entries
        ));
        t.header([
            "variant",
            "check miss",
            "NI miss",
            "pins/lookup",
            "unpins/lookup",
            "sim µs/lookup",
        ]);
        for (name, c) in [
            ("per-process", &self.perproc),
            ("shared-cache", &self.shared),
        ] {
            t.row([
                name.to_string(),
                format!("{:.3}", c.stats.check_miss_rate()),
                format!("{:.3}", c.stats.ni_miss_rate()),
                format!("{:.3}", c.stats.pin_rate()),
                format!("{:.3}", c.stats.unpin_rate()),
                micros(c.sim_us_per_lookup),
            ]);
        }
        t.fmt(f)
    }
}

/// All three UTLB variants (§3.1 per-process, §3.2 index-keyed shared
/// cache, §3.3 hierarchical) on one trace under an equal NIC budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantComparison {
    /// Application compared.
    pub app: SplashApp,
    /// NIC entry budget (cache entries for §3.2/§3.3; divided into static
    /// tables for §3.1).
    pub budget_entries: usize,
    /// §3.1 cell.
    pub perproc: VariantCell,
    /// §3.2 cell.
    pub indexed: VariantCell,
    /// §3.3 cell.
    pub hierarchical: VariantCell,
    /// §3.2 table fragmentation at end of run (0 = fully contiguous).
    pub indexed_fragmentation: f64,
}

/// Runs the three variants of §3 on `app` with the same NIC entry budget.
///
/// Every variant replays through the [`Run`] builder; the §3.2 run supplies
/// its own engine (`execute_with`) so the end-of-run table fragmentation can
/// be read back after the replay.
pub fn variant_comparison(
    app: SplashApp,
    cfg: &GenConfig,
    budget_entries: usize,
) -> VariantComparison {
    let trace = gen::generate_shared(app, cfg);
    let hierarchical = Run::new(Mechanism::Utlb)
        .config(&SimConfig::study(budget_entries))
        .execute(&trace)
        .into_sim()
        .unwrap();

    let perproc_cfg = SimConfig {
        table_entries: perproc_split(budget_entries, trace.process_ids().len()),
        ..SimConfig::study(budget_entries)
    };
    let perproc = Run::new(Mechanism::PerProc)
        .config(&perproc_cfg)
        .execute(&trace)
        .into_sim()
        .unwrap();

    // §3.2: host tables far larger than the footprint, NIC budget as cache.
    let indexed_cfg = SimConfig {
        table_entries: 16384,
        ..SimConfig::study(budget_entries)
    };
    let mut indexed_engine = IndexedEngine::new(indexed_cfg.indexed_config());
    let indexed = Run::with_config(&indexed_cfg)
        .execute_with(&mut indexed_engine, &trace)
        .into_sim()
        .unwrap();
    let pids = trace.process_ids();
    let indexed_fragmentation = pids
        .iter()
        .map(|p| indexed_engine.fragmentation(*p).expect("registered"))
        .sum::<f64>()
        / pids.len() as f64;

    VariantComparison {
        app,
        budget_entries,
        perproc: perproc.into(),
        indexed: indexed.into(),
        hierarchical: hierarchical.into(),
        indexed_fragmentation,
    }
}

impl fmt::Display for VariantComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "UTLB variants (§3.1 / §3.2 / §3.3): {} at {} NIC entries (§3.2 fragmentation {:.2})",
            self.app, self.budget_entries, self.indexed_fragmentation
        ));
        t.header([
            "variant",
            "check miss",
            "NI miss",
            "pins/lookup",
            "unpins/lookup",
            "sim µs/lookup",
        ]);
        for (name, c) in [
            ("per-process (3.1)", &self.perproc),
            ("indexed (3.2)", &self.indexed),
            ("hierarchical (3.3)", &self.hierarchical),
        ] {
            t.row([
                name.to_string(),
                format!("{:.3}", c.stats.check_miss_rate()),
                format!("{:.3}", c.stats.ni_miss_rate()),
                format!("{:.3}", c.stats.pin_rate()),
                format!("{:.3}", c.stats.unpin_rate()),
                micros(c.sim_us_per_lookup),
            ]);
        }
        t.fmt(f)
    }
}

/// §6.3's cost argument, quantified: per-associativity miss rate *and*
/// average lookup cost including the firmware's serial tag checks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssocCost {
    /// Application measured.
    pub app: SplashApp,
    /// Cache entries.
    pub cache_entries: usize,
    /// `(associativity, miss rate, lookup µs with serial probes)` rows.
    pub rows: Vec<(Associativity, f64, f64)>,
}

/// Measures miss rate and probe-aware lookup cost for each associativity.
///
/// The paper: set-associativity buys little miss rate (with offsetting) but
/// every extra way costs a serial tag check in firmware, so "the
/// set-associative caches lose to the direct-map cache" on actual cost.
pub fn assoc_cost(app: SplashApp, cfg: &GenConfig, cache_entries: usize) -> AssocCost {
    let trace = gen::generate_shared(app, cfg);
    let rows = sweep(Associativity::ALL.len(), |i| {
        let assoc = Associativity::ALL[i];
        let sim = SimConfig {
            associativity: assoc,
            ..SimConfig::study(cache_entries)
        };
        let r = Run::new(Mechanism::Utlb)
            .config(&sim)
            .execute(&trace)
            .into_sim()
            .unwrap();
        (
            assoc,
            r.stats.ni_miss_rate(),
            r.utlb_lookup_cost_serial(&sim),
        )
    });
    AssocCost {
        app,
        cache_entries,
        rows,
    }
}

impl fmt::Display for AssocCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Associativity cost (§6.3): {} at {} entries",
            self.app, self.cache_entries
        ));
        t.header(["assoc", "miss rate", "lookup µs (serial probes)"]);
        for (assoc, miss, cost) in &self.rows {
            t.row([assoc.to_string(), rate(*miss), micros(*cost)]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_gen_config;
    use super::*;

    #[test]
    fn lru_beats_mru_on_looping_water() {
        // Water sweeps cyclically; for a cyclic scan LRU is actually the
        // pathological policy and MRU the optimal one — the classic result
        // the application-controlled design exists to exploit.
        let s = policy_sweep(SplashApp::Water, &test_gen_config());
        let get = |p: Policy| s.cells.iter().find(|c| c.policy == p).unwrap();
        let lru = get(Policy::Lru);
        let mru = get(Policy::Mru);
        assert!(
            mru.unpin_rate < lru.unpin_rate,
            "MRU {} should beat LRU {} on cyclic sweeps",
            mru.unpin_rate,
            lru.unpin_rate
        );
        assert_eq!(s.cells.len(), 5);
        assert!(s.to_string().contains("RANDOM"));
    }

    #[test]
    fn three_variants_rank_as_designed() {
        // With a budget far below the footprint, §3.1 must churn (static
        // SRAM tables), while §3.2 and §3.3 keep translations alive in host
        // memory (large tables) and never unpin.
        let v = variant_comparison(SplashApp::Lu, &test_gen_config(), 128);
        assert!(v.perproc.stats.unpins > 0, "static tables overflow");
        assert_eq!(v.indexed.stats.unpins, 0, "host tables are big enough");
        assert_eq!(v.hierarchical.stats.unpins, 0);
        // §3.1 never misses on the NIC; the cached variants may.
        assert_eq!(v.perproc.stats.ni_misses, 0);
        assert!(v.indexed.stats.ni_misses > 0);
        // §3.2 and §3.3 agree on check misses (same pinning discipline).
        assert_eq!(
            v.indexed.stats.check_misses,
            v.hierarchical.stats.check_misses
        );
        // Every variant now reports wall-clock translation time.
        assert!(v.perproc.sim_time_ns > 0);
        assert!(v.indexed.sim_time_ns > 0);
        assert!(v.hierarchical.sim_time_ns > 0);
        assert!(v.indexed.sim_us_per_lookup > 0.0);
        assert!(v.to_string().contains("hierarchical"));
        assert!(v.to_string().contains("sim µs/lookup"));
    }

    #[test]
    fn direct_mapped_wins_on_actual_cost() {
        // §6.3: "the set-associative caches lose to the direct-map cache"
        // once the serial per-way tag checks are charged.
        let r = assoc_cost(SplashApp::Water, &test_gen_config(), 2048);
        let cost_of = |a: Associativity| r.rows.iter().find(|(x, _, _)| *x == a).unwrap().2;
        let direct = cost_of(Associativity::Direct);
        let four = cost_of(Associativity::FourWay);
        assert!(
            direct < four,
            "direct {direct} must beat 4-way {four} on probe-aware cost"
        );
        assert!(r.to_string().contains("serial probes"));
    }

    #[test]
    fn perproc_suffers_capacity_unpins_where_shared_does_not() {
        // With an SRAM budget well below the footprint, the static
        // per-process tables must evict (unpin); the shared-cache variant
        // keeps translations alive in host memory and never unpins.
        let cfg = test_gen_config();
        let r = perproc_vs_shared(SplashApp::Lu, &cfg, 128);
        assert_eq!(r.shared.stats.unpins, 0);
        assert!(
            r.perproc.stats.unpins > 0,
            "static tables must overflow: {:?}",
            r.perproc
        );
        assert!(r.perproc.stats.check_miss_rate() >= r.shared.stats.check_miss_rate());
        // The capacity churn is visible in simulated time too: every unpin
        // charges the clock, so the churning variant pays more per lookup.
        assert!(r.perproc.sim_us_per_lookup > r.shared.sim_us_per_lookup);
        assert!(r.to_string().contains("per-process"));
    }
}
