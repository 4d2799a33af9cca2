//! The UTLB cost model.
//!
//! All constants come from the paper's microbenchmarks on a 300 MHz
//! Pentium-II running Windows NT 4.0 with a LANai 4.2 Myrinet NIC:
//!
//! * Table 1 — host-side costs: bitmap check (0.2 µs min, up to 0.7 µs),
//!   page pinning (27 µs for 1 page up to 115 µs for 32), unpinning
//!   (25–139 µs),
//! * Table 2 — NIC-side costs: cache hit 0.8 µs, DMA of 1–32 translation
//!   entries 1.5–2.5 µs, total miss handling 1.8–3.2 µs,
//! * §6.2 — user-level check 0.5 µs per lookup, interrupt dispatch 10 µs.
//!
//! The average-lookup-cost formulas of §6.2 (reproduced by Table 6) are
//! implemented by [`CostModel::utlb_lookup_cost`] and
//! [`CostModel::intr_lookup_cost`].

use serde::{Deserialize, Serialize};
use utlb_nic::Nanos;

/// Calibration points `(pages, cost)` with linear interpolation between
/// them and linear extrapolation past the last point.
fn interpolate(points: &[(u64, f64)], n: u64) -> f64 {
    assert!(!points.is_empty());
    if n <= points[0].0 {
        return points[0].1;
    }
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if n <= x1 {
            let t = (n - x0) as f64 / (x1 - x0) as f64;
            return y0 + t * (y1 - y0);
        }
    }
    // Extrapolate with the slope of the last segment.
    let (x0, y0) = points[points.len() - 2];
    let (x1, y1) = points[points.len() - 1];
    let slope = (y1 - y0) / (x1 - x0) as f64;
    y1 + slope * (n - x1) as f64
}

/// Per-lookup rates measured by a simulation run, fed to the cost formulas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LookupRates {
    /// User-level check misses per lookup (UTLB only).
    pub check_miss_rate: f64,
    /// NIC translation-cache misses per lookup.
    pub ni_miss_rate: f64,
    /// Pages unpinned per lookup.
    pub unpin_rate: f64,
    /// Average pages pinned per pinning call (1 without prepinning).
    pub pages_per_pin: f64,
    /// Average translation entries fetched per NIC miss (1 without
    /// prefetching).
    pub entries_per_fetch: f64,
}

impl LookupRates {
    /// Rates with the given miss/unpin ratios and unit batch sizes.
    pub fn new(check_miss_rate: f64, ni_miss_rate: f64, unpin_rate: f64) -> Self {
        LookupRates {
            check_miss_rate,
            ni_miss_rate,
            unpin_rate,
            pages_per_pin: 1.0,
            entries_per_fetch: 1.0,
        }
    }
}

/// The paper-calibrated cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// User-level lookup (bitmap check) cost per lookup, §6.2: 0.5 µs.
    pub user_check_us: f64,
    /// NIC cache-hit lookup cost, §6.2: 0.8 µs per lookup.
    pub ni_check_us: f64,
    /// Extra SRAM reference to read the page directory on a miss (§3.3).
    pub directory_ref_us: f64,
    /// Host interrupt dispatch, §6.2: 10 µs.
    pub interrupt_us: f64,
    /// Syscall/context-switch overhead included in the user-level pin cost
    /// but factored out for the in-kernel (interrupt-handler) pin path.
    pub syscall_overhead_us: f64,
    /// DMA cost calibration points from Table 2 (`(entries, µs)`).
    pub dma_points: Vec<(u64, f64)>,
    /// Pin cost calibration points from Table 1 (`(pages, µs)`).
    pub pin_points: Vec<(u64, f64)>,
    /// Unpin cost calibration points from Table 1 (`(pages, µs)`).
    pub unpin_points: Vec<(u64, f64)>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            user_check_us: 0.5,
            ni_check_us: 0.8,
            directory_ref_us: 0.3,
            interrupt_us: 10.0,
            syscall_overhead_us: 5.0,
            dma_points: vec![(1, 1.5), (2, 1.6), (4, 1.6), (8, 1.9), (16, 2.1), (32, 2.5)],
            pin_points: vec![
                (1, 27.0),
                (2, 30.0),
                (4, 36.0),
                (8, 47.0),
                (16, 70.0),
                (32, 115.0),
            ],
            unpin_points: vec![
                (1, 25.0),
                (2, 30.0),
                (4, 36.0),
                (8, 50.0),
                (16, 80.0),
                (32, 139.0),
            ],
        }
    }
}

impl CostModel {
    /// Rejects a model the simulator cannot charge: a scalar cost that is
    /// not a representable duration ([`Nanos::checked_from_micros`]), or a
    /// calibration table with fewer than two points, page counts that are
    /// not strictly increasing, or costs that are not representable
    /// durations or that decrease — interpolation divides by the page gap
    /// and extrapolates the last slope, so any of those yields a negative
    /// or undefined charge.
    pub fn validate(&self) -> Result<(), &'static str> {
        let duration = |us: f64| Nanos::checked_from_micros(us).is_some();
        let scalars = [
            self.user_check_us,
            self.ni_check_us,
            self.directory_ref_us,
            self.interrupt_us,
            self.syscall_overhead_us,
        ];
        if !scalars.into_iter().all(duration) {
            return Err("a cost-model scalar is negative, not finite, or too large");
        }
        for points in [&self.dma_points, &self.pin_points, &self.unpin_points] {
            if points.len() < 2 {
                return Err("a cost calibration table needs at least two points");
            }
            if points.windows(2).any(|w| w[1].0 <= w[0].0) {
                return Err("cost calibration page counts must be strictly increasing");
            }
            if !points.iter().all(|&(_, us)| duration(us))
                || points.windows(2).any(|w| w[1].1 < w[0].1)
            {
                return Err(
                    "cost calibration costs must be finite, non-negative and nondecreasing",
                );
            }
        }
        Ok(())
    }

    /// Host bitmap-check cost for `npages`, best case (first probe decides).
    pub fn check_cost_min(&self, _npages: u64) -> f64 {
        0.2
    }

    /// Host bitmap-check cost for `npages`, worst case (scan to the end).
    ///
    /// Fitted to Table 1: 0.4 µs for 1 page growing to ~0.7 µs for 32.
    pub fn check_cost_max(&self, npages: u64) -> f64 {
        0.4 + 0.01 * npages as f64
    }

    /// DMA cost to fetch `entries` translation entries (Table 2 row 1).
    pub fn dma_cost(&self, entries: u64) -> f64 {
        interpolate(&self.dma_points, entries.max(1))
    }

    /// Total NIC miss-handling cost when `entries` are fetched: directory
    /// reference plus the DMA (Table 2 row 2).
    pub fn miss_cost(&self, entries: u64) -> f64 {
        self.directory_ref_us + self.dma_cost(entries)
    }

    /// User-level (ioctl) cost of pinning `npages` in one call (Table 1).
    pub fn pin_cost(&self, npages: u64) -> f64 {
        if npages == 0 {
            return 0.0;
        }
        interpolate(&self.pin_points, npages)
    }

    /// User-level cost of unpinning `npages` in one call (Table 1).
    pub fn unpin_cost(&self, npages: u64) -> f64 {
        if npages == 0 {
            return 0.0;
        }
        interpolate(&self.unpin_points, npages)
    }

    /// In-kernel pin cost (interrupt path): no protection-domain crossing,
    /// so the syscall overhead is factored out (§6.2).
    pub fn kernel_pin_cost(&self, npages: u64) -> f64 {
        (self.pin_cost(npages) - self.syscall_overhead_us).max(1.0)
    }

    /// In-kernel unpin cost (interrupt path).
    pub fn kernel_unpin_cost(&self, npages: u64) -> f64 {
        (self.unpin_cost(npages) - self.syscall_overhead_us).max(1.0)
    }

    /// Average UTLB translation-lookup cost in µs (§6.2):
    ///
    /// ```text
    /// lookup_utlb = user_check_hit
    ///             + user_pin_cost   · check_miss_rate
    ///             + ni_check_hit
    ///             + ni_miss_cost    · ni_miss_rate
    ///             + user_unpin_cost · unpin_rate
    /// ```
    pub fn utlb_lookup_cost(&self, r: &LookupRates) -> f64 {
        let pages = r.pages_per_pin.max(1.0).round() as u64;
        let entries = r.entries_per_fetch.max(1.0).round() as u64;
        // A batched pin of `pages` pages serves `pages` check misses, so the
        // per-miss cost is amortized over the batch.
        let pin_per_miss = self.pin_cost(pages) / pages as f64;
        self.user_check_us
            + pin_per_miss * r.check_miss_rate
            + self.ni_check_us
            + self.miss_cost(entries) * r.ni_miss_rate
            + self.unpin_cost(1) * r.unpin_rate
    }

    /// Average interrupt-based translation-lookup cost in µs (§6.2):
    ///
    /// ```text
    /// lookup_intr = ni_check
    ///             + (intr_cost + kernel_pin_cost) · ni_miss_rate
    ///             + kernel_unpin_cost             · unpin_rate
    /// ```
    pub fn intr_lookup_cost(&self, r: &LookupRates) -> f64 {
        self.ni_check_us
            + (self.interrupt_us + self.kernel_pin_cost(1)) * r.ni_miss_rate
            + self.kernel_unpin_cost(1) * r.unpin_rate
    }

    /// Average UTLB lookup cost when the firmware probes `probes_per_lookup`
    /// cache lines per lookup (§6.3): the Shared UTLB-Cache is software, so
    /// a k-way set costs up to k serial tag checks. This is why "the
    /// set-associative caches lose to the direct-map cache" once actual
    /// lookup cost is considered, even with comparable miss rates.
    pub fn utlb_lookup_cost_with_probes(&self, r: &LookupRates, probes_per_lookup: f64) -> f64 {
        let base = self.utlb_lookup_cost(r);
        // The first probe is part of ni_check; extras cost an SRAM tag
        // check each (~directory_ref_us worth of firmware work).
        let extra_probes = (probes_per_lookup - 1.0).max(0.0);
        base + extra_probes * self.directory_ref_us
    }

    /// The fast-path total from §5: user check hit plus NIC cache hit.
    pub fn fast_path(&self) -> Nanos {
        Nanos::from_micros(self.user_check_us + self.ni_check_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_hits_calibration_points() {
        let m = CostModel::default();
        assert_eq!(m.pin_cost(1), 27.0);
        assert_eq!(m.pin_cost(16), 70.0);
        assert_eq!(m.unpin_cost(32), 139.0);
        assert_eq!(m.dma_cost(4), 1.6);
    }

    #[test]
    fn interpolation_between_and_beyond_points() {
        let m = CostModel::default();
        let mid = m.pin_cost(3);
        assert!(mid > 30.0 && mid < 36.0, "pin(3) = {mid}");
        // Extrapolation continues the last slope.
        let beyond = m.pin_cost(64);
        assert!(beyond > 115.0, "pin(64) = {beyond}");
        // Below the first point clamps.
        assert_eq!(m.dma_cost(0), 1.5);
    }

    #[test]
    fn pin_is_cheaper_per_page_in_batches() {
        // The property motivating sequential pre-pinning (§6.5).
        let m = CostModel::default();
        assert!(m.pin_cost(16) / 16.0 < m.pin_cost(1));
    }

    #[test]
    fn miss_cost_matches_table2() {
        let m = CostModel::default();
        // Table 2: total miss cost 1.8 µs at 1 entry, 3.2 µs at 32 entries.
        assert!((m.miss_cost(1) - 1.8).abs() < 0.01);
        assert!((m.miss_cost(32) - 2.8).abs() < 0.45);
    }

    #[test]
    fn utlb_beats_intr_at_moderate_miss_rates() {
        // FFT-like rates from Table 4 at 1K entries.
        let m = CostModel::default();
        let utlb = m.utlb_lookup_cost(&LookupRates::new(0.25, 0.50, 0.0));
        let intr = m.intr_lookup_cost(&LookupRates::new(0.0, 0.50, 0.49));
        assert!(utlb < intr, "utlb {utlb} vs intr {intr}");
    }

    #[test]
    fn intr_wins_when_misses_vanish() {
        // Barnes at 16K entries: both NI miss rates 0.04, no unpins; the
        // interrupt approach skips the user-level check so it is cheaper —
        // the paper's Table 6 shows exactly this crossover (2.5 vs 1.9 µs).
        let m = CostModel::default();
        let utlb = m.utlb_lookup_cost(&LookupRates::new(0.04, 0.04, 0.0));
        let intr = m.intr_lookup_cost(&LookupRates::new(0.0, 0.04, 0.004));
        assert!(intr < utlb, "utlb {utlb} vs intr {intr}");
    }

    #[test]
    fn serial_probes_penalize_wide_sets() {
        let m = CostModel::default();
        let r = LookupRates::new(0.1, 0.1, 0.0);
        let direct = m.utlb_lookup_cost_with_probes(&r, 1.0);
        let four_way = m.utlb_lookup_cost_with_probes(&r, 3.0);
        assert_eq!(direct, m.utlb_lookup_cost(&r));
        assert!(four_way > direct + 0.5, "{four_way} vs {direct}");
    }

    #[test]
    fn fast_path_is_sub_two_microseconds() {
        let m = CostModel::default();
        let us = m.fast_path().as_micros();
        assert!(us <= 1.5, "fast path {us} µs");
    }

    #[test]
    fn prefetch_amortizes_miss_cost() {
        let m = CostModel::default();
        // Fetching 8 entries costs far less than 8 single fetches.
        assert!(m.miss_cost(8) < 4.0 * m.miss_cost(1));
    }

    #[test]
    fn batched_rates_lower_utlb_cost() {
        let m = CostModel::default();
        let mut r = LookupRates::new(0.5, 0.5, 0.0);
        let single = m.utlb_lookup_cost(&r);
        r.pages_per_pin = 16.0;
        r.entries_per_fetch = 16.0;
        let batched = m.utlb_lookup_cost(&r);
        assert!(batched < single);
    }
}
