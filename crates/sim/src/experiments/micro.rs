//! Tables 1 and 2: host-side and NIC-side operation costs.
//!
//! On the paper's testbed these were measured with the Pentium cycle counter
//! and the LANai real-time clock. Our substitute hardware *is* the cost
//! model, so these tables print the calibrated model — and Table 2
//! additionally cross-checks the model against the simulated DMA engine's
//! bus timing, proving the two layers agree.

use crate::report::{micros, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt;
use utlb_core::CostModel;
use utlb_mem::{PhysAddr, PhysicalMemory};
use utlb_nic::{DmaEngine, SimClock};

/// Page counts used by the paper's microbenchmarks.
pub const PAGE_COUNTS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// One row of Table 1.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table1Row {
    /// Pages in the operation.
    pub pages: u64,
    /// Bitmap check, best case (µs).
    pub check_min_us: f64,
    /// Bitmap check, worst case (µs).
    pub check_max_us: f64,
    /// Pin `ioctl` (µs).
    pub pin_us: f64,
    /// Unpin `ioctl` (µs).
    pub unpin_us: f64,
}

/// Table 1: UTLB overhead on the host processor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Rows for 1–32 pages.
    pub rows: Vec<Table1Row>,
}

/// Regenerates Table 1.
pub fn table1() -> Table1 {
    let m = CostModel::default();
    let rows = PAGE_COUNTS
        .iter()
        .map(|&pages| Table1Row {
            pages,
            check_min_us: m.check_cost_min(pages),
            check_max_us: m.check_cost_max(pages),
            pin_us: m.pin_cost(pages),
            unpin_us: m.unpin_cost(pages),
        })
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Table 1: UTLB overhead on the host processor (µs)");
        t.header(["num pages", "check min", "check max", "pin", "unpin"]);
        for r in &self.rows {
            t.row([
                r.pages.to_string(),
                micros(r.check_min_us),
                micros(r.check_max_us),
                micros(r.pin_us),
                micros(r.unpin_us),
            ]);
        }
        t.fmt(f)
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Table2Row {
    /// Translation entries fetched in one miss.
    pub entries: u64,
    /// DMA cost from the cost model (µs).
    pub dma_us: f64,
    /// Total miss-handling cost (µs).
    pub miss_us: f64,
    /// DMA cost measured on the simulated bus (µs) — cross-check.
    pub simulated_dma_us: f64,
}

/// Table 2: UTLB overhead on the network interface.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// Constant cache-hit lookup cost (µs).
    pub hit_us: f64,
    /// Rows for 1–32 entries.
    pub rows: Vec<Table2Row>,
}

/// Regenerates Table 2, cross-checking the cost model against the DMA
/// engine's bus timing.
pub fn table2() -> Table2 {
    let m = CostModel::default();
    let host = PhysicalMemory::new(16);
    let rows = PAGE_COUNTS
        .iter()
        .map(|&entries| {
            let mut clock = SimClock::new();
            let mut dma = DmaEngine::default();
            let mut words = vec![0u64; entries as usize];
            dma.fetch_words(&mut clock, &host, PhysAddr::new(0), &mut words)
                .expect("scratch fetch succeeds");
            Table2Row {
                entries,
                dma_us: m.dma_cost(entries),
                miss_us: m.miss_cost(entries),
                simulated_dma_us: clock.now().as_micros(),
            }
        })
        .collect();
    Table2 {
        hit_us: m.ni_check_us,
        rows,
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Table 2: UTLB overhead on the network interface (hit cost {} µs)",
            micros(self.hit_us)
        ));
        t.header(["num entries", "DMA cost", "total miss cost", "sim DMA"]);
        for r in &self.rows {
            t.row([
                r.entries.to_string(),
                micros(r.dma_us),
                micros(r.miss_us),
                micros(r.simulated_dma_us),
            ]);
        }
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_calibration_points() {
        let t = table1();
        assert_eq!(t.rows.len(), 6);
        let one = &t.rows[0];
        assert_eq!(one.pin_us, 27.0);
        assert_eq!(one.unpin_us, 25.0);
        let thirty_two = &t.rows[5];
        assert_eq!(thirty_two.pin_us, 115.0);
        assert_eq!(thirty_two.unpin_us, 139.0);
        assert!(!t.to_string().is_empty());
    }

    #[test]
    fn table2_model_and_simulated_bus_agree() {
        let t = table2();
        assert_eq!(t.hit_us, 0.8);
        for r in &t.rows {
            assert!(
                (r.dma_us - r.simulated_dma_us).abs() < 0.25,
                "entries {}: model {} vs bus {}",
                r.entries,
                r.dma_us,
                r.simulated_dma_us
            );
            assert!(r.miss_us > r.dma_us);
        }
        assert!(t.to_string().contains("Table 2"));
    }

    #[test]
    fn miss_cost_grows_slower_than_entries() {
        let t = table2();
        let first = t.rows[0].miss_us;
        let last = t.rows[5].miss_us;
        assert!(last < 2.0 * first, "setup-dominated: {first} → {last}");
    }
}
