//! Reference-counted page pinning with per-process limits.
//!
//! Pinning is the OS facility the UTLB driver wraps: a pinned page is
//! guaranteed resident so the NIC can DMA to it at any time. The paper's
//! §3.4 discusses managing *how much* memory a process may pin; this module
//! implements the static per-process limit used throughout the evaluation
//! (Tables 5 and 7 run with 4 MB and 16 MB limits respectively).

use crate::{IntMap, MemError, ProcessId, Result, VirtPage};
use std::collections::hash_map::Entry;

/// Aggregate pin/unpin activity counters, used by the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinStats {
    /// Total pages pinned (counting re-pins of the same page).
    pub pin_ops: u64,
    /// Total pages unpinned.
    pub unpin_ops: u64,
    /// Number of driver calls that performed at least one pin.
    pub pin_calls: u64,
    /// Number of driver calls that performed at least one unpin.
    pub unpin_calls: u64,
}

/// One process' pins: the reference count of each pinned page, and the
/// process' pinned-page limit.
#[derive(Debug, Default)]
struct ProcessPins {
    counts: IntMap<u64, u32>,
    limit: Option<u64>,
}

/// Tracks which virtual pages of which processes are pinned.
///
/// Pins are reference counted: both the send path and an outstanding DMA may
/// hold a page, and the page may be unpinned only after every holder releases
/// it. State is kept per process, so process exit drops it in one step.
#[derive(Debug, Default)]
pub struct PinRegistry {
    procs: IntMap<ProcessId, ProcessPins>,
    stats: PinStats,
}

impl PinRegistry {
    /// Creates an empty registry with no limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a pinned-page limit for `pid`. `None` removes the limit.
    pub fn set_limit(&mut self, pid: ProcessId, limit_pages: Option<u64>) {
        match limit_pages {
            Some(_) => self.procs.entry(pid).or_default().limit = limit_pages,
            None => {
                if let Some(pins) = self.procs.get_mut(&pid) {
                    pins.limit = None;
                }
            }
        }
    }

    /// The pinned-page limit for `pid`, if any.
    pub fn limit(&self, pid: ProcessId) -> Option<u64> {
        self.procs.get(&pid).and_then(|p| p.limit)
    }

    /// Number of distinct pages currently pinned by `pid`.
    pub fn pinned_pages(&self, pid: ProcessId) -> u64 {
        self.procs.get(&pid).map_or(0, |p| p.counts.len() as u64)
    }

    /// Number of distinct pages currently pinned, over every process.
    pub fn total_pinned_pages(&self) -> u64 {
        self.procs.values().map(|p| p.counts.len() as u64).sum()
    }

    /// Whether `page` of `pid` is currently pinned.
    pub fn is_pinned(&self, pid: ProcessId, page: VirtPage) -> bool {
        self.pin_count(pid, page) > 0
    }

    /// Current pin reference count of `page`.
    pub fn pin_count(&self, pid: ProcessId, page: VirtPage) -> u32 {
        self.procs
            .get(&pid)
            .and_then(|p| p.counts.get(&page.number()))
            .copied()
            .unwrap_or(0)
    }

    /// Whether `pid` can pin `extra` more *new* pages without violating its
    /// limit.
    pub fn can_pin(&self, pid: ProcessId, extra: u64) -> bool {
        match self.limit(pid) {
            Some(limit) => self.pinned_pages(pid) + extra <= limit,
            None => true,
        }
    }

    /// Pins one page (increments its refcount).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PinLimitExceeded`] if pinning a *new* page would
    /// exceed the process limit; re-pinning an already-pinned page never
    /// fails.
    pub fn pin(&mut self, pid: ProcessId, page: VirtPage) -> Result<()> {
        let pins = self.procs.entry(pid).or_default();
        let held = pins.counts.len() as u64;
        match pins.counts.entry(page.number()) {
            Entry::Occupied(mut cnt) => *cnt.get_mut() += 1,
            Entry::Vacant(slot) => {
                if let Some(limit_pages) = pins.limit.filter(|&l| held >= l) {
                    return Err(MemError::PinLimitExceeded { pid, limit_pages });
                }
                slot.insert(1);
            }
        }
        self.stats.pin_ops += 1;
        Ok(())
    }

    /// Unpins one page (decrements its refcount).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NotPinned`] if the page has no outstanding pin.
    pub fn unpin(&mut self, pid: ProcessId, page: VirtPage) -> Result<()> {
        let entry = self
            .procs
            .get_mut(&pid)
            .map(|p| p.counts.entry(page.number()));
        match entry {
            Some(Entry::Occupied(mut cnt)) if *cnt.get() > 1 => *cnt.get_mut() -= 1,
            Some(Entry::Occupied(cnt)) => {
                cnt.remove();
            }
            _ => return Err(MemError::NotPinned { pid, page }),
        }
        self.stats.unpin_ops += 1;
        Ok(())
    }

    /// Records that a driver call batching pins/unpins took place.
    pub fn record_call(&mut self, pins: u64, unpins: u64) {
        if pins > 0 {
            self.stats.pin_calls += 1;
        }
        if unpins > 0 {
            self.stats.unpin_calls += 1;
        }
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> PinStats {
        self.stats
    }

    /// Releases every pin belonging to `pid`, and its limit (process exit).
    pub fn release_process(&mut self, pid: ProcessId) {
        self.procs.remove(&pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn pin_unpin_refcounts() {
        let mut reg = PinRegistry::new();
        let p = VirtPage::new(5);
        reg.pin(pid(1), p).unwrap();
        reg.pin(pid(1), p).unwrap();
        assert_eq!(reg.pin_count(pid(1), p), 2);
        assert_eq!(reg.pinned_pages(pid(1)), 1, "distinct pages, not refs");
        reg.unpin(pid(1), p).unwrap();
        assert!(reg.is_pinned(pid(1), p));
        reg.unpin(pid(1), p).unwrap();
        assert!(!reg.is_pinned(pid(1), p));
        assert_eq!(
            reg.unpin(pid(1), p),
            Err(MemError::NotPinned {
                pid: pid(1),
                page: p
            })
        );
    }

    #[test]
    fn limit_applies_to_distinct_pages_only() {
        let mut reg = PinRegistry::new();
        reg.set_limit(pid(1), Some(2));
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        reg.pin(pid(1), VirtPage::new(1)).unwrap();
        // Re-pinning an existing page is always allowed.
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        assert!(matches!(
            reg.pin(pid(1), VirtPage::new(2)),
            Err(MemError::PinLimitExceeded { .. })
        ));
        reg.unpin(pid(1), VirtPage::new(1)).unwrap();
        assert!(reg.pin(pid(1), VirtPage::new(2)).is_ok());
    }

    #[test]
    fn limits_are_per_process() {
        let mut reg = PinRegistry::new();
        reg.set_limit(pid(1), Some(1));
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        // Process 2 has no limit.
        for i in 0..100 {
            reg.pin(pid(2), VirtPage::new(i)).unwrap();
        }
        assert_eq!(reg.pinned_pages(pid(2)), 100);
    }

    #[test]
    fn stats_count_operations() {
        let mut reg = PinRegistry::new();
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        reg.unpin(pid(1), VirtPage::new(0)).unwrap();
        reg.record_call(2, 1);
        reg.record_call(0, 0);
        let s = reg.stats();
        assert_eq!(s.pin_ops, 2);
        assert_eq!(s.unpin_ops, 1);
        assert_eq!(s.pin_calls, 1);
        assert_eq!(s.unpin_calls, 1);
    }

    #[test]
    fn release_process_clears_everything() {
        let mut reg = PinRegistry::new();
        reg.set_limit(pid(1), Some(10));
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        reg.pin(pid(2), VirtPage::new(0)).unwrap();
        reg.release_process(pid(1));
        assert_eq!(reg.pinned_pages(pid(1)), 0);
        assert_eq!(reg.limit(pid(1)), None);
        assert!(reg.is_pinned(pid(2), VirtPage::new(0)));
    }

    #[test]
    fn total_pinned_pages_counts_a_leaked_pin() {
        let mut reg = PinRegistry::new();
        reg.set_limit(pid(3), Some(4));
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        reg.pin(pid(1), VirtPage::new(0)).unwrap();
        reg.pin(pid(2), VirtPage::new(7)).unwrap();
        assert_eq!(reg.total_pinned_pages(), 2, "distinct pages, not refs");
        reg.release_process(pid(1));
        // Process 2 never released its pin: the leak stays visible.
        assert_eq!(reg.total_pinned_pages(), 1);
        reg.unpin(pid(2), VirtPage::new(7)).unwrap();
        assert_eq!(reg.total_pinned_pages(), 0);
    }
}
