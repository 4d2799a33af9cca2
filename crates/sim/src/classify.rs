//! 3C miss classification (Figure 7).
//!
//! The paper breaks NIC translation-cache misses into the classic three Cs
//! [Hill '87]: **compulsory** (first reference to the page), **capacity**
//! (would also miss in a fully-associative LRU cache of the same total
//! size), and **conflict** (everything else — a set-mapping artifact).
//!
//! The classifier shadows the real cache with a fully-associative LRU of
//! equal capacity, updated on every access. Each key ever seen owns one
//! slot, found by a single [`IntMap`] probe per access: a vacant entry is a
//! first reference, and an occupied one says through the slot's resident
//! flag whether the key is in the shadow. Resident slots form an intrusive
//! doubly linked recency list (most recent at the head), so a touch and an
//! eviction are O(1) and memory is bounded by the distinct keys.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use utlb_core::PageOutcome;
use utlb_mem::{IntMap, ProcessId, VirtPage};

/// Classification of one NIC translation miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MissKind {
    /// First reference to the page: unavoidable at any cache size.
    Compulsory,
    /// Would miss even fully-associative: the working set exceeds the cache.
    Capacity,
    /// An artifact of the set mapping: a fully-associative cache would hit.
    Conflict,
}

/// Aggregate 3C counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissBreakdown {
    /// Compulsory misses.
    pub compulsory: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Conflict misses.
    pub conflict: u64,
}

impl MissBreakdown {
    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Compulsory/capacity/conflict as rates over `lookups`.
    pub fn rates(&self, lookups: u64) -> (f64, f64, f64) {
        if lookups == 0 {
            return (0.0, 0.0, 0.0);
        }
        let d = lookups as f64;
        (
            self.compulsory as f64 / d,
            self.capacity as f64 / d,
            self.conflict as f64 / d,
        )
    }
}

type Key = (u32, u64);

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One key's place in the shadow: its recency-list links while resident.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Next more recently used resident slot, or [`NIL`] at the head.
    prev: u32,
    /// Next less recently used resident slot, or [`NIL`] at the tail.
    next: u32,
    resident: bool,
}

/// Streaming 3C classifier.
#[derive(Debug)]
pub struct MissClassifier {
    capacity: usize,
    /// Every key ever seen, to its slot in `slots`.
    index: IntMap<Key, u32>,
    slots: Vec<Slot>,
    /// Most recently used resident slot, or [`NIL`] when the shadow is empty.
    head: u32,
    /// Least recently used resident slot, or [`NIL`] when the shadow is empty.
    tail: u32,
    /// Resident slots: the shadow's occupancy, at most `capacity`.
    resident: usize,
    breakdown: MissBreakdown,
}

impl MissClassifier {
    /// Creates a classifier shadowing a cache of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow capacity must be positive");
        MissClassifier {
            capacity,
            index: IntMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            resident: 0,
            breakdown: MissBreakdown::default(),
        }
    }

    /// The running breakdown.
    pub fn breakdown(&self) -> MissBreakdown {
        self.breakdown
    }

    /// Records one access to the *real* cache and, if it missed there,
    /// classifies the miss. Call on every access, hit or miss, so the
    /// shadow tracks recency faithfully.
    pub fn access(&mut self, pid: ProcessId, page: VirtPage, real_miss: bool) -> Option<MissKind> {
        let (slot, kind) = match self.index.entry((pid.raw(), page.number())) {
            Entry::Vacant(e) => {
                assert!(self.slots.len() < NIL as usize, "too many distinct keys");
                let slot = self.slots.len() as u32;
                e.insert(slot);
                self.slots.push(Slot {
                    prev: NIL,
                    next: NIL,
                    resident: false,
                });
                (slot, MissKind::Compulsory)
            }
            Entry::Occupied(e) => {
                let slot = *e.get();
                let kind = if self.slots[slot as usize].resident {
                    MissKind::Conflict
                } else {
                    MissKind::Capacity
                };
                (slot, kind)
            }
        };
        self.touch(slot);
        if !real_miss {
            return None;
        }
        match kind {
            MissKind::Compulsory => self.breakdown.compulsory += 1,
            MissKind::Capacity => self.breakdown.capacity += 1,
            MissKind::Conflict => self.breakdown.conflict += 1,
        }
        Some(kind)
    }

    /// Feeds a whole record's page outcomes — as produced by
    /// [`utlb_core::TranslationMechanism::lookup_run_into`] — through the
    /// classifier in order. Exactly equivalent to calling
    /// [`access`](MissClassifier::access) per page.
    pub fn access_batch(&mut self, pid: ProcessId, pages: &[PageOutcome]) {
        for p in pages {
            self.access(pid, p.page, p.ni_miss);
        }
    }

    /// Makes `slot` the most recently used resident, evicting the least
    /// recently used one if the shadow overflows.
    fn touch(&mut self, slot: u32) {
        if self.slots[slot as usize].resident {
            if self.head == slot {
                return;
            }
            self.unlink(slot);
        } else {
            self.slots[slot as usize].resident = true;
            self.resident += 1;
        }
        self.push_head(slot);
        if self.resident > self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.slots[lru as usize].resident = false;
            self.resident -= 1;
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_head(&mut self, slot: u32) {
        let old = self.head;
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n)
    }

    fn page(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn first_references_are_compulsory() {
        let mut c = MissClassifier::new(4);
        assert_eq!(c.access(pid(1), page(0), true), Some(MissKind::Compulsory));
        assert_eq!(c.access(pid(1), page(1), true), Some(MissKind::Compulsory));
        // Same page of a different process is its own first reference.
        assert_eq!(c.access(pid(2), page(0), true), Some(MissKind::Compulsory));
        assert_eq!(c.breakdown().compulsory, 3);
    }

    #[test]
    fn hits_are_not_classified() {
        let mut c = MissClassifier::new(4);
        c.access(pid(1), page(0), true);
        assert_eq!(c.access(pid(1), page(0), false), None);
        assert_eq!(c.breakdown().total(), 1);
    }

    #[test]
    fn repeat_miss_within_small_working_set_is_conflict() {
        let mut c = MissClassifier::new(8);
        c.access(pid(1), page(0), true); // compulsory
        c.access(pid(1), page(1), true); // compulsory
                                         // Page 0 is still in the 8-deep shadow; a real miss must be conflict.
        assert_eq!(c.access(pid(1), page(0), true), Some(MissKind::Conflict));
        assert_eq!(c.breakdown().conflict, 1);
    }

    #[test]
    fn cyclic_sweep_larger_than_shadow_is_capacity() {
        let mut c = MissClassifier::new(4);
        // Sweep 8 pages twice; second-pass misses exceed shadow capacity.
        for _ in 0..2 {
            for v in 0..8 {
                c.access(pid(1), page(v), true);
            }
        }
        let b = c.breakdown();
        assert_eq!(b.compulsory, 8);
        assert_eq!(b.capacity, 8, "second pass entirely capacity");
        assert_eq!(b.conflict, 0);
    }

    #[test]
    fn shadow_lru_respects_recency() {
        let mut c = MissClassifier::new(2);
        c.access(pid(1), page(0), true);
        c.access(pid(1), page(1), true);
        c.access(pid(1), page(0), false); // refresh 0 → LRU is 1
        c.access(pid(1), page(2), true); // evicts 1 from shadow
                                         // Page 0 survived in the shadow → a real miss on it is conflict.
        assert_eq!(c.access(pid(1), page(0), true), Some(MissKind::Conflict));
        // Page 1 was evicted → capacity.
        assert_eq!(c.access(pid(1), page(1), true), Some(MissKind::Capacity));
    }

    #[test]
    fn repeated_touches_do_not_evict_refreshed_keys() {
        let mut c = MissClassifier::new(2);
        c.access(pid(1), page(0), true);
        // Touch page 0 many times while it is already the most recent.
        for _ in 0..10 {
            c.access(pid(1), page(0), false);
        }
        c.access(pid(1), page(1), true);
        c.access(pid(1), page(0), false); // 0 is again the most recent
        c.access(pid(1), page(2), true); // must evict 1, not the stale 0
        assert_eq!(c.access(pid(1), page(0), true), Some(MissKind::Conflict));
        assert_eq!(c.access(pid(1), page(1), true), Some(MissKind::Capacity));
    }

    /// A working set smaller than the shadow never triggers eviction. The
    /// classifier's memory must still stay one slot per distinct key however
    /// many accesses it sees — a 100 M-lookup streamed run must not grow it.
    #[test]
    fn slots_stay_bounded_when_working_set_fits_the_shadow() {
        let mut c = MissClassifier::new(8192);
        for i in 0..200_000u64 {
            c.access(pid(1), page(i % 64), i % 64 == i);
        }
        assert_eq!(c.index.len(), 64, "one index entry per distinct key");
        assert_eq!(c.slots.len(), 64, "one slot per distinct key");
        let resident = c.slots.iter().filter(|s| s.resident).count();
        assert_eq!(resident, c.resident);
        assert!(resident <= c.capacity, "{resident} resident keys");
        // Classification is unaffected: all 64 pages are resident, so a
        // real miss on any of them is a conflict, and the breakdown saw
        // exactly the 64 compulsory misses.
        assert_eq!(c.access(pid(1), page(3), true), Some(MissKind::Conflict));
        assert_eq!(c.breakdown().compulsory, 64);
        assert_eq!(c.breakdown().capacity, 0);
    }

    #[test]
    fn rates_normalize_by_lookups() {
        let b = MissBreakdown {
            compulsory: 10,
            capacity: 5,
            conflict: 5,
        };
        let (c, cap, conf) = b.rates(100);
        assert_eq!((c, cap, conf), (0.10, 0.05, 0.05));
        assert_eq!(b.rates(0), (0.0, 0.0, 0.0));
        assert_eq!(b.total(), 20);
    }
}
