//! The flat-array Shared UTLB-Cache against a nested-`Vec` reference model.
//!
//! The cache's storage was reworked from `Vec<Vec<Option<Line>>>` (one inner
//! vec per set) to one contiguous line array with a packed validity bitmap.
//! This test keeps the *old* representation alive as an executable spec and
//! drives both through random geometries and operation sequences, asserting
//! every observable — hit/miss results, eviction identities, invalidation
//! results, probe/hit/miss/eviction counters, occupancy — stays identical.
//! The per-process line lists behind `invalidate_process` and
//! `occupancy_for` are checked the same way: every process' share is
//! compared after every step, while evictions move lines between processes.

use proptest::prelude::*;
use utlb_core::{Associativity, CacheConfig, CacheStats, Evicted, SharedUtlbCache};
use utlb_mem::{PhysAddr, ProcessId, VirtPage};

#[derive(Clone, Copy)]
struct RefLine {
    pid: ProcessId,
    vpn: u64,
    phys: PhysAddr,
    last_use: u64,
}

/// The pre-rework cache, verbatim: a vec of sets, each a vec of optional
/// lines, indexed by modulo (no power-of-two masking).
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Option<RefLine>>>,
    num_sets: usize,
    ways: usize,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let ways = cfg.associativity.ways();
        let num_sets = cfg.entries / ways;
        RefCache {
            cfg,
            sets: vec![vec![None; ways]; num_sets],
            num_sets,
            ways,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn offset(&self, pid: ProcessId) -> u64 {
        if self.cfg.offsetting {
            let frac = u64::from(pid.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((u128::from(frac) * self.num_sets as u128) >> 64) as u64
        } else {
            0
        }
    }

    fn set_index(&self, pid: ProcessId, page: VirtPage) -> usize {
        let hashed = page.number().wrapping_add(self.offset(pid));
        (hashed % self.num_sets as u64) as usize
    }

    fn lookup(&mut self, pid: ProcessId, page: VirtPage) -> Option<PhysAddr> {
        self.tick += 1;
        let six = self.set_index(pid, page);
        let tick = self.tick;
        let vpn = page.number();
        for (way, slot) in self.sets[six].iter_mut().enumerate() {
            if let Some(line) = slot {
                if line.pid == pid && line.vpn == vpn {
                    line.last_use = tick;
                    self.stats.probes += way as u64 + 1;
                    self.stats.hits += 1;
                    return Some(line.phys);
                }
            }
        }
        self.stats.probes += self.ways as u64;
        self.stats.misses += 1;
        None
    }

    fn insert(&mut self, pid: ProcessId, page: VirtPage, phys: PhysAddr) -> Option<Evicted> {
        self.tick += 1;
        let six = self.set_index(pid, page);
        let tick = self.tick;
        let vpn = page.number();
        for line in self.sets[six].iter_mut().flatten() {
            if line.pid == pid && line.vpn == vpn {
                line.phys = phys;
                line.last_use = tick;
                return None;
            }
        }
        let new_line = RefLine {
            pid,
            vpn,
            phys,
            last_use: tick,
        };
        if let Some(slot) = self.sets[six].iter_mut().find(|s| s.is_none()) {
            *slot = Some(new_line);
            return None;
        }
        let victim_slot = self.sets[six]
            .iter_mut()
            .min_by_key(|s| s.as_ref().expect("set is full").last_use)
            .expect("set has at least one way");
        let victim = victim_slot.replace(new_line).expect("set is full");
        self.stats.evictions += 1;
        Some(Evicted {
            pid: victim.pid,
            page: VirtPage::new(victim.vpn),
        })
    }

    fn invalidate(&mut self, pid: ProcessId, page: VirtPage) -> bool {
        let six = self.set_index(pid, page);
        let vpn = page.number();
        for slot in self.sets[six].iter_mut() {
            if let Some(line) = slot {
                if line.pid == pid && line.vpn == vpn {
                    *slot = None;
                    return true;
                }
            }
        }
        false
    }

    fn invalidate_process(&mut self, pid: ProcessId) -> usize {
        let mut dropped = 0;
        for set in self.sets.iter_mut() {
            for slot in set.iter_mut() {
                if slot.map(|l| l.pid == pid).unwrap_or(false) {
                    *slot = None;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.is_some()).count())
            .sum()
    }

    fn occupancy_for(&self, pid: ProcessId) -> usize {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .filter(|l| l.pid == pid)
            .count()
    }
}

fn any_assoc() -> impl Strategy<Value = Associativity> {
    prop_oneof![
        Just(Associativity::Direct),
        Just(Associativity::TwoWay),
        Just(Associativity::FourWay),
    ]
}

/// Set counts covering both index paths: powers of two (mask) and not
/// (modulo fallback).
const SET_COUNTS: [usize; 6] = [1, 2, 3, 7, 8, 16];

proptest! {
    /// Every observable of the flat cache matches the nested-`Vec` model
    /// over random geometries and hit/miss/evict/invalidate sequences.
    #[test]
    fn flat_cache_matches_nested_vec_reference(
        sets_ix in 0usize..6,
        assoc in any_assoc(),
        offsetting in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, 1u32..4, 0u64..96), 1..250),
    ) {
        let cfg = CacheConfig {
            entries: SET_COUNTS[sets_ix] * assoc.ways(),
            associativity: assoc,
            offsetting,
        };
        let mut flat = SharedUtlbCache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (op, pid_raw, vpn) in ops {
            let pid = ProcessId::new(pid_raw);
            let page = VirtPage::new(vpn);
            let phys = PhysAddr::new((u64::from(pid_raw) << 32) | (vpn << 12));
            match op {
                // The common drive pattern: look up, fill on miss.
                0..=3 => {
                    let got = flat.lookup(pid, page);
                    prop_assert_eq!(got, reference.lookup(pid, page));
                    if got.is_none() {
                        prop_assert_eq!(
                            flat.insert(pid, page, phys),
                            reference.insert(pid, page, phys)
                        );
                    }
                }
                4 | 5 => {
                    prop_assert_eq!(
                        flat.insert(pid, page, phys),
                        reference.insert(pid, page, phys)
                    );
                }
                6 => {
                    prop_assert_eq!(
                        flat.invalidate(pid, page),
                        reference.invalidate(pid, page)
                    );
                }
                _ => {
                    prop_assert_eq!(
                        flat.invalidate_process(pid),
                        reference.invalidate_process(pid)
                    );
                }
            }
            prop_assert_eq!(flat.stats(), reference.stats);
            prop_assert_eq!(flat.occupancy(), reference.occupancy());
            for other in 0..5 {
                let other = ProcessId::new(other);
                prop_assert_eq!(flat.occupancy_for(other), reference.occupancy_for(other));
            }
            prop_assert_eq!(flat.peek(pid, page), {
                let six = reference.set_index(pid, page);
                reference.sets[six]
                    .iter()
                    .flatten()
                    .find(|l| l.pid == pid && l.vpn == page.number())
                    .map(|l| l.phys)
            });
        }
    }
}
