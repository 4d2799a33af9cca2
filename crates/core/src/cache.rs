//! The Shared UTLB-Cache (paper §3.2).
//!
//! One translation cache on the NIC shared by all processes. Each line is
//! tagged with the owning process and (for Hierarchical-UTLB) the virtual
//! page it translates. The cache is parameterized exactly along the axes the
//! paper studies (§6.3, Table 8):
//!
//! * **size** — 1 K to 16 K entries,
//! * **associativity** — direct-mapped, 2-way, 4-way, with LRU within a set,
//! * **index offsetting** — adding a process-dependent constant to the index
//!   so that simultaneous processes hash to different cache regions
//!   ("direct" vs "direct-nohash" rows of Table 8).
//!
//! Because the firmware checks set entries serially (no parallel tag match
//! in software), lookups report how many lines they probed, letting the cost
//! model reproduce why "set-associative caches lose to the direct-map cache"
//! once lookup cost is considered.

use crate::bitvec::DenseBits;
use serde::{Deserialize, Serialize};
use utlb_mem::{IntMap, PhysAddr, ProcessId, VirtPage};

/// Cache associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Associativity {
    /// Direct-mapped (the paper's choice for the real implementation).
    #[default]
    Direct,
    /// Two-way set-associative.
    TwoWay,
    /// Four-way set-associative.
    FourWay,
}

impl Associativity {
    /// Number of ways.
    pub const fn ways(self) -> usize {
        match self {
            Associativity::Direct => 1,
            Associativity::TwoWay => 2,
            Associativity::FourWay => 4,
        }
    }

    /// All variants, for sweeps.
    pub const ALL: [Associativity; 3] = [
        Associativity::Direct,
        Associativity::TwoWay,
        Associativity::FourWay,
    ];
}

impl std::fmt::Display for Associativity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Associativity::Direct => f.write_str("direct"),
            Associativity::TwoWay => f.write_str("2-way"),
            Associativity::FourWay => f.write_str("4-way"),
        }
    }
}

/// Shared UTLB-Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total line count; must be a multiple of the way count.
    pub entries: usize,
    /// Set associativity.
    pub associativity: Associativity,
    /// Whether to offset indices by a process-dependent constant.
    pub offsetting: bool,
}

impl CacheConfig {
    /// A direct-mapped cache with offsetting — the paper's deployed choice.
    pub fn direct(entries: usize) -> Self {
        CacheConfig {
            entries,
            associativity: Associativity::Direct,
            offsetting: true,
        }
    }
}

impl Default for CacheConfig {
    /// The implementation's 8 K-entry (32 KB) direct-mapped cache (§4.2).
    fn default() -> Self {
        CacheConfig::direct(8192)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    pid: ProcessId,
    vpn: u64,
    phys: PhysAddr,
    last_use: u64,
}

/// End of a per-process line list.
const NIL: u32 = u32::MAX;

/// A line's neighbours in its process' line list: `[prev, next]`.
type Link = [u32; 2];

/// Identity of a cache line, reported on eviction so callers (the
/// interrupt-based baseline unpins on eviction) can react.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Process owning the evicted translation.
    pub pid: ProcessId,
    /// The evicted virtual page.
    pub page: VirtPage,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found their translation.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Total lines probed (serial tag checks by the firmware).
    pub probes: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in [0, 1]; 0 when no lookups happened.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }
}

/// The Shared UTLB-Cache.
///
/// Lines live in one contiguous array indexed `set * ways + way`, with a
/// packed validity bit per line ([`DenseBits`]): the layout the real
/// firmware uses for its SRAM line array. Compared to a vec-of-vecs of
/// `Option<Line>`, a probe is a single indexed load plus a bit test — no
/// pointer chase per set, no discriminant per way — and construction is one
/// allocation regardless of geometry.
///
/// Each process' valid lines are also threaded on a doubly linked list
/// (links kept beside the lines, so the probe path never loads them), so
/// process exit and the per-process occupancy walk only the lines that
/// process holds instead of the whole array. The list order reaches no
/// result: both walks only clear or count.
#[derive(Debug)]
pub struct SharedUtlbCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    valid: DenseBits,
    /// `links[ix]`: line `ix`'s neighbours in its owner's list, meaningful
    /// only while the line is valid.
    links: Vec<Link>,
    /// First line of each process holding at least one valid line.
    heads: IntMap<ProcessId, u32>,
    num_sets: usize,
    ways: usize,
    /// `num_sets - 1` when the set count is a power of two, letting
    /// `set_index` mask instead of divide (every paper geometry qualifies;
    /// odd set counts fall back to modulo).
    set_mask: Option<u64>,
    tick: u64,
    stats: CacheStats,
}

impl SharedUtlbCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not divisible by the way count.
    pub fn new(cfg: CacheConfig) -> Self {
        let ways = cfg.associativity.ways();
        assert!(cfg.entries > 0, "cache must have at least one entry");
        assert!(
            cfg.entries.is_multiple_of(ways),
            "entries {} not divisible by ways {ways}",
            cfg.entries
        );
        let num_sets = cfg.entries / ways;
        let placeholder = Line {
            pid: ProcessId::new(0),
            vpn: 0,
            phys: PhysAddr::new(0),
            last_use: 0,
        };
        assert!(
            u32::try_from(cfg.entries).is_ok_and(|n| n < NIL),
            "cache of {} entries exceeds the line list's index range",
            cfg.entries
        );
        SharedUtlbCache {
            cfg,
            lines: vec![placeholder; cfg.entries],
            valid: DenseBits::zeros(cfg.entries),
            links: vec![[NIL, NIL]; cfg.entries],
            heads: IntMap::default(),
            num_sets,
            ways,
            set_mask: num_sets.is_power_of_two().then_some(num_sets as u64 - 1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The process-dependent index offset (§3.2: "offset a translation
    /// table index by a process-dependent constant").
    fn offset(&self, pid: ProcessId) -> u64 {
        if self.cfg.offsetting {
            // Fibonacci hashing: the offset is `num_sets · frac(pid · φ)`,
            // computed in 64.64 fixed point. The golden-ratio sequence is
            // low-discrepancy, so the first k processes land near-optimally
            // spread through index space *for every k* — a random hash
            // instead birthday-collides (two of five processes a few sets
            // apart) and recreates exactly the SPMD thrashing the offset
            // exists to break.
            let frac = (pid.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((frac as u128 * self.num_sets as u128) >> 64) as u64
        } else {
            0
        }
    }

    #[inline]
    fn set_index(&self, pid: ProcessId, page: VirtPage) -> usize {
        let hashed = page.number().wrapping_add(self.offset(pid));
        match self.set_mask {
            Some(mask) => (hashed & mask) as usize,
            None => (hashed % self.num_sets as u64) as usize,
        }
    }

    /// First line index of the set holding `(pid, page)`.
    #[inline]
    fn set_base(&self, pid: ProcessId, page: VirtPage) -> usize {
        self.set_index(pid, page) * self.ways
    }

    /// Pushes line `ix` onto the front of `pid`'s line list.
    fn link(&mut self, ix: usize, pid: ProcessId) {
        let ix32 = ix as u32;
        let head = self.heads.insert(pid, ix32).unwrap_or(NIL);
        self.links[ix] = [NIL, head];
        if head != NIL {
            self.links[head as usize][0] = ix32;
        }
    }

    /// Takes line `ix` off `pid`'s line list.
    fn unlink(&mut self, ix: usize, pid: ProcessId) {
        let [prev, next] = self.links[ix];
        if next != NIL {
            self.links[next as usize][0] = prev;
        }
        if prev != NIL {
            self.links[prev as usize][1] = next;
        } else if next != NIL {
            self.heads.insert(pid, next);
        } else {
            self.heads.remove(&pid);
        }
    }

    /// Looks up the translation of `(pid, page)`.
    ///
    /// Returns the physical address on a hit and bumps the line's LRU state.
    pub fn lookup(&mut self, pid: ProcessId, page: VirtPage) -> Option<PhysAddr> {
        self.tick += 1;
        let base = self.set_base(pid, page);
        let tick = self.tick;
        let vpn = page.number();
        // The firmware checks ways serially, so the probe count is the
        // position of the hit (or the full width on a miss) — invalid ways
        // still cost a tag check.
        for way in 0..self.ways {
            let ix = base + way;
            if self.valid.get(ix) {
                let line = &mut self.lines[ix];
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

    /// Checks for `(pid, page)` without touching statistics or LRU state —
    /// used by shadow structures (e.g. the invalidation path).
    pub fn peek(&self, pid: ProcessId, page: VirtPage) -> Option<PhysAddr> {
        let base = self.set_base(pid, page);
        let vpn = page.number();
        (base..base + self.ways)
            .filter(|&ix| self.valid.get(ix))
            .map(|ix| &self.lines[ix])
            .find(|l| l.pid == pid && l.vpn == vpn)
            .map(|l| l.phys)
    }

    /// Inserts (or refreshes) the translation of `(pid, page)`.
    ///
    /// Returns the line evicted to make room, if any. Inserting a line that
    /// is already present refreshes its payload without eviction.
    pub fn insert(&mut self, pid: ProcessId, page: VirtPage, phys: PhysAddr) -> Option<Evicted> {
        self.tick += 1;
        let base = self.set_base(pid, page);
        let tick = self.tick;
        let vpn = page.number();

        // Refresh an existing line.
        for ix in base..base + self.ways {
            if self.valid.get(ix) {
                let line = &mut self.lines[ix];
                if line.pid == pid && line.vpn == vpn {
                    line.phys = phys;
                    line.last_use = tick;
                    return None;
                }
            }
        }
        let new_line = Line {
            pid,
            vpn,
            phys,
            last_use: tick,
        };
        // Fill an invalid way.
        if let Some(ix) = self.valid.first_zero_in(base, base + self.ways) {
            self.lines[ix] = new_line;
            self.valid.set(ix);
            self.link(ix, pid);
            return None;
        }
        // Evict the LRU way.
        let victim_ix = (base..base + self.ways)
            .min_by_key(|&ix| self.lines[ix].last_use)
            .expect("set has at least one way");
        let victim = std::mem::replace(&mut self.lines[victim_ix], new_line);
        if victim.pid != pid {
            self.unlink(victim_ix, victim.pid);
            self.link(victim_ix, pid);
        }
        self.stats.evictions += 1;
        Some(Evicted {
            pid: victim.pid,
            page: VirtPage::new(victim.vpn),
        })
    }

    /// Removes the translation of `(pid, page)` if cached (consistency on
    /// unpin: the host-side table entry went back to garbage, so the cached
    /// copy must die too). Returns whether a line was removed.
    pub fn invalidate(&mut self, pid: ProcessId, page: VirtPage) -> bool {
        let base = self.set_base(pid, page);
        let vpn = page.number();
        for ix in base..base + self.ways {
            if self.valid.get(ix) && self.lines[ix].pid == pid && self.lines[ix].vpn == vpn {
                self.valid.clear(ix);
                self.unlink(ix, pid);
                return true;
            }
        }
        false
    }

    /// Removes every line belonging to `pid` (process exit). Returns the
    /// number of lines dropped. Walks only `pid`'s own lines.
    pub fn invalidate_process(&mut self, pid: ProcessId) -> usize {
        let mut dropped = 0;
        let mut ix = self.heads.remove(&pid).unwrap_or(NIL);
        while ix != NIL {
            self.valid.clear(ix as usize);
            ix = self.links[ix as usize][1];
            dropped += 1;
        }
        dropped
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid.count_ones()
    }

    /// Number of valid lines belonging to `pid` — the per-process share of
    /// the shared cache an observability export reports.
    pub fn occupancy_for(&self, pid: ProcessId) -> usize {
        let mut held = 0;
        let mut ix = self.heads.get(&pid).copied().unwrap_or(NIL);
        while ix != NIL {
            ix = self.links[ix as usize][1];
            held += 1;
        }
        held
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

    fn pa(n: u64) -> PhysAddr {
        PhysAddr::new(n)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = SharedUtlbCache::new(CacheConfig::direct(16));
        assert_eq!(c.lookup(pid(1), page(3)), None);
        c.insert(pid(1), page(3), pa(0x3000));
        assert_eq!(c.lookup(pid(1), page(3)), Some(pa(0x3000)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.miss_rate(), 0.5);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = SharedUtlbCache::new(CacheConfig {
            entries: 4,
            associativity: Associativity::Direct,
            offsetting: false,
        });
        c.insert(pid(1), page(0), pa(0x0));
        let evicted = c.insert(pid(1), page(4), pa(0x4000)); // same set: 4 % 4 == 0
        assert_eq!(
            evicted,
            Some(Evicted {
                pid: pid(1),
                page: page(0)
            })
        );
        assert_eq!(c.lookup(pid(1), page(0)), None);
        assert_eq!(c.lookup(pid(1), page(4)), Some(pa(0x4000)));
    }

    #[test]
    fn two_way_avoids_the_direct_conflict() {
        let mut c = SharedUtlbCache::new(CacheConfig {
            entries: 4,
            associativity: Associativity::TwoWay,
            offsetting: false,
        });
        // 2 sets; pages 0 and 2 share set 0 but occupy different ways.
        assert!(c.insert(pid(1), page(0), pa(0x0)).is_none());
        assert!(c.insert(pid(1), page(2), pa(0x2000)).is_none());
        assert_eq!(c.lookup(pid(1), page(0)), Some(pa(0x0)));
        assert_eq!(c.lookup(pid(1), page(2)), Some(pa(0x2000)));
        // Third conflicting page evicts the LRU (page 0 was used more
        // recently via lookup, so inserting page 4 evicts... page 0 was
        // looked up first, page 2 second; LRU is page 0).
        let evicted = c.insert(pid(1), page(4), pa(0x4000)).unwrap();
        assert_eq!(evicted.page, page(0));
    }

    #[test]
    fn lru_within_set_respects_recency() {
        let mut c = SharedUtlbCache::new(CacheConfig {
            entries: 2,
            associativity: Associativity::TwoWay,
            offsetting: false,
        });
        c.insert(pid(1), page(10), pa(0xA000));
        c.insert(pid(1), page(11), pa(0xB000));
        c.lookup(pid(1), page(10)); // refresh 10; 11 becomes LRU
        let evicted = c.insert(pid(1), page(12), pa(0xC000)).unwrap();
        assert_eq!(evicted.page, page(11));
    }

    #[test]
    fn offsetting_separates_processes_with_identical_footprints() {
        // Two processes touching the same vpns: without offsetting they
        // fight for the same lines; with offsetting they coexist.
        let run = |offsetting: bool| {
            let mut c = SharedUtlbCache::new(CacheConfig {
                entries: 64,
                associativity: Associativity::Direct,
                offsetting,
            });
            // Interleaved accesses, twice over.
            for _ in 0..2 {
                for v in 0..32 {
                    for p in [1u32, 2] {
                        if c.lookup(pid(p), page(v)).is_none() {
                            c.insert(pid(p), page(v), pa(v << 12));
                        }
                    }
                }
            }
            c.stats().miss_rate()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without,
            "offsetting should cut conflict misses: with={with} without={without}"
        );
    }

    #[test]
    fn probes_scale_with_associativity() {
        let mut direct = SharedUtlbCache::new(CacheConfig {
            entries: 16,
            associativity: Associativity::Direct,
            offsetting: false,
        });
        let mut four = SharedUtlbCache::new(CacheConfig {
            entries: 16,
            associativity: Associativity::FourWay,
            offsetting: false,
        });
        for v in 0..16 {
            direct.insert(pid(1), page(v), pa(v));
            four.insert(pid(1), page(v), pa(v));
        }
        for v in 0..16 {
            direct.lookup(pid(1), page(v));
            four.lookup(pid(1), page(v));
        }
        assert!(
            four.stats().probes > direct.stats().probes,
            "serial tag checks make wide sets slower"
        );
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SharedUtlbCache::new(CacheConfig::direct(8));
        c.insert(pid(1), page(1), pa(0x1000));
        assert!(c.invalidate(pid(1), page(1)));
        assert!(!c.invalidate(pid(1), page(1)));
        assert_eq!(c.lookup(pid(1), page(1)), None);
    }

    #[test]
    fn invalidate_process_sweeps_all_lines() {
        let mut c = SharedUtlbCache::new(CacheConfig::direct(64));
        for v in 0..10 {
            c.insert(pid(1), page(v), pa(v));
            c.insert(pid(2), page(v), pa(v));
        }
        assert_eq!(c.invalidate_process(pid(1)), 10);
        assert_eq!(c.occupancy(), 10);
        assert_eq!(c.peek(pid(2), page(3)), Some(pa(3)));
        assert_eq!(c.peek(pid(1), page(3)), None);
    }

    #[test]
    fn invalidate_process_after_cross_process_evictions() {
        let mut c = SharedUtlbCache::new(CacheConfig {
            entries: 4,
            associativity: Associativity::Direct,
            offsetting: false,
        });
        for v in 0..4 {
            c.insert(pid(1), page(v), pa(v));
        }
        // pid 2 takes over the lines of pid 1's pages 0 and 1.
        c.insert(pid(2), page(4), pa(4));
        c.insert(pid(2), page(5), pa(5));
        assert_eq!((c.occupancy_for(pid(1)), c.occupancy_for(pid(2))), (2, 2));
        assert!(c.invalidate(pid(1), page(2)));
        assert_eq!(c.invalidate_process(pid(1)), 1);
        assert_eq!(c.occupancy_for(pid(2)), 2);
        assert_eq!(c.peek(pid(2), page(5)), Some(pa(5)));
        assert_eq!(c.invalidate_process(pid(2)), 2);
        assert_eq!(c.invalidate_process(pid(2)), 0);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn insert_refresh_does_not_evict() {
        let mut c = SharedUtlbCache::new(CacheConfig::direct(4));
        c.insert(pid(1), page(0), pa(0x1));
        assert!(c.insert(pid(1), page(0), pa(0x2)).is_none());
        assert_eq!(c.peek(pid(1), page(0)), Some(pa(0x2)));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn default_config_matches_paper_implementation() {
        let c = SharedUtlbCache::new(CacheConfig::default());
        assert_eq!(c.config().entries, 8192);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        SharedUtlbCache::new(CacheConfig {
            entries: 6,
            associativity: Associativity::FourWay,
            offsetting: false,
        });
    }

    #[test]
    fn occupancy_for_counts_one_process_share() {
        // No offsetting, so line indices are just `page % 16` and the two
        // processes cannot collide.
        let mut c = SharedUtlbCache::new(CacheConfig {
            entries: 16,
            associativity: Associativity::Direct,
            offsetting: false,
        });
        for v in 0..3 {
            c.insert(pid(1), page(v), pa(v));
        }
        c.insert(pid(2), page(8), pa(8));
        assert_eq!(c.occupancy_for(pid(1)), 3);
        assert_eq!(c.occupancy_for(pid(2)), 1);
        assert_eq!(c.occupancy_for(pid(9)), 0);
        assert_eq!(c.occupancy(), 4);
        c.invalidate_process(pid(1));
        assert_eq!(c.occupancy_for(pid(1)), 0);
    }
}
