//! The Shared UTLB-Cache over index-keyed tables — Figure 3's design (§3.2).
//!
//! This is the middle design point between the per-process UTLB (§3.1) and
//! Hierarchical-UTLB (§3.3): each process keeps a *flat, fixed-size*
//! translation table, but in **host memory** rather than NIC SRAM, and the
//! NIC caches entries in the Shared UTLB-Cache keyed by `(process, table
//! index)` — the cache line carries "the process ID and part of the
//! translation table index" (Figure 3's line format). The user process
//! still chooses slots and passes indices with each request, via the
//! two-level [`UserLookupTree`].
//!
//! What Hierarchical-UTLB later fixes is visible here by construction:
//! *fragmentation* — after churn, a contiguous buffer's translations sit at
//! scattered indices, so index-neighbourhood prefetching loses its meaning
//! and the free list must be managed.

use crate::batch::{page_run_methods, HitPath};
use crate::lookup::{UserLookupTree, UtlbIndex};
use crate::obs::{Event, EvictReason, ProbeSlot};
use crate::pincore::{charge_us, probe_stats_accessors, PinCore};
use crate::policy::Policy;
use crate::{
    CacheConfig, CacheStats, CostModel, OutcomeBuf, PageOutcome, Result, SharedUtlbCache,
    TranslationMechanism, UtlbError,
};
use utlb_mem::{FrameId, Host, IntMap, PhysAddr, ProcessId, VirtPage, PAGE_SIZE};
use utlb_nic::{Board, Nanos};

/// Configuration of an [`IndexedEngine`].
#[derive(Debug, Clone)]
pub struct IndexedConfig {
    /// Shared UTLB-Cache geometry.
    pub cache: CacheConfig,
    /// Translation-table entries per process (Figure 3 draws 8192).
    pub table_entries: usize,
    /// Replacement policy for table slots under capacity pressure.
    pub policy: Policy,
    /// Cost model charged to the board clock.
    pub cost: CostModel,
    /// Seed for the RANDOM policy.
    pub seed: u64,
}

impl Default for IndexedConfig {
    fn default() -> Self {
        IndexedConfig {
            cache: CacheConfig::default(),
            table_entries: 8192,
            policy: Policy::Lru,
            cost: CostModel::default(),
            seed: 0xF163,
        }
    }
}

#[derive(Debug)]
struct ProcState {
    /// Host frames backing the flat translation table.
    table_frames: Vec<FrameId>,
    tree: UserLookupTree,
    /// Which vpn occupies each slot (for eviction bookkeeping).
    slot_owner: IntMap<u32, VirtPage>,
    free: Vec<u32>,
    core: PinCore,
}

/// The §3.2 engine: host-resident index-keyed tables + shared NIC cache.
#[derive(Debug)]
pub struct IndexedEngine {
    cfg: IndexedConfig,
    cache: SharedUtlbCache,
    procs: IntMap<ProcessId, ProcState>,
    probe: ProbeSlot,
}

const ENTRIES_PER_FRAME: usize = (PAGE_SIZE / 8) as usize;

impl IndexedEngine {
    /// Creates an engine.
    pub fn new(cfg: IndexedConfig) -> Self {
        let cache = SharedUtlbCache::new(cfg.cache);
        IndexedEngine {
            cfg,
            cache,
            procs: IntMap::default(),
            probe: ProbeSlot::detached(),
        }
    }

    /// The shared NIC cache.
    pub fn cache(&self) -> &SharedUtlbCache {
        &self.cache
    }

    /// Host physical address of table entry `index`.
    fn entry_addr(state: &ProcState, index: UtlbIndex) -> PhysAddr {
        let frame = state.table_frames[index.0 as usize / ENTRIES_PER_FRAME];
        frame
            .base()
            .offset((index.0 as usize % ENTRIES_PER_FRAME) as u64 * 8)
    }

    /// Fraction of the occupied slots whose table index neighbourhood does
    /// not match their virtual-page neighbourhood — the *fragmentation* that
    /// §3.3 cites as a reason to move to Hierarchical-UTLB. 0.0 means every
    /// occupied slot's successor slot holds the next virtual page.
    pub fn fragmentation(&self, pid: ProcessId) -> Result<f64> {
        let state = self
            .procs
            .get(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        let occupied: Vec<(u32, VirtPage)> = {
            let mut v: Vec<_> = state.slot_owner.iter().map(|(s, p)| (*s, *p)).collect();
            v.sort_by_key(|(s, _)| *s);
            v
        };
        if occupied.len() < 2 {
            return Ok(0.0);
        }
        let broken = occupied
            .windows(2)
            .filter(|w| {
                let ((s0, p0), (s1, p1)) = (w[0], w[1]);
                s1 == s0 + 1 && p1.number() != p0.number() + 1
            })
            .count();
        let adjacent = occupied.windows(2).filter(|w| w[1].0 == w[0].0 + 1).count();
        if adjacent == 0 {
            return Ok(0.0);
        }
        Ok(broken as f64 / adjacent as f64)
    }
}

/// Pure hits are the pages whose index the user-level tree maps (its leaf
/// slice resolved once per run, [`UserLookupTree::leaf`]) *and* whose
/// `(pid, index)` line a stats-free cache peek finds.
impl HitPath for IndexedEngine {
    fn registered(&self, pid: ProcessId) -> bool {
        self.procs.contains_key(&pid)
    }

    fn hit_charge(&self) -> Nanos {
        Nanos::from_micros(self.cfg.cost.user_check_us)
            + Nanos::from_micros(self.cfg.cost.ni_check_us)
    }

    /// Translates one page of a registered process: user-level tree lookup
    /// for the index, then a Shared UTLB-Cache probe keyed by
    /// `(pid, index)`, with a host-table DMA on a miss.
    fn lookup_page(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PageOutcome> {
        // Destructure so the process state, the shared cache, and the probe
        // are disjoint borrows for the whole miss path.
        let IndexedEngine {
            cfg,
            cache,
            procs,
            probe,
        } = self;
        let cost = &cfg.cost;
        let t0 = board.clock.now();
        let probe_on = probe.is_attached();
        let mut events: Vec<Event> = Vec::new();
        let mut sink = |ev: Event| {
            if probe_on {
                events.push(ev);
            }
        };
        let state = procs.get_mut(&pid).expect("checked by caller");
        state.core.stats.lookups += 1;

        // User level: vpn → index (two memory references).
        charge_us(board, cost.user_check_us);
        let (index, check_miss) = match state.tree.lookup(page) {
            Some(ix) => (ix, false),
            None => {
                state.core.stats.check_misses += 1;
                sink(Event::CheckMiss);
                // Claim a slot, evicting under capacity pressure.
                let slot =
                    loop {
                        if let Some(s) = state.free.pop() {
                            break UtlbIndex(s);
                        }
                        let victim = state.core.pinned.select_victims(1).pop().ok_or(
                            UtlbError::TableFull {
                                pid,
                                capacity: cfg.table_entries,
                            },
                        )?;
                        let victim_ix = state
                            .tree
                            .invalidate(victim)
                            .expect("pinned pages are indexed");
                        let addr = Self::entry_addr(state, victim_ix);
                        let garbage = host.driver().garbage_addr().raw();
                        host.physical_mut().write_u64(addr, garbage)?;
                        cache.invalidate(pid, VirtPage::new(victim_ix.0 as u64));
                        state.core.unpin(
                            host,
                            board,
                            pid,
                            victim,
                            cost.unpin_cost(1),
                            EvictReason::TableFull,
                            &mut sink,
                        )?;
                        state.slot_owner.remove(&victim_ix.0);
                        state.free.push(victim_ix.0);
                    };
                // Pin and install at the chosen slot.
                let pinned =
                    state
                        .core
                        .pin(host, board, pid, page, 1, cost.pin_cost(1), &mut sink)?;
                let addr = Self::entry_addr(state, slot);
                host.physical_mut()
                    .write_u64(addr, pinned[0].phys_addr().raw())?;
                state.tree.install(page, slot);
                state.slot_owner.insert(slot.0, page);
                (slot, true)
            }
        };
        state.core.pinned.touch(page);

        // NIC level: the cache is keyed by the *index*, not the vpn
        // (Figure 3's "UTLB index tag" + "process tag" line format).
        charge_us(board, cost.ni_check_us);
        let key = VirtPage::new(index.0 as u64);
        let (phys, ni_miss) = match cache.lookup(pid, key) {
            Some(phys) => (phys, false),
            None => {
                // Miss: DMA the entry from the host-resident table.
                state.core.stats.ni_misses += 1;
                state.core.stats.entries_fetched += 1;
                let addr = Self::entry_addr(state, index);
                let Board { dma, clock, .. } = board;
                let (words, dma_cost) = dma.fetch_words_timed(clock, host.physical(), addr, 1)?;
                let phys = PhysAddr::new(words[0]);
                if cache.insert(pid, key, phys).is_some() {
                    sink(Event::Evict {
                        reason: EvictReason::CacheConflict,
                    });
                }
                sink(Event::NiMiss);
                sink(Event::DmaFetch {
                    entries: 1,
                    ns: dma_cost.as_nanos(),
                });
                (phys, true)
            }
        };
        if probe_on {
            for ev in events {
                probe.emit(pid, ev);
            }
            let ns = (board.clock.now() - t0).as_nanos();
            probe.emit(pid, Event::Lookup { ns });
        }
        Ok(PageOutcome {
            page,
            phys,
            check_miss,
            ni_miss,
        })
    }

    #[inline]
    fn hit_prefix(
        &mut self,
        _board: &Board,
        pid: ProcessId,
        start: VirtPage,
        max: u64,
        event_ns: u64,
        out: &mut OutcomeBuf,
    ) -> Result<u64> {
        let ProcState { tree, core, .. } = self.procs.get_mut(&pid).expect("checked by caller");
        // One directory reference covers the whole leaf; walk entries
        // whose index is mapped and whose cache line is present.
        let (leaf, off) = tree.leaf(start).unwrap_or((&[], 0));
        let span = (leaf.len() - off).min(max as usize);
        let mut run = 0usize;
        while run < span {
            let Some(index) = leaf[off + run] else { break };
            let key = VirtPage::new(index.0 as u64);
            if self.cache.peek(pid, key).is_none() {
                break;
            }
            let page = start.offset(run as u64);
            core.fast_hit(page);
            let phys = self.cache.lookup(pid, key).expect("peeked above");
            self.probe.emit(pid, Event::Lookup { ns: event_ns });
            out.push(PageOutcome {
                page,
                phys,
                check_miss: false,
                ni_miss: false,
            });
            run += 1;
        }
        Ok(run as u64)
    }
}

impl TranslationMechanism for IndexedEngine {
    fn name(&self) -> &'static str {
        "Indexed"
    }

    fn kernel_pins(&self) -> bool {
        false
    }

    /// Registers `pid`, allocating its flat table in host memory and
    /// initializing every slot with the garbage address (§4.2).
    fn register_process(
        &mut self,
        host: &mut Host,
        _board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        if self.procs.contains_key(&pid) {
            return Err(UtlbError::AlreadyRegistered(pid));
        }
        let frames_needed = self.cfg.table_entries.div_ceil(ENTRIES_PER_FRAME);
        let garbage = host.driver().garbage_addr();
        let mut table_frames = Vec::with_capacity(frames_needed);
        for _ in 0..frames_needed {
            let f = host.physical_mut().alloc_frame()?;
            host.physical_mut().fill_u64(f, garbage.raw())?;
            table_frames.push(f);
        }
        self.procs.insert(
            pid,
            ProcState {
                table_frames,
                tree: UserLookupTree::new(),
                slot_owner: IntMap::default(),
                free: (0..self.cfg.table_entries as u32).rev().collect(),
                core: PinCore::new(self.cfg.policy, self.cfg.seed, pid),
            },
        );
        Ok(())
    }

    /// Removes `pid`: unpins everything it had pinned, drops its cache
    /// lines, and returns its table frames to the host allocator.
    fn unregister_process(
        &mut self,
        host: &mut Host,
        _board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        let state = self
            .procs
            .remove(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        self.cache.invalidate_process(pid);
        for f in state.table_frames {
            host.physical_mut().free_frame(f);
        }
        host.driver_mut().pins_mut().release_process(pid);
        Ok(())
    }

    page_run_methods!();

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    probe_stats_accessors!(|s| &s.core);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(
        table_entries: usize,
        cache_entries: usize,
    ) -> (Host, Board, IndexedEngine, ProcessId) {
        let mut host = Host::new(1 << 14);
        let mut board = Board::new();
        let mut engine = IndexedEngine::new(IndexedConfig {
            cache: CacheConfig::direct(cache_entries),
            table_entries,
            ..IndexedConfig::default()
        });
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        (host, board, engine, pid)
    }

    #[test]
    fn register_fills_every_table_word_with_the_garbage_address() {
        // 1000 entries need two frames, the second only partly used; the
        // unused tail must read as garbage too.
        for entries in [ENTRIES_PER_FRAME, 1000, 3 * ENTRIES_PER_FRAME + 7] {
            let mut host = Host::new(1 << 14);
            let mut board = Board::new();
            let mut engine = IndexedEngine::new(IndexedConfig {
                table_entries: entries,
                ..IndexedConfig::default()
            });
            let pid = host.spawn_process();
            // The garbage page is frame 0, whose address reads like
            // unwritten memory: dirty the frames the table will get, so
            // only a full fill reads back as garbage.
            let frames_needed = entries.div_ceil(ENTRIES_PER_FRAME);
            let next = host.physical().allocator().allocated_frames();
            let dirty = vec![0xA5u8; frames_needed * PAGE_SIZE as usize];
            host.physical_mut()
                .write(FrameId::new(next).base(), &dirty)
                .unwrap();
            engine.register_process(&mut host, &mut board, pid).unwrap();

            let garbage = host.driver().garbage_addr().raw();
            let frames = &engine.procs[&pid].table_frames;
            assert_eq!(frames.len(), frames_needed);
            assert_eq!(frames[0], FrameId::new(next), "the dirtied frames");
            for f in frames {
                for i in 0..ENTRIES_PER_FRAME as u64 {
                    let word = host.physical().read_u64(f.base().offset(i * 8));
                    assert_eq!(word.unwrap(), garbage, "{entries} entries, {f} word {i}");
                }
            }
        }
    }

    #[test]
    fn lookup_translates_and_caches() {
        let (mut host, mut board, mut engine, pid) = setup(64, 32);
        let va = utlb_mem::VirtAddr::new(0x30_0000);
        host.process_mut(pid).unwrap().write(va, b"ix").unwrap();
        let o1 = engine
            .lookup_page(&mut host, &mut board, pid, va.page())
            .unwrap();
        let o2 = engine
            .lookup_page(&mut host, &mut board, pid, va.page())
            .unwrap();
        assert_eq!(o1.phys, o2.phys);
        assert!(o1.ni_miss && o1.check_miss);
        assert!(!o2.ni_miss && !o2.check_miss);
        let mut buf = [0u8; 2];
        host.physical().read(o1.phys, &mut buf).unwrap();
        assert_eq!(&buf, b"ix");
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.ni_misses, 1, "second lookup hits the shared cache");
        assert_eq!(s.check_misses, 1);
    }

    #[test]
    fn capacity_eviction_recycles_slots_and_invalidates_cache() {
        let (mut host, mut board, mut engine, pid) = setup(2, 32);
        for i in 0..3 {
            engine
                .lookup_page(&mut host, &mut board, pid, VirtPage::new(i))
                .unwrap();
        }
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.unpins, 1, "third page evicts the LRU slot");
        assert!(s.unpin_time_ns > 0, "unpin work is time-accounted");
        assert!(!host.driver().pins().is_pinned(pid, VirtPage::new(0)));
        // Page 0 must translate freshly (slot was recycled for page 2).
        let r = engine
            .lookup_page(&mut host, &mut board, pid, VirtPage::new(0))
            .unwrap();
        let expect = host
            .process(pid)
            .unwrap()
            .space()
            .translate(VirtPage::new(0))
            .unwrap()
            .base();
        assert_eq!(r.phys, expect, "recycled slot must not alias the old page");
    }

    #[test]
    fn fragmentation_appears_after_churn() {
        let (mut host, mut board, mut engine, pid) = setup(8, 64);
        // Fill sequentially: slots align with pages — no fragmentation.
        for i in 0..8 {
            engine
                .lookup_page(&mut host, &mut board, pid, VirtPage::new(i))
                .unwrap();
        }
        assert_eq!(engine.fragmentation(pid).unwrap(), 0.0);
        // Churn: touch a far-away region so old slots are reused out of
        // page order.
        for i in 100..104 {
            engine
                .lookup_page(&mut host, &mut board, pid, VirtPage::new(i))
                .unwrap();
        }
        assert!(
            engine.fragmentation(pid).unwrap() > 0.0,
            "index/page neighbourhoods must diverge after churn"
        );
    }

    #[test]
    fn two_processes_share_the_cache_by_index_without_aliasing() {
        let mut host = Host::new(1 << 14);
        let mut board = Board::new();
        let mut engine = IndexedEngine::new(IndexedConfig {
            cache: CacheConfig::direct(64),
            table_entries: 16,
            ..IndexedConfig::default()
        });
        let p1 = host.spawn_process();
        let p2 = host.spawn_process();
        engine.register_process(&mut host, &mut board, p1).unwrap();
        engine.register_process(&mut host, &mut board, p2).unwrap();
        // Both processes use index 0 for different pages.
        let va = utlb_mem::VirtAddr::new(0x40_0000);
        host.process_mut(p1).unwrap().write(va, b"p1").unwrap();
        host.process_mut(p2).unwrap().write(va, b"p2").unwrap();
        let a = engine
            .lookup_page(&mut host, &mut board, p1, va.page())
            .unwrap();
        let b = engine
            .lookup_page(&mut host, &mut board, p2, va.page())
            .unwrap();
        assert_ne!(
            a.phys, b.phys,
            "process tag must disambiguate identical indices"
        );
        let mut b1 = [0u8; 2];
        host.physical().read(a.phys, &mut b1).unwrap();
        assert_eq!(&b1, b"p1");
    }

    #[test]
    fn unregister_frees_table_frames_and_pins() {
        let (mut host, mut board, mut engine, pid) = setup(64, 32);
        engine
            .lookup_page(&mut host, &mut board, pid, VirtPage::new(3))
            .unwrap();
        assert!(host.driver().pins().pinned_pages(pid) > 0);
        let free_before = host.physical().allocator().free_frames();
        engine
            .unregister_process(&mut host, &mut board, pid)
            .unwrap();
        assert_eq!(host.driver().pins().pinned_pages(pid), 0);
        assert!(
            host.physical().allocator().free_frames() > free_before,
            "host-resident table frames are reclaimed"
        );
        assert!(engine
            .unregister_process(&mut host, &mut board, pid)
            .is_err());
    }

    #[test]
    fn unknown_and_duplicate_process_errors() {
        let (mut host, mut board, mut engine, pid) = setup(8, 32);
        assert!(matches!(
            engine.register_process(&mut host, &mut board, pid),
            Err(UtlbError::AlreadyRegistered(_))
        ));
        assert!(matches!(
            engine.lookup_run(
                &mut host,
                &mut board,
                ProcessId::new(99),
                VirtPage::new(0),
                1
            ),
            Err(UtlbError::UnregisteredProcess(_))
        ));
    }
}
