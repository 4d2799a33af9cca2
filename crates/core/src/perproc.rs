//! The per-process UTLB engine (paper §3.1) — the baseline UTLB variant.
//!
//! Each process gets a fixed-size translation table statically allocated in
//! NIC SRAM, plus the two-level user-level lookup tree mapping virtual pages
//! to table indices. The NIC resolves a request with a single SRAM read —
//! there are *no* NIC misses — but the table is small (SRAM is 1 MB for
//! everything), so capacity evictions and their unpins appear much earlier
//! than with the Shared UTLB-Cache. §6's study could not compare the two
//! variants for lack of multi-program traces; this engine exists so our
//! reproduction can run that comparison as an extension.

use crate::batch::{page_run_methods, HitPath};
use crate::lookup::UserLookupTree;
use crate::obs::{Event, EvictReason, ProbeSlot};
use crate::pincore::{charge_us, probe_stats_accessors, PinCore};
use crate::policy::Policy;
use crate::table::PerProcessTable;
use crate::{
    CacheStats, CostModel, OutcomeBuf, PageOutcome, Result, TranslationMechanism, UtlbError,
};
use utlb_mem::{Host, IntMap, ProcessId, VirtPage};
use utlb_nic::{Board, Nanos};

/// Configuration of a [`PerProcessEngine`].
#[derive(Debug, Clone)]
pub struct PerProcessConfig {
    /// Translation-table entries statically allocated per process.
    pub table_entries: usize,
    /// Replacement policy for table entries / pinned pages.
    pub policy: Policy,
    /// Cost model charged to the board clock.
    pub cost: CostModel,
    /// Seed for the RANDOM policy.
    pub seed: u64,
}

impl Default for PerProcessConfig {
    /// The 8 K-entry table shown in Figure 1.
    fn default() -> Self {
        PerProcessConfig {
            table_entries: 8192,
            policy: Policy::Lru,
            cost: CostModel::default(),
            seed: 0x9e37,
        }
    }
}

#[derive(Debug)]
struct ProcState {
    table: PerProcessTable,
    tree: UserLookupTree,
    core: PinCore,
}

/// The per-process UTLB engine.
#[derive(Debug)]
pub struct PerProcessEngine {
    cfg: PerProcessConfig,
    procs: IntMap<ProcessId, ProcState>,
    probe: ProbeSlot,
    /// Cleared lookup trees and pin cores of unregistered processes,
    /// reused by the next registrations (the SRAM table is not: it is a
    /// lifetime allocation). Never longer than the peak count of
    /// registered processes.
    spare: Vec<(UserLookupTree, PinCore)>,
    /// Events of the lookup in flight, buffered across its miss path.
    events: Vec<Event>,
}

impl PerProcessEngine {
    /// Creates an engine.
    pub fn new(cfg: PerProcessConfig) -> Self {
        PerProcessEngine {
            cfg,
            procs: IntMap::default(),
            probe: ProbeSlot::detached(),
            spare: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// Pure hits are the pages the user-level tree maps: its leaf slice is
/// resolved once per run ([`UserLookupTree::leaf`]) and each mapped page
/// costs one SRAM table read.
impl HitPath for PerProcessEngine {
    fn registered(&self, pid: ProcessId) -> bool {
        self.procs.contains_key(&pid)
    }

    fn hit_charge(&self) -> Nanos {
        Nanos::from_micros(self.cfg.cost.user_check_us)
            + Nanos::from_micros(self.cfg.cost.ni_check_us)
    }

    /// Translates one page of a registered process: user-level tree
    /// lookup, then an SRAM table read.
    fn lookup_page(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PageOutcome> {
        // Disjoint borrows: the cost model stays borrowed across the miss
        // path while the process state is mutated.
        let PerProcessEngine {
            cfg,
            procs,
            probe,
            events,
            ..
        } = self;
        let cost = &cfg.cost;
        let t0 = board.clock.now();
        // One `state` borrow spans the whole miss path, so events are
        // buffered and flushed once it ends (into a buffer the engine
        // reuses, and only with a probe attached).
        let probe_on = probe.is_attached();
        events.clear();
        let mut sink = |ev: Event| {
            if probe_on {
                events.push(ev);
            }
        };
        let state = procs.get_mut(&pid).expect("checked by caller");
        state.core.stats.lookups += 1;

        // User-level lookup: two memory references.
        charge_us(board, cost.user_check_us);
        let (index, check_miss) = match state.tree.lookup(page) {
            Some(ix) => (ix, false),
            None => {
                state.core.stats.check_misses += 1;
                sink(Event::CheckMiss);
                // Capacity: evict table entries until a slot frees up.
                let mut slot = state.table.alloc_slot();
                while slot.is_none() {
                    let victim = state.core.select_victim().ok_or(UtlbError::TableFull {
                        pid,
                        capacity: state.table.capacity(),
                    })?;
                    let victim_ix = state
                        .tree
                        .invalidate(victim)
                        .expect("pinned pages are in the tree");
                    state.table.evict(victim_ix, &mut board.sram)?;
                    state.core.unpin(
                        host,
                        board,
                        pid,
                        victim,
                        cost.unpin_cost(1),
                        EvictReason::TableFull,
                        &mut sink,
                    )?;
                    slot = state.table.alloc_slot();
                }
                let slot = slot.expect("freed above");
                let pinned =
                    state
                        .core
                        .pin(host, board, pid, page, 1, cost.pin_cost(1), &mut sink)?;
                state
                    .table
                    .install(slot, pinned[0].phys_addr(), &mut board.sram)?;
                state.tree.install(page, slot);
                (slot, true)
            }
        };
        state.core.pinned.touch(page);

        // NIC side: direct table read — never a miss in this variant.
        charge_us(board, cost.ni_check_us);
        let phys = state.table.read(index, &board.sram)?;
        if probe_on {
            for ev in events.drain(..) {
                probe.emit(pid, ev);
            }
            let ns = (board.clock.now() - t0).as_nanos();
            probe.emit(pid, Event::Lookup { ns });
        }
        Ok(PageOutcome {
            page,
            phys,
            check_miss,
            // The statically allocated table is authoritative on the NIC.
            ni_miss: false,
        })
    }

    #[inline]
    fn hit_prefix(
        &mut self,
        board: &Board,
        pid: ProcessId,
        start: VirtPage,
        max: u64,
        event_ns: u64,
        out: &mut OutcomeBuf,
    ) -> Result<u64> {
        let ProcState { table, tree, core } = self.procs.get_mut(&pid).expect("checked by caller");
        // One directory reference covers the whole leaf; walk mapped
        // entries until the leaf edge, the record edge, or a miss.
        let (leaf, off) = tree.leaf(start).unwrap_or((&[], 0));
        let span = (leaf.len() - off).min(max as usize);
        let mut run = 0usize;
        while run < span {
            let Some(index) = leaf[off + run] else { break };
            let page = start.offset(run as u64);
            core.fast_hit(page);
            let phys = table.read(index, &board.sram)?;
            self.probe.emit(pid, Event::Lookup { ns: event_ns });
            out.push(PageOutcome {
                page,
                phys,
                check_miss: false,
                // The statically allocated table is authoritative.
                ni_miss: false,
            });
            run += 1;
        }
        Ok(run as u64)
    }
}

impl TranslationMechanism for PerProcessEngine {
    fn name(&self) -> &'static str {
        "PerProc"
    }

    fn kernel_pins(&self) -> bool {
        false
    }

    /// Registers `pid`, statically allocating its table in NIC SRAM —
    /// the allocation that motivates the Shared UTLB-Cache when it fails.
    fn register_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        if self.procs.contains_key(&pid) {
            return Err(UtlbError::AlreadyRegistered(pid));
        }
        let garbage = host.driver().garbage_addr();
        let table = PerProcessTable::new(pid, self.cfg.table_entries, &mut board.sram, garbage)?;
        let (tree, core) = match self.spare.pop() {
            Some((tree, mut core)) => {
                core.reset(self.cfg.seed, pid);
                (tree, core)
            }
            None => (
                UserLookupTree::new(),
                PinCore::new(self.cfg.policy, self.cfg.seed, pid),
            ),
        };
        self.procs.insert(pid, ProcState { table, tree, core });
        Ok(())
    }

    /// Removes `pid` and unpins everything it had pinned. The statically
    /// allocated SRAM region is *not* reclaimed — the board allocator is a
    /// bump allocator, which is exactly the §3.1 design cost this variant
    /// exists to demonstrate: static tables occupy SRAM for the life of the
    /// board.
    fn unregister_process(
        &mut self,
        host: &mut Host,
        _board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        let ProcState { mut tree, core, .. } = self
            .procs
            .remove(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        tree.clear();
        self.spare.push((tree, core));
        host.driver_mut().pins_mut().release_process(pid);
        Ok(())
    }

    page_run_methods!();

    /// The NIC reads the SRAM table directly — there is no shared cache in
    /// this design, so the counters are identically zero.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    probe_stats_accessors!(|s| &s.core);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(entries: usize) -> (Host, Board, PerProcessEngine, ProcessId) {
        let mut host = Host::new(1 << 14);
        let mut board = Board::new();
        let mut engine = PerProcessEngine::new(PerProcessConfig {
            table_entries: entries,
            ..PerProcessConfig::default()
        });
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        (host, board, engine, pid)
    }

    #[test]
    fn lookup_pins_once_and_never_ni_misses() {
        let (mut host, mut board, mut engine, pid) = setup(16);
        for round in 0..3 {
            let o = engine
                .lookup_page(&mut host, &mut board, pid, VirtPage::new(5))
                .unwrap();
            assert_eq!(o.check_miss, round == 0);
            assert!(!o.ni_miss);
        }
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.check_misses, 1);
        assert_eq!(s.ni_misses, 0, "table is authoritative on the NIC");
        assert_eq!(s.pins, 1);
        assert!(s.pin_time_ns > 0, "pin work is time-accounted");
    }

    #[test]
    fn capacity_eviction_unpins_lru() {
        let (mut host, mut board, mut engine, pid) = setup(2);
        for p in 1..=3 {
            engine
                .lookup_page(&mut host, &mut board, pid, VirtPage::new(p))
                .unwrap();
        }
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.unpins, 1);
        assert!(s.unpin_time_ns > 0, "unpin work is time-accounted");
        assert!(!host.driver().pins().is_pinned(pid, VirtPage::new(1)));
        assert!(host.driver().pins().is_pinned(pid, VirtPage::new(3)));
    }

    #[test]
    fn translation_resolves_to_real_frame() {
        let (mut host, mut board, mut engine, pid) = setup(16);
        let va = utlb_mem::VirtAddr::new(0x40_0000);
        host.process_mut(pid).unwrap().write(va, b"pp").unwrap();
        let o = engine
            .lookup_page(&mut host, &mut board, pid, va.page())
            .unwrap();
        let mut buf = [0u8; 2];
        host.physical().read(o.phys, &mut buf).unwrap();
        assert_eq!(&buf, b"pp");
    }

    #[test]
    fn static_allocation_exhausts_sram_across_processes() {
        // 1 MB SRAM / 8 KB entries * 8 B = each table is 64 KB; 16 fit.
        let mut host = Host::new(1 << 14);
        let mut board = Board::new();
        let mut engine = PerProcessEngine::new(PerProcessConfig::default());
        let mut failed = false;
        for _ in 0..20 {
            let pid = host.spawn_process();
            if engine.register_process(&mut host, &mut board, pid).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "static tables must exhaust the 1 MB board");
    }

    #[test]
    fn unregister_releases_pins_but_not_sram() {
        let (mut host, mut board, mut engine, pid) = setup(16);
        engine
            .lookup_page(&mut host, &mut board, pid, VirtPage::new(7))
            .unwrap();
        assert!(host.driver().pins().pinned_pages(pid) > 0);
        let sram_before = board.sram.available();
        engine
            .unregister_process(&mut host, &mut board, pid)
            .unwrap();
        assert_eq!(host.driver().pins().pinned_pages(pid), 0);
        assert_eq!(
            board.sram.available(),
            sram_before,
            "static SRAM tables are never reclaimed (§3.1's cost)"
        );
        assert!(engine
            .unregister_process(&mut host, &mut board, pid)
            .is_err());
    }
}
