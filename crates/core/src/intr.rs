//! The interrupt-based baseline (paper §6.2; UNet-MM style [Basu et al.]).
//!
//! "The network interface interrupts its host CPU on a translation miss, and
//! the CPU handles page pinning, unpinning, and installing new translation
//! entries." The defining difference from UTLB: translations live *only* in
//! the NIC cache, so "the interrupt-based approach always unpins a page that
//! is evicted from the network interface translation cache". There is no
//! user-level check and no host-resident translation table to keep entries
//! alive.
//!
//! The cache structure is identical to UTLB's [`SharedUtlbCache`] — the
//! study assumes "the cache structures are the same for both cases".

use crate::batch::{page_run_methods, HitPath};
use crate::obs::{Event, EvictReason, ProbeSlot};
use crate::pincore::{charge_us, probe_stats_accessors, PinCore};
use crate::policy::Policy;
use crate::{
    CacheConfig, CacheStats, CostModel, OutcomeBuf, PageOutcome, Result, SharedUtlbCache,
    TranslationMechanism, UtlbError,
};
use utlb_mem::{Host, IntMap, ProcessId, VirtPage};
use utlb_nic::{Board, Nanos};

/// Configuration of an [`IntrEngine`].
#[derive(Debug, Clone)]
pub struct IntrConfig {
    /// NIC translation cache geometry (kept equal to the UTLB run).
    pub cache: CacheConfig,
    /// Per-process pinned-memory limit in pages.
    pub mem_limit_pages: Option<u64>,
    /// Cost model charged to the board clock.
    pub cost: CostModel,
    /// Seed for policy tie-breaking.
    pub seed: u64,
}

impl Default for IntrConfig {
    fn default() -> Self {
        IntrConfig {
            cache: CacheConfig::default(),
            mem_limit_pages: None,
            cost: CostModel::default(),
            seed: 0x1273,
        }
    }
}

/// The interrupt-based translation engine.
///
/// The entire per-process state is one [`PinCore`]: by the invariant of this
/// design, the pinned pages are exactly the pages with a live line in the
/// NIC cache — there is no per-process translation structure to keep.
#[derive(Debug)]
pub struct IntrEngine {
    cfg: IntrConfig,
    cache: SharedUtlbCache,
    procs: IntMap<ProcessId, PinCore>,
    probe: ProbeSlot,
}

impl IntrEngine {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: IntrConfig) -> Self {
        let cache = SharedUtlbCache::new(cfg.cache);
        IntrEngine {
            cfg,
            cache,
            procs: IntMap::default(),
            probe: ProbeSlot::detached(),
        }
    }

    /// The NIC translation cache.
    pub fn cache(&self) -> &SharedUtlbCache {
        &self.cache
    }
}

/// Pure hits are the pages a stats-free cache peek finds present. A miss
/// may unpin a *different* process's page via a conflict eviction, so the
/// whole interrupt path stays in [`lookup_page`](HitPath::lookup_page).
impl HitPath for IntrEngine {
    fn registered(&self, pid: ProcessId) -> bool {
        self.procs.contains_key(&pid)
    }

    fn hit_charge(&self) -> Nanos {
        // No user-level check in this design: a hit charges only the NIC.
        Nanos::from_micros(self.cfg.cost.ni_check_us)
    }

    /// Translates one page of a registered process. There is no user-level
    /// check in this design, so outcomes always report `check_miss: false`.
    fn lookup_page(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PageOutcome> {
        let IntrEngine {
            cfg,
            cache,
            procs,
            probe,
        } = self;
        let cost = &cfg.cost;
        let t0 = board.clock.now();
        let core = procs.get_mut(&pid).expect("checked by caller");
        core.stats.lookups += 1;

        // The NIC check happens on every request; there is no user-level
        // structure in this design.
        charge_us(board, cost.ni_check_us);
        if let Some(phys) = cache.lookup(pid, page) {
            core.pinned.touch(page);
            let ns = (board.clock.now() - t0).as_nanos();
            probe.emit(pid, Event::Lookup { ns });
            return Ok(PageOutcome {
                page,
                phys,
                check_miss: false,
                ni_miss: false,
            });
        }

        // Miss: interrupt the host; the handler pins the page and installs
        // the translation. In-kernel, so no syscall overhead on the pin.
        let intr_cost = board.intr.raise(&mut board.clock);
        core.stats.ni_misses += 1;
        core.stats.interrupts += 1;
        probe.emit(pid, Event::NiMiss);
        probe.emit(
            pid,
            Event::Interrupt {
                ns: intr_cost.as_nanos(),
            },
        );

        // Respect the pinned-memory limit before pinning one more page.
        if let Some(limit) = cfg.mem_limit_pages {
            if core.pinned.len() as u64 >= limit {
                let victim = core
                    .pinned
                    .select_victims(1)
                    .pop()
                    .ok_or(UtlbError::NoEvictableVictim(pid))?;
                let unpin_us = cost.kernel_unpin_cost(1);
                board.intr.account_handler(Nanos::from_micros(unpin_us));
                core.unpin(
                    host,
                    board,
                    pid,
                    victim,
                    unpin_us,
                    EvictReason::MemLimit,
                    &mut |ev| probe.emit(pid, ev),
                )?;
                cache.invalidate(pid, victim);
            }
        }

        let pin_us = cost.kernel_pin_cost(1);
        board.intr.account_handler(Nanos::from_micros(pin_us));
        let pinned = core.pin(host, board, pid, page, 1, pin_us, &mut |ev| {
            probe.emit(pid, ev)
        })?;
        let phys = pinned[0].phys_addr();

        // Install in the cache; the page evicted to make room is unpinned —
        // the defining behaviour of the interrupt-based approach.
        if let Some(evicted) = cache.insert(pid, page, phys) {
            let unpin_us = cost.kernel_unpin_cost(1);
            board.intr.account_handler(Nanos::from_micros(unpin_us));
            let owner = procs
                .get_mut(&evicted.pid)
                .expect("evicted lines belong to registered processes");
            owner.unpin(
                host,
                board,
                evicted.pid,
                evicted.page,
                unpin_us,
                EvictReason::CacheConflict,
                &mut |ev| probe.emit(evicted.pid, ev),
            )?;
        }

        let ns = (board.clock.now() - t0).as_nanos();
        probe.emit(pid, Event::Lookup { ns });
        Ok(PageOutcome {
            page,
            phys,
            check_miss: false,
            ni_miss: true,
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
        let core = self.procs.get_mut(&pid).expect("checked by caller");
        let mut run = 0u64;
        while run < max {
            let page = start.offset(run);
            let Some(phys) = self.cache.peek(pid, page) else {
                break;
            };
            let looked_up = self.cache.lookup(pid, page);
            debug_assert_eq!(looked_up, Some(phys), "peek agrees with lookup");
            core.fast_hit(page);
            self.probe.emit(pid, Event::Lookup { ns: event_ns });
            out.push(PageOutcome {
                page,
                phys,
                check_miss: false,
                ni_miss: false,
            });
            run += 1;
        }
        Ok(run)
    }
}

impl TranslationMechanism for IntrEngine {
    fn name(&self) -> &'static str {
        "Intr"
    }

    fn kernel_pins(&self) -> bool {
        true
    }

    /// Registers `pid` with the engine and applies its memory limit.
    fn register_process(
        &mut self,
        host: &mut Host,
        _board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        if self.procs.contains_key(&pid) {
            return Err(UtlbError::AlreadyRegistered(pid));
        }
        host.driver_mut()
            .pins_mut()
            .set_limit(pid, self.cfg.mem_limit_pages);
        // LRU over cached translations, matching the cache's own within-set
        // LRU as closely as a global policy can.
        self.procs
            .insert(pid, PinCore::new(Policy::Lru, self.cfg.seed, pid));
        Ok(())
    }

    /// Removes `pid`: unpins everything it had pinned and drops its cache
    /// lines.
    fn unregister_process(
        &mut self,
        host: &mut Host,
        _board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        self.procs
            .remove(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        self.cache.invalidate_process(pid);
        host.driver_mut().pins_mut().release_process(pid);
        Ok(())
    }

    page_run_methods!();

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    probe_stats_accessors!(|c| c);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cfg: IntrConfig) -> (Host, Board, IntrEngine, ProcessId) {
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let mut engine = IntrEngine::new(cfg);
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        (host, board, engine, pid)
    }

    fn small_cfg(entries: usize) -> IntrConfig {
        IntrConfig {
            cache: CacheConfig::direct(entries),
            ..IntrConfig::default()
        }
    }

    #[test]
    fn every_miss_raises_an_interrupt() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg(64));
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 4)
            .unwrap();
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.ni_misses, 4);
        assert_eq!(s.interrupts, 4);
        assert_eq!(board.intr.raised(), 4);
        // Second pass hits, no new interrupts.
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 4)
            .unwrap();
        assert_eq!(engine.stats(pid).unwrap().interrupts, 4);
    }

    #[test]
    fn cache_eviction_unpins_the_victim() {
        // Direct-mapped, no offsetting, 4 entries: pages 0 and 4 collide.
        let cfg = IntrConfig {
            cache: CacheConfig {
                entries: 4,
                associativity: crate::Associativity::Direct,
                offsetting: false,
            },
            ..IntrConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        assert!(host.driver().pins().is_pinned(pid, VirtPage::new(0)));
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(4), 1)
            .unwrap();
        assert!(
            !host.driver().pins().is_pinned(pid, VirtPage::new(0)),
            "evicted line's page must be unpinned"
        );
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.unpins, 1);
        // Re-touching page 0 is a fresh miss + pin: translations do not
        // survive eviction in this design.
        let o = engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        assert!(o[0].ni_miss);
    }

    #[test]
    fn handler_occupancy_equals_kernel_pin_and_unpin_time() {
        // Direct-mapped, 4 entries, no offsetting: pages 0 and 4 collide, so
        // the second lookup pins inside the handler *and* unpins the victim.
        let cfg = IntrConfig {
            cache: CacheConfig {
                entries: 4,
                associativity: crate::Associativity::Direct,
                offsetting: false,
            },
            ..IntrConfig::default()
        };
        let cost = cfg.cost.clone();
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(4), 1)
            .unwrap();
        let expect = Nanos::from_micros(cost.kernel_pin_cost(1)) * 2
            + Nanos::from_micros(cost.kernel_unpin_cost(1));
        assert_eq!(board.intr.total_handler(), expect);
        // Hits add nothing: the handler only runs on misses.
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(4), 1)
            .unwrap();
        assert_eq!(board.intr.total_handler(), expect);
    }

    #[test]
    fn pinned_set_equals_cache_contents() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg(16));
        for i in 0..40 {
            engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(i), 1)
                .unwrap();
        }
        let cached = engine.cache().occupancy() as u64;
        assert_eq!(host.driver().pins().pinned_pages(pid), cached);
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.pins - s.unpins, cached);
    }

    #[test]
    fn memory_limit_below_cache_size_forces_extra_unpins() {
        let cfg = IntrConfig {
            cache: CacheConfig::direct(1024),
            mem_limit_pages: Some(8),
            ..IntrConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        for i in 0..32 {
            engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(i), 1)
                .unwrap();
        }
        assert!(host.driver().pins().pinned_pages(pid) <= 8);
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.unpins, 24, "each pin beyond the limit evicts one");
    }

    #[test]
    fn translation_is_correct() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg(64));
        let va = utlb_mem::VirtAddr::new(0x12_0000);
        host.process_mut(pid).unwrap().write(va, b"intr").unwrap();
        let o = engine
            .lookup_run(&mut host, &mut board, pid, va.page(), 1)
            .unwrap();
        let mut buf = [0u8; 4];
        host.physical().read(o[0].phys, &mut buf).unwrap();
        assert_eq!(&buf, b"intr");
    }

    #[test]
    fn unregister_releases_pins_and_cache_lines() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg(64));
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 4)
            .unwrap();
        assert!(host.driver().pins().pinned_pages(pid) > 0);
        engine
            .unregister_process(&mut host, &mut board, pid)
            .unwrap();
        assert_eq!(host.driver().pins().pinned_pages(pid), 0);
        assert_eq!(engine.cache().occupancy(), 0);
        assert!(engine
            .unregister_process(&mut host, &mut board, pid)
            .is_err());
    }

    #[test]
    fn unknown_process_is_rejected() {
        let (mut host, mut board, mut engine, _) = setup(small_cfg(16));
        let ghost = ProcessId::new(99);
        assert!(matches!(
            engine.lookup_run(&mut host, &mut board, ghost, VirtPage::new(0), 1),
            Err(UtlbError::UnregisteredProcess(_))
        ));
    }

    #[test]
    fn miss_cost_includes_interrupt_dispatch() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg(64));
        let t0 = board.clock.now();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        let miss_cost = board.clock.now() - t0;
        let t1 = board.clock.now();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        let hit_cost = board.clock.now() - t1;
        assert!(
            miss_cost.as_nanos() > hit_cost.as_nanos() + 10_000,
            "a miss pays at least the 10 µs interrupt: miss {miss_cost} hit {hit_cost}"
        );
    }
}
