//! The Hierarchical-UTLB engine — the mechanism the paper evaluates.
//!
//! Ties the pieces together exactly as Figure 4 lays them out:
//!
//! * host side: the pin-status [`PinBitVector`], the pin manager with the
//!   application-chosen replacement [`Policy`] and the optional
//!   pinned-memory limit, sequential pre-pinning (§6.5), and the device
//!   driver `ioctl` that pins pages and installs translations,
//! * NIC side: the per-process [`HierTable`] directory in SRAM, the
//!   [`SharedUtlbCache`], and prefetching of consecutive translation entries
//!   on a miss (§6.4).
//!
//! A translation lookup never enters the kernel unless pages must actually
//! be pinned, and never interrupts the host — the two properties the whole
//! design exists to provide.

use crate::batch::{page_run_methods, HitPath};
use crate::obs::{Event, EvictReason, ProbeSlot};
use crate::pincore::{charge_us, probe_stats_accessors, PinCore};
use crate::{
    CacheConfig, CacheStats, CostModel, HierTable, OutcomeBuf, PinBitVector, Policy, Result,
    SharedUtlbCache, TranslationMechanism, UtlbError,
};
use utlb_mem::{Host, IntMap, PhysAddr, ProcessId, VirtAddr, VirtPage};
use utlb_nic::{Board, Nanos};

/// Configuration of a [`UtlbEngine`].
///
/// Build it as a struct literal off [`UtlbConfig::default`];
/// [`UtlbConfig::validate`] checks it, and [`UtlbEngine::try_new`] refuses
/// an invalid one with [`UtlbError::InvalidConfig`] instead of panicking.
#[derive(Debug, Clone)]
pub struct UtlbConfig {
    /// Shared UTLB-Cache geometry.
    pub cache: CacheConfig,
    /// Translation entries fetched per NIC miss (1 = no prefetch, §6.4).
    pub prefetch: u64,
    /// Pages pinned per check miss (1 = no prepinning, §6.5).
    pub prepin: u64,
    /// Replacement policy for pinned pages (§3.4).
    pub policy: Policy,
    /// Per-process pinned-memory limit in pages (`None` = unlimited, the
    /// "infinite host memory" configuration of Table 4).
    pub mem_limit_pages: Option<u64>,
    /// Cost model charged to the board clock.
    pub cost: CostModel,
    /// Seed for the RANDOM policy.
    pub seed: u64,
}

impl Default for UtlbConfig {
    fn default() -> Self {
        UtlbConfig {
            cache: CacheConfig::default(),
            prefetch: 1,
            prepin: 1,
            policy: Policy::Lru,
            mem_limit_pages: None,
            cost: CostModel::default(),
            seed: 0xDEFA,
        }
    }
}

impl UtlbConfig {
    /// Checks the invariants the engine relies on.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::InvalidConfig`] if `prefetch` or `prepin` is
    /// zero, the cache has no entries, the entry count is not a multiple
    /// of the associativity's way count, or the cost model is one
    /// [`CostModel::validate`] refuses.
    pub fn validate(&self) -> Result<()> {
        self.cost
            .validate()
            .map_err(|msg| UtlbError::InvalidConfig(msg.into()))?;
        if self.prefetch < 1 {
            return Err(UtlbError::InvalidConfig(
                "prefetch width must be at least 1".into(),
            ));
        }
        if self.prepin < 1 {
            return Err(UtlbError::InvalidConfig(
                "prepin width must be at least 1".into(),
            ));
        }
        if self.cache.entries == 0 {
            return Err(UtlbError::InvalidConfig(
                "cache must have at least one entry".into(),
            ));
        }
        let ways = self.cache.associativity.ways();
        if !self.cache.entries.is_multiple_of(ways) {
            return Err(UtlbError::InvalidConfig(format!(
                "cache entries {} not divisible by {} ways",
                self.cache.entries, ways
            )));
        }
        Ok(())
    }
}

/// Outcome of translating one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageOutcome {
    /// The translated page.
    pub page: VirtPage,
    /// Its physical address, ready for DMA.
    pub phys: PhysAddr,
    /// Whether the user-level check missed (pages had to be pinned).
    pub check_miss: bool,
    /// Whether the NIC translation cache missed.
    pub ni_miss: bool,
}

#[derive(Debug)]
struct ProcState {
    bitvec: PinBitVector,
    hier: HierTable,
    core: PinCore,
    /// The victims [`make_room`](Self::make_room) selects.
    victims: Vec<VirtPage>,
}

/// What an unregistered process leaves for the next registration: all of
/// [`ProcState`] but the SRAM directory, a lifetime allocation.
#[derive(Debug)]
struct SpareState {
    bitvec: PinBitVector,
    core: PinCore,
    victims: Vec<VirtPage>,
}

impl ProcState {
    /// Makes room under the pinned-memory limit for `run` more pages:
    /// unpins policy-chosen victims (one call each, §6.5, charging
    /// `unpin_us`) and invalidates their bitmap bits, table entries, and
    /// cache lines. Returns the run length that fits — shortened if too
    /// few pages are evictable, but never below the demanded page.
    ///
    /// # Errors
    ///
    /// [`UtlbError::NoEvictableVictim`] if not even the demanded page
    /// fits; propagates unpin and memory errors.
    #[allow(clippy::too_many_arguments)] // host/board/pid threading is the engine calling convention
    fn make_room(
        &mut self,
        limit: Option<u64>,
        mut run: u64,
        unpin_us: f64,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        cache: &mut SharedUtlbCache,
        sink: &mut dyn FnMut(Event),
    ) -> Result<u64> {
        let Some(limit) = limit else {
            return Ok(run);
        };
        let pinned = self.core.pinned.len() as u64;
        if pinned + run <= limit {
            return Ok(run);
        }
        let deficit = pinned + run - limit;
        let victims = &mut self.victims;
        self.core.pinned.select_victims(deficit as usize, victims);
        if victims.is_empty() && pinned >= limit {
            // Cannot pin even the demanded page.
            return Err(UtlbError::NoEvictableVictim(pid));
        }
        // If fewer victims than the deficit, shrink the prepin run (but
        // never below the demanded page).
        if (victims.len() as u64) < deficit {
            let shortfall = deficit - victims.len() as u64;
            run = run.saturating_sub(shortfall).max(1);
        }
        for &victim in victims.iter() {
            self.core.unpin(
                host,
                board,
                pid,
                victim,
                unpin_us,
                EvictReason::MemLimit,
                sink,
            )?;
            self.bitvec.clear(victim);
            self.hier
                .invalidate(victim, host.physical_mut(), &board.sram)?;
            cache.invalidate(pid, victim);
        }
        Ok(run)
    }
}

/// The Hierarchical-UTLB translation engine.
#[derive(Debug)]
pub struct UtlbEngine {
    cfg: UtlbConfig,
    cache: SharedUtlbCache,
    procs: IntMap<ProcessId, ProcState>,
    probe: ProbeSlot,
    /// Cleared states of unregistered processes, reused by the next
    /// registrations. Never longer than the peak count of registered
    /// processes.
    spare: Vec<SpareState>,
    /// The entries of the NIC miss in flight, as its DMA fetched them.
    words: Vec<u64>,
}

impl UtlbEngine {
    /// Creates an engine with the given configuration.
    ///
    /// [`UtlbEngine::try_new`] returns an invalid configuration as an error
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`UtlbConfig::validate`].
    pub fn new(cfg: UtlbConfig) -> Self {
        Self::try_new(cfg).expect("invalid UtlbConfig")
    }

    /// Creates an engine, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::InvalidConfig`] as described on
    /// [`UtlbConfig::validate`].
    pub fn try_new(cfg: UtlbConfig) -> Result<Self> {
        cfg.validate()?;
        let cache = SharedUtlbCache::new(cfg.cache);
        Ok(UtlbEngine {
            cfg,
            cache,
            procs: IntMap::default(),
            probe: ProbeSlot::detached(),
            spare: Vec::new(),
            words: Vec::new(),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &UtlbConfig {
        &self.cfg
    }

    /// The shared NIC translation cache.
    pub fn cache(&self) -> &SharedUtlbCache {
        &self.cache
    }

    /// Marks the pages of a buffer as held by an outstanding send so the
    /// replacement policy cannot unpin them mid-transfer (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::UnregisteredProcess`] if `pid` is unknown.
    pub fn hold_pages(&mut self, pid: ProcessId, start: VirtPage, npages: u64) -> Result<()> {
        let state = self
            .procs
            .get_mut(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        for p in start.range(npages) {
            state.core.pinned.hold(p);
        }
        Ok(())
    }

    /// Releases an outstanding-send hold taken by [`UtlbEngine::hold_pages`].
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::UnregisteredProcess`] if `pid` is unknown.
    pub fn release_pages(&mut self, pid: ProcessId, start: VirtPage, npages: u64) -> Result<()> {
        let state = self
            .procs
            .get_mut(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        for p in start.range(npages) {
            state.core.pinned.release(p);
        }
        Ok(())
    }

    /// Translates the buffer `[va, va + nbytes)` — the `send message`
    /// pseudo-code of Figure 2: check the user-level structure, pin missing
    /// pages through the driver, then resolve each page on the NIC. Returns
    /// one outcome per page, in buffer order.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::UnregisteredProcess`] if `pid` is unknown;
    /// propagates pinning, memory, and protocol errors.
    pub fn lookup_buffer(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        va: VirtAddr,
        nbytes: u64,
    ) -> Result<Vec<PageOutcome>> {
        self.lookup_run(host, board, pid, va.page(), va.span_pages(nbytes))
    }

    /// NIC-side-only resolution of one page, as if a (buggy or malicious)
    /// user library submitted a request *without* performing the user-level
    /// check and pinning first.
    ///
    /// This is §3.1's correctness alternative: "Otherwise, the network
    /// interface must be able to check for possible unpinned pages, and
    /// interrupt the host to pin pages before executing the requests."
    /// When the translation entry still holds the garbage address, the NIC
    /// interrupts the host, which pins the page and installs the entry;
    /// the lookup then proceeds. The cost — one interrupt plus an in-kernel
    /// pin — is exactly what the user-level check exists to avoid.
    ///
    /// # Errors
    ///
    /// Propagates pinning and memory errors.
    pub fn nic_resolve(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PhysAddr> {
        // Disjoint borrows: the process state, the shared cache, and the
        // probe are all live across the miss path.
        let UtlbEngine {
            cfg,
            cache,
            procs,
            probe,
            ..
        } = self;
        let cost = &cfg.cost;
        let t0 = board.clock.now();
        let state = procs
            .get_mut(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        state.core.stats.lookups += 1;
        charge_us(board, cost.ni_check_us);
        if let Some(phys) = cache.lookup(pid, page) {
            let ns = (board.clock.now() - t0).as_nanos();
            probe.emit(pid, Event::Lookup { ns });
            return Ok(phys);
        }
        // Miss path: check the table; a garbage entry means the page was
        // never pinned — fall back to interrupting the host.
        charge_us(board, cost.directory_ref_us);
        let needs_pin =
            state.hier.read_entry(page, host.physical(), &board.sram)? == state.hier.garbage();
        if needs_pin {
            let intr_cost = board.intr.raise(&mut board.clock);
            probe.emit(
                pid,
                Event::Interrupt {
                    ns: intr_cost.as_nanos(),
                },
            );
            state.core.stats.interrupts += 1;
            // The handler honours the pinned-memory limit like the
            // user-level pin path, but unpins at in-kernel cost.
            let mut sink = |ev: Event| probe.emit(pid, ev);
            state.make_room(
                cfg.mem_limit_pages,
                1,
                cost.kernel_unpin_cost(1),
                host,
                board,
                pid,
                cache,
                &mut sink,
            )?;
            let phys = state.core.pin(
                host,
                board,
                pid,
                page,
                1,
                cost.kernel_pin_cost(1),
                &mut sink,
            )?[0]
                .phys_addr();
            state
                .hier
                .install(page, phys, host.physical_mut(), &mut board.sram)?;
            state.bitvec.set(page);
        }
        state.core.stats.ni_misses += 1;
        probe.emit(pid, Event::NiMiss);
        let entry_addr = state
            .hier
            .entry_addr(page, &board.sram)?
            .expect("installed above or already present");
        let Board { dma, clock, .. } = board;
        let mut entry = [0u64; 1];
        let dma_cost = dma.fetch_words(clock, host.physical(), entry_addr, &mut entry)?;
        state.core.stats.entries_fetched += 1;
        probe.emit(
            pid,
            Event::DmaFetch {
                entries: 1,
                ns: dma_cost.as_nanos(),
            },
        );
        let phys = PhysAddr::new(entry[0]);
        if cache.insert(pid, page, phys).is_some() {
            probe.emit(
                pid,
                Event::Evict {
                    reason: EvictReason::CacheConflict,
                },
            );
        }
        let ns = (board.clock.now() - t0).as_nanos();
        probe.emit(pid, Event::Lookup { ns });
        Ok(phys)
    }

    /// Handles a check miss: evict under the memory limit, then pin the
    /// contiguous run of unpinned pages starting at `page` (sequential
    /// pre-pinning, §6.5) and install the translations.
    fn pin_run(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<()> {
        let UtlbEngine {
            cfg,
            cache,
            procs,
            probe,
            ..
        } = self;
        let cost = &cfg.cost;
        let state = procs.get_mut(&pid).expect("checked by caller");
        let mut sink = |ev: Event| probe.emit(pid, ev);

        // Length of the contiguous unpinned run, capped by the prepin width.
        let mut run = 0u64;
        while run < cfg.prepin && !state.bitvec.is_set(page.offset(run)) {
            run += 1;
        }
        debug_assert!(run >= 1, "called on a check miss");

        let run = state.make_room(
            cfg.mem_limit_pages,
            run,
            cost.unpin_cost(1),
            host,
            board,
            pid,
            cache,
            &mut sink,
        )?;

        // One ioctl pins the whole run (Figure 2 step 2).
        let pinned = state
            .core
            .pin(host, board, pid, page, run, cost.pin_cost(run), &mut sink)?;
        for p in pinned {
            state.hier.install(
                p.page(),
                p.phys_addr(),
                host.physical_mut(),
                &mut board.sram,
            )?;
            state.bitvec.set(p.page());
        }
        Ok(())
    }

    /// Handles a Shared UTLB-Cache miss: one SRAM directory reference plus a
    /// DMA fetching `prefetch` consecutive entries (§3.3, §6.4). Entries
    /// still holding the garbage address (unpinned neighbours) are fetched
    /// but not cached.
    fn fill_from_table(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PhysAddr> {
        let UtlbEngine {
            cfg,
            cache,
            procs,
            probe,
            words,
            ..
        } = self;
        let cost = &cfg.cost;
        charge_us(board, cost.directory_ref_us);

        let state = procs.get_mut(&pid).expect("checked by caller");
        // Swapped-out second-level table: the NIC interrupts the host to
        // bring it back (§3.3) — the one interrupt UTLB can ever take.
        if state.hier.entry_addr(page, &board.sram)?.is_none() {
            let intr_cost = board.intr.raise(&mut board.clock);
            state.core.stats.interrupts += 1;
            probe.emit(
                pid,
                Event::Interrupt {
                    ns: intr_cost.as_nanos(),
                },
            );
            let (phys, swap) = host.phys_and_swap();
            let swapped_in = state.hier.swap_in(page, phys, &mut board.sram, swap)?;
            if !swapped_in || state.hier.entry_addr(page, &board.sram)?.is_none() {
                return Err(UtlbError::ProtocolViolation { pid, page });
            }
            probe.emit(pid, Event::SwapIn);
        }

        let entry_addr = state
            .hier
            .entry_addr(page, &board.sram)?
            .expect("resident after swap-in");

        // Fetch up to `prefetch` consecutive entries, not crossing the leaf
        // (one DMA must stay within one second-level table).
        let leaf_remaining = crate::hier::LEAF_ENTRIES - page.number() % crate::hier::LEAF_ENTRIES;
        let fetch = cfg.prefetch.min(leaf_remaining);
        let Board { dma, clock, .. } = board;
        words.resize(fetch as usize, 0);
        let dma_cost = dma.fetch_words(clock, host.physical(), entry_addr, words)?;
        state.core.stats.entries_fetched += fetch;
        probe.emit(
            pid,
            Event::DmaFetch {
                entries: fetch,
                ns: dma_cost.as_nanos(),
            },
        );

        let garbage = state.hier.garbage().raw();
        let first = PhysAddr::new(words[0]);
        if words[0] == garbage {
            return Err(UtlbError::ProtocolViolation { pid, page });
        }
        for (i, &w) in words.iter().enumerate() {
            if w != garbage
                && cache
                    .insert(pid, page.offset(i as u64), PhysAddr::new(w))
                    .is_some()
            {
                probe.emit(
                    pid,
                    Event::Evict {
                        reason: EvictReason::CacheConflict,
                    },
                );
            }
        }
        Ok(first)
    }
}

/// Pure hits are the pages whose user-level check and cache probe would
/// both hit, decided by pure reads of the pin bitmap (word-wise, via
/// [`PinBitVector::pinned_prefix`]) and a stats-free cache peek.
impl HitPath for UtlbEngine {
    fn registered(&self, pid: ProcessId) -> bool {
        self.procs.contains_key(&pid)
    }

    fn hit_charge(&self) -> Nanos {
        Nanos::from_micros(self.cfg.cost.user_check_us)
            + Nanos::from_micros(self.cfg.cost.ni_check_us)
    }

    fn lookup_page(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PageOutcome> {
        let (user_check_us, ni_check_us) = (self.cfg.cost.user_check_us, self.cfg.cost.ni_check_us);
        let t0 = board.clock.now();
        let state = self.procs.get_mut(&pid).expect("checked by caller");
        state.core.stats.lookups += 1;

        // 1. User-level check against the pin bitmap (Figure 2 step 1).
        charge_us(board, user_check_us);
        let check = state.bitvec.check_run(page, 1);
        let check_miss = !check.is_hit();

        if check_miss {
            state.core.stats.check_misses += 1;
            self.probe.emit(pid, Event::CheckMiss);
            self.pin_run(host, board, pid, page)?;
        }

        let state = self.procs.get_mut(&pid).expect("still registered");
        state.core.pinned.touch(page);

        // 2. NIC-side resolution (Figure 2 NIC steps 1–2).
        charge_us(board, ni_check_us);
        let (phys, ni_miss) = match self.cache.lookup(pid, page) {
            Some(phys) => (phys, false),
            None => {
                let phys = self.fill_from_table(host, board, pid, page)?;
                (phys, true)
            }
        };
        let state = self.procs.get_mut(&pid).expect("still registered");
        if ni_miss {
            state.core.stats.ni_misses += 1;
            self.probe.emit(pid, Event::NiMiss);
        }
        let ns = (board.clock.now() - t0).as_nanos();
        self.probe.emit(pid, Event::Lookup { ns });
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
        let state = self.procs.get_mut(&pid).expect("checked by caller");
        let pinned = state.bitvec.pinned_prefix(start, max);
        let mut run = 0u64;
        while run < pinned && self.cache.peek(pid, start.offset(run)).is_some() {
            run += 1;
        }
        for page in start.range(run) {
            state.core.fast_hit(page);
            let phys = self.cache.lookup(pid, page).expect("peeked above");
            self.probe.emit(pid, Event::Lookup { ns: event_ns });
            out.push(PageOutcome {
                page,
                phys,
                check_miss: false,
                ni_miss: false,
            });
        }
        Ok(run)
    }
}

impl TranslationMechanism for UtlbEngine {
    fn name(&self) -> &'static str {
        "UTLB"
    }

    fn kernel_pins(&self) -> bool {
        false
    }

    /// Registers `pid`: allocates its directory in NIC SRAM and applies the
    /// pinned-memory limit to the host driver.
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
        let hier = HierTable::new(pid, &mut board.sram, garbage)?;
        host.driver_mut()
            .pins_mut()
            .set_limit(pid, self.cfg.mem_limit_pages);
        board.cmdq.register(pid);
        let state = match self.spare.pop() {
            Some(SpareState {
                bitvec,
                mut core,
                victims,
            }) => {
                core.reset(self.cfg.seed, pid);
                ProcState {
                    bitvec,
                    hier,
                    core,
                    victims,
                }
            }
            None => ProcState {
                bitvec: PinBitVector::new(),
                hier,
                core: PinCore::new(self.cfg.policy, self.cfg.seed, pid),
                victims: Vec::new(),
            },
        };
        self.procs.insert(pid, state);
        Ok(())
    }

    /// Removes `pid`: unpins everything it had pinned and drops its cache
    /// lines and tables.
    fn unregister_process(
        &mut self,
        host: &mut Host,
        _board: &mut Board,
        pid: ProcessId,
    ) -> Result<()> {
        let ProcState {
            mut bitvec,
            mut hier,
            core,
            victims,
        } = self
            .procs
            .remove(&pid)
            .ok_or(UtlbError::UnregisteredProcess(pid))?;
        self.cache.invalidate_process(pid);
        hier.release(host.physical_mut());
        bitvec.clear_all();
        self.spare.push(SpareState {
            bitvec,
            core,
            victims,
        });
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

    fn setup(cfg: UtlbConfig) -> (Host, Board, UtlbEngine, ProcessId) {
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let mut engine = UtlbEngine::new(cfg);
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        (host, board, engine, pid)
    }

    fn small_cfg() -> UtlbConfig {
        UtlbConfig {
            cache: CacheConfig::direct(64),
            ..UtlbConfig::default()
        }
    }

    #[test]
    fn first_lookup_misses_everywhere_second_hits_everywhere() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        let page = VirtPage::new(100);
        let t0 = board.clock.now();
        let r1 = engine
            .lookup_run(&mut host, &mut board, pid, page, 1)
            .unwrap();
        let t1 = board.clock.now();
        assert!(r1[0].check_miss);
        assert!(r1[0].ni_miss);
        let r2 = engine
            .lookup_run(&mut host, &mut board, pid, page, 1)
            .unwrap();
        assert!(!r2[0].check_miss);
        assert!(!r2[0].ni_miss);
        assert!(board.clock.now() - t1 < t1 - t0, "hit path is faster");
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.check_misses, 1);
        assert_eq!(s.ni_misses, 1);
        assert_eq!(s.pins, 1);
        assert_eq!(s.unpins, 0);
        assert_eq!(s.interrupts, 0, "UTLB never interrupts on the common path");
    }

    #[test]
    fn translation_points_at_the_real_frame() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        let va = VirtAddr::new(0x30_0000);
        host.process_mut(pid)
            .unwrap()
            .write(va, b"dma payload")
            .unwrap();
        let r = engine
            .lookup_buffer(&mut host, &mut board, pid, va, 11)
            .unwrap();
        let mut buf = [0u8; 11];
        host.physical().read(r[0].phys, &mut buf).unwrap();
        assert_eq!(&buf, b"dma payload");
    }

    #[test]
    fn buffer_spanning_pages_counts_one_lookup_per_page() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        let va = VirtAddr::new(0x10_0FF0); // 16 bytes before a boundary
        let r = engine
            .lookup_buffer(&mut host, &mut board, pid, va, 32)
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(engine.stats(pid).unwrap().lookups, 2);
    }

    #[test]
    fn memory_limit_forces_unpins_via_policy() {
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            mem_limit_pages: Some(4),
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        for i in 0..8 {
            engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(i), 1)
                .unwrap();
        }
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.pins, 8);
        assert_eq!(s.unpins, 4, "limit 4 evicts the 4 LRU pages");
        assert_eq!(host.driver().pins().pinned_pages(pid), 4);
        // LRU: pages 0–3 were evicted; touching page 0 re-pins.
        let r = engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        assert!(r[0].check_miss);
    }

    #[test]
    fn unpinned_page_is_invalidated_in_cache_and_table() {
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            mem_limit_pages: Some(1),
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(1), 1)
            .unwrap();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(2), 1)
            .unwrap();
        // Page 1 was unpinned: its cache line must be gone and a re-lookup
        // must re-pin and re-miss.
        assert!(engine.cache().peek(pid, VirtPage::new(1)).is_none());
        let r = engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(1), 1)
            .unwrap();
        assert!(r[0].check_miss);
        assert!(r[0].ni_miss);
    }

    #[test]
    fn prepinning_batches_pins() {
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            prepin: 8,
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.pins, 8, "one miss pre-pins the run");
        assert_eq!(s.pin_calls, 1);
        // The next 7 pages are check hits.
        for i in 1..8 {
            let r = engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(i), 1)
                .unwrap();
            assert!(!r[0].check_miss, "page {i}");
        }
        assert_eq!(engine.stats(pid).unwrap().check_misses, 1);
    }

    #[test]
    fn prefetch_hides_subsequent_ni_misses() {
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            prepin: 8,
            prefetch: 8,
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        // One lookup pins 8 pages and prefetches all 8 entries.
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 8)
            .unwrap();
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.ni_misses, 1, "only the first page misses in the cache");
        assert_eq!(s.entries_fetched, 8);
    }

    #[test]
    fn prefetch_skips_garbage_neighbours() {
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            prepin: 1,
            prefetch: 4,
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        // Neighbours 1..3 were fetched but hold garbage: not cached.
        assert!(engine.cache().peek(pid, VirtPage::new(1)).is_none());
        // And looking one up later is still correct (pin, then NI miss).
        let r = engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(1), 1)
            .unwrap();
        assert!(r[0].ni_miss);
    }

    #[test]
    fn outstanding_holds_protect_pages_from_eviction() {
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            mem_limit_pages: Some(2),
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(1), 1)
            .unwrap();
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(2), 1)
            .unwrap();
        engine.hold_pages(pid, VirtPage::new(1), 2).unwrap();
        // Both pinned pages are held: pinning a third must fail.
        let err = engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(3), 1)
            .unwrap_err();
        assert!(matches!(err, UtlbError::NoEvictableVictim(_)));
        engine.release_pages(pid, VirtPage::new(1), 2).unwrap();
        assert!(engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(3), 1)
            .is_ok());
    }

    #[test]
    fn register_twice_and_unknown_process_errors() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        assert!(matches!(
            engine.register_process(&mut host, &mut board, pid),
            Err(UtlbError::AlreadyRegistered(_))
        ));
        let ghost = ProcessId::new(404);
        assert!(matches!(
            engine.lookup_run(&mut host, &mut board, ghost, VirtPage::new(0), 1),
            Err(UtlbError::UnregisteredProcess(_))
        ));
        assert!(engine.stats(ghost).is_err());
    }

    #[test]
    fn unregister_releases_everything() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 4)
            .unwrap();
        let frames_before = host.physical().allocator().allocated_frames();
        assert!(frames_before > 0);
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
    fn two_processes_share_the_cache_without_interference_on_correctness() {
        let (mut host, mut board, mut engine, pid1) = setup(small_cfg());
        let pid2 = host.spawn_process();
        engine
            .register_process(&mut host, &mut board, pid2)
            .unwrap();
        let va = VirtAddr::new(0x50_0000);
        host.process_mut(pid1).unwrap().write(va, b"one").unwrap();
        host.process_mut(pid2).unwrap().write(va, b"two").unwrap();
        let r1 = engine
            .lookup_buffer(&mut host, &mut board, pid1, va, 3)
            .unwrap();
        let r2 = engine
            .lookup_buffer(&mut host, &mut board, pid2, va, 3)
            .unwrap();
        let mut b1 = [0u8; 3];
        let mut b2 = [0u8; 3];
        host.physical().read(r1[0].phys, &mut b1).unwrap();
        host.physical().read(r2[0].phys, &mut b2).unwrap();
        assert_eq!(&b1, b"one");
        assert_eq!(&b2, b"two");
    }

    #[test]
    fn nic_resolve_falls_back_to_an_interrupt_for_unpinned_pages() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        let va = VirtAddr::new(0x77_000);
        host.process_mut(pid)
            .unwrap()
            .write(va, b"unchecked")
            .unwrap();
        // A request lands on the NIC without the user-level step: the NIC
        // interrupts the host and still resolves correctly.
        let phys = engine
            .nic_resolve(&mut host, &mut board, pid, va.page())
            .unwrap();
        let mut buf = [0u8; 9];
        host.physical().read(phys, &mut buf).unwrap();
        assert_eq!(&buf, b"unchecked");
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.interrupts, 1, "the fallback costs an interrupt");
        assert_eq!(s.pins, 1);
        // A well-behaved lookup of the same page afterwards is a pure hit
        // and never interrupts.
        let r = engine
            .lookup_run(&mut host, &mut board, pid, va.page(), 1)
            .unwrap();
        assert!(!r[0].check_miss);
        assert!(!r[0].ni_miss);
        assert_eq!(engine.stats(pid).unwrap().interrupts, 1);
        // Resolving an already-pinned page via the NIC path needs no
        // interrupt either (cache was filled above; invalidate to force the
        // table read).
        engine.cache.invalidate(pid, va.page());
        engine
            .nic_resolve(&mut host, &mut board, pid, va.page())
            .unwrap();
        assert_eq!(engine.stats(pid).unwrap().interrupts, 1);
    }

    #[test]
    fn nic_resolve_at_the_limit_evicts_one_lru_victim() {
        use crate::obs::SharedCollector;
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            mem_limit_pages: Some(2),
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        let collector = SharedCollector::new(16);
        engine.set_probe(collector.boxed());
        for i in 0..2 {
            engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(i), 1)
                .unwrap();
        }
        let va = VirtAddr::new(7 << 12);
        host.process_mut(pid)
            .unwrap()
            .write(va, b"over limit")
            .unwrap();
        let phys = engine
            .nic_resolve(&mut host, &mut board, pid, va.page())
            .unwrap();
        let mut buf = [0u8; 10];
        host.physical().read(phys, &mut buf).unwrap();
        assert_eq!(&buf, b"over limit");
        let s = engine.stats(pid).unwrap();
        assert_eq!(s.unpins, 1, "exactly one victim");
        assert_eq!(s.interrupts, 1);
        let pins = host.driver().pins();
        assert_eq!(pins.pinned_pages(pid), 2, "pinned stays at the limit");
        assert!(!pins.is_pinned(pid, VirtPage::new(0)), "LRU page evicted");
        assert!(pins.is_pinned(pid, VirtPage::new(1)));
        assert!(engine.cache().peek(pid, VirtPage::new(0)).is_none());
        let mismatches = collector
            .snapshot()
            .metrics
            .reconcile(&engine.aggregate_stats());
        assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
        // The evicted page's translation was invalidated: a checked lookup
        // re-pins it.
        let r = engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0), 1)
            .unwrap();
        assert!(r[0].check_miss);
        assert_eq!(host.driver().pins().pinned_pages(pid), 2);
    }

    #[test]
    fn os_reclaim_of_unpinned_pages_is_invisible_to_the_engine() {
        // Under a memory limit the engine unpins cold pages; the OS may
        // then reclaim them. A later lookup must transparently fault the
        // page back in, re-pin it, and yield a *fresh, correct* frame.
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            mem_limit_pages: Some(1),
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        let va = VirtAddr::new(0x123_000);
        host.process_mut(pid)
            .unwrap()
            .write(va, b"survives")
            .unwrap();
        engine
            .lookup_run(&mut host, &mut board, pid, va.page(), 1)
            .unwrap();
        // Another page evicts (unpins) the first; the OS reclaims it.
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(0x200), 1)
            .unwrap();
        assert!(host.reclaim_page(pid, va.page()).unwrap());
        // Re-lookup: pin path faults the page in; data and translation agree.
        let r = engine
            .lookup_run(&mut host, &mut board, pid, va.page(), 1)
            .unwrap();
        assert!(r[0].check_miss);
        let mut buf = [0u8; 8];
        host.physical().read(r[0].phys, &mut buf).unwrap();
        assert_eq!(&buf, b"survives");
    }

    #[test]
    fn invalid_configs_are_rejected_without_panicking() {
        let refused = [
            UtlbConfig {
                prefetch: 0,
                ..UtlbConfig::default()
            },
            UtlbConfig {
                prepin: 0,
                ..UtlbConfig::default()
            },
            UtlbConfig {
                cache: CacheConfig {
                    entries: 6,
                    associativity: crate::Associativity::FourWay,
                    offsetting: false,
                },
                ..UtlbConfig::default()
            },
            UtlbConfig {
                cost: CostModel {
                    user_check_us: -1.0,
                    ..CostModel::default()
                },
                ..UtlbConfig::default()
            },
        ];
        for bad in refused {
            assert!(matches!(
                UtlbEngine::try_new(bad),
                Err(UtlbError::InvalidConfig(_))
            ));
        }
        let good = UtlbConfig {
            cache: CacheConfig::direct(128),
            prefetch: 4,
            prepin: 2,
            mem_limit_pages: Some(64),
            seed: 7,
            ..UtlbConfig::default()
        };
        assert!(UtlbEngine::try_new(good).is_ok());
    }

    #[test]
    fn probe_event_counts_reconcile_with_stats() {
        use crate::obs::SharedCollector;
        let cfg = UtlbConfig {
            cache: CacheConfig::direct(64),
            prepin: 4,
            prefetch: 4,
            mem_limit_pages: Some(8),
            ..UtlbConfig::default()
        };
        let (mut host, mut board, mut engine, pid) = setup(cfg);
        let collector = SharedCollector::new(16);
        engine.set_probe(collector.boxed());
        // The interrupt fallback path first, while pins are under the limit.
        engine
            .nic_resolve(&mut host, &mut board, pid, VirtPage::new(500))
            .unwrap();
        // Strided lookups: check misses, NI misses, pins, limit evictions.
        for i in 0..24 {
            engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(i * 3), 2)
                .unwrap();
        }
        let snap = collector.snapshot();
        let stats = engine.aggregate_stats();
        let mismatches = snap.metrics.reconcile(&stats);
        assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
        assert!(snap.metrics.counts.evictions > 0, "limit evictions seen");
        assert_eq!(snap.metrics.lookup_ns.count(), stats.lookups);
        // Detaching stops the stream: stats advance, metrics do not.
        engine.take_probe().expect("probe was attached");
        engine
            .lookup_run(&mut host, &mut board, pid, VirtPage::new(9000), 1)
            .unwrap();
        assert_eq!(collector.snapshot().metrics.counts.lookups, stats.lookups);
    }

    #[test]
    fn swapped_out_table_is_brought_back_with_one_interrupt() {
        let (mut host, mut board, mut engine, pid) = setup(small_cfg());
        let page = VirtPage::new(10);
        engine
            .lookup_run(&mut host, &mut board, pid, page, 1)
            .unwrap();
        // Swap the leaf out behind the engine's back, then evict the cache
        // line so the next lookup must go to the table.
        let state = engine.procs.get_mut(&pid).unwrap();
        let (phys, swap) = host.phys_and_swap();
        state
            .hier
            .swap_out(page, phys, &mut board.sram, swap)
            .unwrap();
        engine.cache.invalidate(pid, page);
        let r = engine
            .lookup_run(&mut host, &mut board, pid, page, 1)
            .unwrap();
        assert!(r[0].ni_miss);
        assert_eq!(engine.stats(pid).unwrap().interrupts, 1);
    }
}
