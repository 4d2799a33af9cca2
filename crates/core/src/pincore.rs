//! The shared pinning/fault core every translation engine composes.
//!
//! All four engines — per-process UTLB (§3.1), Shared UTLB-Cache over
//! indexed tables (§3.2), Hierarchical-UTLB (§3.3), and the interrupt
//! baseline (§6.2) — keep the same per-process block: the [`PinnedSet`]
//! driving the replacement policy, the [`TranslationStats`] counters, and
//! the demand-pin / demand-unpin path that charges the board clock, calls
//! into the host driver, updates both, and narrates the work as
//! [`Event`]s. [`PinCore`] is that block, extracted once; each engine keeps
//! only what is genuinely its own — which table the translation lands in,
//! which NIC structure to invalidate, and which cost constants apply
//! (user-level `ioctl` vs in-handler kernel work).
//!
//! Events go through a `sink` closure rather than a probe reference so the
//! engines can keep their two emission disciplines: the hierarchical and
//! interrupt engines forward straight to their [`ProbeSlot`]
//! (`crate::obs::ProbeSlot`), while §3.1/§3.2 buffer events across the
//! borrow-heavy miss path and flush before the closing `Lookup`.

use crate::obs::{Event, EvictReason};
use crate::policy::{PinnedSet, Policy};
use crate::{Result, TranslationStats};
use utlb_mem::{Host, PinnedPage, ProcessId, VirtPage};
use utlb_nic::{Board, Nanos};

/// Advances the board clock by a microsecond-denominated charge — the one
/// clock idiom every engine shares.
pub fn charge_us(board: &mut Board, us: f64) {
    board.clock.advance(Nanos::from_micros(us));
}

/// Per-process pinning state and counters, shared by every engine.
///
/// The core owns the buffers its driver calls and victim selections fill,
/// so a pin or an eviction allocates nothing once they have grown, and
/// [`reset`](Self::reset) lets an engine hand a dead process' core, buffers
/// and all, to the next process it registers.
#[derive(Debug)]
pub struct PinCore {
    /// Pinned pages under the application-chosen replacement policy.
    pub pinned: PinnedSet,
    /// The engine's counters for this process.
    pub stats: TranslationStats,
    /// Out of line: only the miss path touches them.
    bufs: Box<PinBuffers>,
}

/// The buffers a [`PinCore`] fills.
#[derive(Debug, Default)]
struct PinBuffers {
    /// The translations of the last [`PinCore::pin`].
    translations: Vec<PinnedPage>,
    /// The victim of the last [`PinCore::select_victim`].
    victims: Vec<VirtPage>,
}

impl PinCore {
    /// A fresh core for `pid`: an empty [`PinnedSet`] seeded per process
    /// (so RANDOM replacement decorrelates across processes) and zeroed
    /// counters.
    pub fn new(policy: Policy, seed: u64, pid: ProcessId) -> Self {
        PinCore {
            pinned: PinnedSet::new(policy, seed ^ pid.raw() as u64),
            stats: TranslationStats::default(),
            bufs: Box::default(),
        }
    }

    /// Readies this core for `pid` exactly as [`PinCore::new`] with the
    /// same policy and `seed` would, keeping the storage it grew.
    pub fn reset(&mut self, seed: u64, pid: ProcessId) {
        self.pinned.reset(seed ^ pid.raw() as u64);
        self.stats = TranslationStats::default();
    }

    /// The replacement policy's single next victim, if any page is
    /// evictable.
    pub fn select_victim(&mut self) -> Option<VirtPage> {
        self.pinned.select_victims(1, &mut self.bufs.victims);
        self.bufs.victims.first().copied()
    }

    /// The counter/recency work of a pure translation hit, shared by every
    /// engine's batched fast path: one lookup counted and the page's
    /// recency refreshed in the replacement set. The caller owns the clock
    /// charge (batched walks coalesce the identical hit charges of a run
    /// into one advance) and the NIC-side structure probe.
    #[inline]
    pub fn fast_hit(&mut self, page: VirtPage) {
        self.stats.lookups += 1;
        self.pinned.touch(page);
    }

    /// The demand-unpin path: charge `unpin_us` to the board clock, drop
    /// the driver pin, update the replacement set and counters, and narrate
    /// the eviction as `Evict { reason }` + `Unpin`.
    ///
    /// The caller is responsible for whatever the page's translation lived
    /// in — invalidating a table slot, a cache line, or a bit vector —
    /// before or after this call; none of that work charges the clock.
    ///
    /// # Errors
    ///
    /// Propagates driver unpin failures.
    #[allow(clippy::too_many_arguments)] // host/board/pid threading is the engine calling convention
    pub fn unpin(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        victim: VirtPage,
        unpin_us: f64,
        reason: EvictReason,
        sink: &mut dyn FnMut(Event),
    ) -> Result<()> {
        charge_us(board, unpin_us);
        host.driver_unpin(pid, victim)?;
        self.pinned.remove(victim);
        self.stats.unpins += 1;
        self.stats.unpin_calls += 1;
        let ns = (unpin_us * 1000.0) as u64;
        self.stats.unpin_time_ns += ns;
        sink(Event::Evict { reason });
        sink(Event::Unpin { ns });
        Ok(())
    }

    /// The demand-pin path: charge `pin_us`, pin `run` pages starting at
    /// `start` through one driver call, track them in the replacement set,
    /// bump the counters, and narrate one `Pin` event.
    ///
    /// Returns the driver's `(page, frame)` pairs, from a buffer the core
    /// owns, so the caller can install the translations in its own
    /// structure — the only step that differs between engines.
    ///
    /// # Errors
    ///
    /// Propagates driver pin failures.
    #[allow(clippy::too_many_arguments)] // host/board/pid threading is the engine calling convention
    pub fn pin(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        start: VirtPage,
        run: u64,
        pin_us: f64,
        sink: &mut dyn FnMut(Event),
    ) -> Result<&[PinnedPage]> {
        charge_us(board, pin_us);
        let translations = &mut self.bufs.translations;
        host.driver_pin(pid, start, run, translations)?;
        for p in translations.iter() {
            self.pinned.insert(p.page());
        }
        let pinned = translations.len() as u64;
        self.stats.pins += pinned;
        self.stats.pin_calls += 1;
        let ns = (pin_us * 1000.0) as u64;
        self.stats.pin_time_ns += ns;
        sink(Event::Pin { run: pinned, ns });
        Ok(&self.bufs.translations)
    }
}

/// Sums the counters of an iterator of cores — the body every engine's
/// `aggregate_stats` shares.
pub fn aggregate<'a>(cores: impl Iterator<Item = &'a PinCore>) -> TranslationStats {
    cores
        .map(|c| c.stats)
        .fold(TranslationStats::default(), |a, b| a + b)
}

/// Generates the accessor quartet every engine's
/// [`TranslationMechanism`](crate::TranslationMechanism) impl shares —
/// probe attach/detach plus per-process and aggregate statistics — for an
/// engine with a `probe` slot and a `procs` map. `$core` maps a `procs`
/// value to its [`PinCore`].
macro_rules! probe_stats_accessors {
    ($core:expr) => {
        fn set_probe(
            &mut self,
            probe: Box<dyn crate::obs::Probe>,
        ) -> Option<Box<dyn crate::obs::Probe>> {
            self.probe.attach(probe)
        }

        fn take_probe(&mut self) -> Option<Box<dyn crate::obs::Probe>> {
            self.probe.detach()
        }

        fn stats(&self, pid: utlb_mem::ProcessId) -> crate::Result<crate::TranslationStats> {
            self.procs
                .get(&pid)
                .map($core)
                .map(|c: &crate::PinCore| c.stats)
                .ok_or(crate::UtlbError::UnregisteredProcess(pid))
        }

        fn aggregate_stats(&self) -> crate::TranslationStats {
            crate::pincore::aggregate(self.procs.values().map($core))
        }
    };
}
pub(crate) use probe_stats_accessors;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_then_unpin_round_trips_counters_and_events() {
        let mut host = Host::new(1 << 12);
        let mut board = Board::new();
        let pid = host.spawn_process();
        let mut core = PinCore::new(Policy::Lru, 7, pid);
        let mut events = Vec::new();
        let mut sink = |ev: Event| events.push(ev);

        let t0 = board.clock.now();
        let pinned = core
            .pin(
                &mut host,
                &mut board,
                pid,
                VirtPage::new(3),
                2,
                54.0,
                &mut sink,
            )
            .unwrap();
        assert_eq!(pinned.len(), 2);
        assert_eq!(core.stats.pins, 2);
        assert_eq!(core.stats.pin_calls, 1);
        assert_eq!(core.stats.pin_time_ns, 54_000);
        assert_eq!((board.clock.now() - t0).as_nanos(), 54_000);
        assert!(host.driver().pins().is_pinned(pid, VirtPage::new(4)));

        core.unpin(
            &mut host,
            &mut board,
            pid,
            VirtPage::new(3),
            25.0,
            EvictReason::TableFull,
            &mut sink,
        )
        .unwrap();
        assert_eq!(core.stats.unpins, 1);
        assert_eq!(core.stats.unpin_calls, 1);
        assert_eq!(core.stats.unpin_time_ns, 25_000);
        assert!(!host.driver().pins().is_pinned(pid, VirtPage::new(3)));
        assert_eq!(
            events,
            vec![
                Event::Pin { run: 2, ns: 54_000 },
                Event::Evict {
                    reason: EvictReason::TableFull
                },
                Event::Unpin { ns: 25_000 },
            ]
        );
    }

    #[test]
    fn a_reset_core_starts_like_a_new_one() {
        let mut host = Host::new(1 << 12);
        let mut board = Board::new();
        let p1 = host.spawn_process();
        let p2 = host.spawn_process();
        let mut core = PinCore::new(Policy::Random, 5, p1);
        core.pin(
            &mut host,
            &mut board,
            p1,
            VirtPage::new(0),
            4,
            1.0,
            &mut |_| {},
        )
        .unwrap();
        core.stats.lookups = 9;
        core.reset(5, p2);
        assert_eq!(core.stats, TranslationStats::default());
        assert!(core.pinned.is_empty());
        let mut fresh = PinCore::new(Policy::Random, 5, p2);
        for c in [&mut core, &mut fresh] {
            c.pin(
                &mut host,
                &mut board,
                p2,
                VirtPage::new(10),
                6,
                1.0,
                &mut |_| {},
            )
            .unwrap();
        }
        for _ in 0..3 {
            let victim = core.select_victim();
            assert_eq!(victim, fresh.select_victim());
            let victim = victim.expect("six pages are evictable");
            core.pinned.remove(victim);
            fresh.pinned.remove(victim);
        }
    }

    #[test]
    fn per_process_seeds_differ() {
        let mut host = Host::new(1 << 12);
        let p1 = host.spawn_process();
        let p2 = host.spawn_process();
        let a = PinCore::new(Policy::Random, 0xABCD, p1);
        let b = PinCore::new(Policy::Random, 0xABCD, p2);
        // Different pids perturb the seed; the sets start equally empty.
        assert_eq!(a.pinned.len(), 0);
        assert_eq!(b.pinned.len(), 0);
    }

    #[test]
    fn aggregate_sums_across_cores() {
        let mut host = Host::new(1 << 12);
        let p1 = host.spawn_process();
        let p2 = host.spawn_process();
        let mut a = PinCore::new(Policy::Lru, 1, p1);
        let mut b = PinCore::new(Policy::Lru, 1, p2);
        a.stats.lookups = 3;
        b.stats.lookups = 4;
        let cores = [a, b];
        assert_eq!(aggregate(cores.iter()).lookups, 7);
    }
}
