//! The unified mechanism API.
//!
//! The paper evaluates competing ways to translate addresses on the NIC —
//! the three UTLB variants of §3 and the interrupt-based baseline (§6.2) —
//! under identical workloads and cache structures. [`TranslationMechanism`]
//! captures the surface that comparison needs (register, translate, read
//! out statistics, attach a probe), so drivers can be written once and
//! instantiated per mechanism instead of duplicating the replay loop per
//! engine.

use crate::obs::Probe;
use crate::{CacheStats, LookupBatch, OutcomeBuf, PageOutcome, Result, TranslationStats};
use utlb_mem::{Host, ProcessId, VirtPage};
use utlb_nic::Board;

/// A NIC address-translation mechanism, as the simulation drives one.
///
/// Implemented by all four engines, each in its own module:
/// [`PerProcessEngine`](crate::PerProcessEngine) (per-process UTLB, §3.1),
/// [`IndexedEngine`](crate::IndexedEngine) (Shared UTLB-Cache over indexed
/// tables, §3.2), [`UtlbEngine`](crate::UtlbEngine) (Hierarchical UTLB,
/// §3.3), and [`IntrEngine`](crate::IntrEngine) (interrupt-based baseline,
/// §6.2). Per-page outcomes are normalized to
/// [`PageOutcome`]; the interrupt-based design has no user-level check, so
/// its outcomes always report `check_miss: false`, and the per-process UTLB
/// reads a statically allocated SRAM table, so its outcomes always report
/// `ni_miss: false`.
pub trait TranslationMechanism {
    /// Short human-readable mechanism name ("UTLB", "Intr").
    fn name(&self) -> &'static str;

    /// Whether pin/unpin work runs inside the host interrupt handler.
    ///
    /// The interrupt-based baseline does all pinning in interrupt context,
    /// so a contention model must queue that work behind host interrupt
    /// service; UTLB pins from the kernel top half on the miss path, where
    /// it serializes with the translation itself. Drivers use this to route
    /// each mechanism's miss-time work to the right contended resource.
    fn kernel_pins(&self) -> bool;

    /// Registers `pid` with the mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::AlreadyRegistered`](crate::UtlbError) on a
    /// duplicate and propagates resource exhaustion.
    fn register_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> Result<()>;

    /// Removes `pid`, releasing its pins and any NIC state.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::UnregisteredProcess`](crate::UtlbError) if
    /// unknown.
    fn unregister_process(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
    ) -> Result<()>;

    /// Translates `npages` pages starting at `start` — the scalar reference
    /// the batched [`lookup_run_into`](TranslationMechanism::lookup_run_into)
    /// path is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::UnregisteredProcess`](crate::UtlbError) if `pid`
    /// is unknown, even when `npages` is zero; propagates pinning and memory
    /// errors.
    fn lookup_run(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        start: VirtPage,
        npages: u64,
    ) -> Result<Vec<PageOutcome>>;

    /// Translates a batch into a caller-owned buffer, appending one outcome
    /// per page — the path the replay runners drive. A pure hit allocates
    /// nothing; a NIC miss or a pin may allocate inside the engine.
    ///
    /// Outcomes, statistics, probe events, and clock charges are identical
    /// to [`lookup_run`](TranslationMechanism::lookup_run); only the
    /// software overhead differs. The four engines share one walk that
    /// coalesces the clock charges of each run of consecutive hit pages;
    /// each engine finds those runs in its own translation structure.
    ///
    /// # Errors
    ///
    /// As for [`lookup_run`](TranslationMechanism::lookup_run).
    fn lookup_run_into(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        batch: LookupBatch,
        out: &mut OutcomeBuf,
    ) -> Result<()>;

    /// Per-process statistics.
    ///
    /// # Errors
    ///
    /// Returns [`UtlbError::UnregisteredProcess`](crate::UtlbError) if
    /// unknown.
    fn stats(&self, pid: ProcessId) -> Result<TranslationStats>;

    /// Statistics summed over all processes.
    fn aggregate_stats(&self) -> TranslationStats;

    /// NIC translation-cache counters.
    fn cache_stats(&self) -> CacheStats;

    /// Attaches an observability probe (see [`crate::obs`]), replacing and
    /// returning any previous one.
    fn set_probe(&mut self, probe: Box<dyn Probe>) -> Option<Box<dyn Probe>>;

    /// Detaches and returns the probe, if one was attached.
    fn take_probe(&mut self) -> Option<Box<dyn Probe>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CacheConfig, IndexedConfig, IndexedEngine, IntrConfig, IntrEngine, PerProcessConfig,
        PerProcessEngine, UtlbConfig, UtlbEngine, UtlbError,
    };

    fn drive<M: TranslationMechanism>(mut mech: M) -> (TranslationStats, CacheStats) {
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let pid = host.spawn_process();
        mech.register_process(&mut host, &mut board, pid).unwrap();
        for round in 0..2 {
            let pages = mech
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(40), 4)
                .unwrap();
            assert_eq!(pages.len(), 4);
            assert!(pages.iter().all(|p| p.ni_miss == (round == 0)));
        }
        let per = mech.stats(pid).unwrap();
        let agg = mech.aggregate_stats();
        assert_eq!(per, agg, "single process: per == aggregate");
        mech.unregister_process(&mut host, &mut board, pid).unwrap();
        assert_eq!(host.driver().pins().pinned_pages(pid), 0);
        (agg, mech.cache_stats())
    }

    /// Drives the batched entry point twice into one buffer, checking the
    /// trait contract: `lookup_run_into` *appends* (the caller owns
    /// clearing) and produces the same outcomes as the scalar path.
    fn drive_batched<M: TranslationMechanism>(mut mech: M, mut scalar: M) {
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let mut host_s = Host::new(1 << 16);
        let mut board_s = Board::new();
        let pid = host.spawn_process();
        assert_eq!(host_s.spawn_process(), pid);
        mech.register_process(&mut host, &mut board, pid).unwrap();
        scalar
            .register_process(&mut host_s, &mut board_s, pid)
            .unwrap();
        let mut out = OutcomeBuf::new();
        let mut reference = Vec::new();
        for _ in 0..2 {
            let batch = LookupBatch::new(pid, VirtPage::new(40), 4);
            mech.lookup_run_into(&mut host, &mut board, batch, &mut out)
                .unwrap();
            reference.extend(
                scalar
                    .lookup_run(&mut host_s, &mut board_s, pid, VirtPage::new(40), 4)
                    .unwrap(),
            );
        }
        assert_eq!(out.len(), 8, "two batches appended, none overwritten");
        assert_eq!(out.as_slice(), &reference[..]);
        assert_eq!(board.clock.now(), board_s.clock.now());
        assert_eq!(mech.aggregate_stats(), scalar.aggregate_stats());
        assert_eq!(mech.cache_stats(), scalar.cache_stats());
    }

    #[test]
    fn batched_entry_point_appends_and_matches_scalar_for_all_mechanisms() {
        drive_batched(
            UtlbEngine::new(UtlbConfig::default()),
            UtlbEngine::new(UtlbConfig::default()),
        );
        drive_batched(
            PerProcessEngine::new(PerProcessConfig::default()),
            PerProcessEngine::new(PerProcessConfig::default()),
        );
        drive_batched(
            IndexedEngine::new(IndexedConfig::default()),
            IndexedEngine::new(IndexedConfig::default()),
        );
        drive_batched(
            IntrEngine::new(IntrConfig::default()),
            IntrEngine::new(IntrConfig::default()),
        );
    }

    fn all_four() -> Vec<Box<dyn TranslationMechanism>> {
        vec![
            Box::new(UtlbEngine::new(UtlbConfig::default())),
            Box::new(PerProcessEngine::new(PerProcessConfig::default())),
            Box::new(IndexedEngine::new(IndexedConfig::default())),
            Box::new(IntrEngine::new(IntrConfig::default())),
        ]
    }

    /// The registration contract, identical for every mechanism and for
    /// both lookup entry points: an unknown pid is rejected before any work
    /// (even for an empty run), a duplicate registration is refused, and a
    /// process can be unregistered only once.
    #[test]
    fn every_mechanism_enforces_the_same_registration_contract() {
        for mut boxed in all_four() {
            let mech: &mut dyn TranslationMechanism = boxed.as_mut();
            let name = mech.name();
            let mut host = Host::new(1 << 16);
            let mut board = Board::new();
            let pid = host.spawn_process();
            let ghost = ProcessId::new(404);
            let unknown = |r: Result<()>| r == Err(UtlbError::UnregisteredProcess(ghost));

            let mut out = OutcomeBuf::new();
            let t0 = board.clock.now();
            for npages in [0, 2] {
                let scalar =
                    mech.lookup_run(&mut host, &mut board, ghost, VirtPage::new(8), npages);
                assert!(unknown(scalar.map(drop)), "{name}: lookup_run({npages})");
                let batch = LookupBatch::new(ghost, VirtPage::new(8), npages);
                let batched = mech.lookup_run_into(&mut host, &mut board, batch, &mut out);
                assert!(unknown(batched), "{name}: lookup_run_into({npages})");
            }
            assert!(out.is_empty(), "{name}: rejected batches append nothing");
            assert_eq!(board.clock.now(), t0, "{name}: rejected lookups are free");
            assert!(unknown(mech.stats(ghost).map(drop)), "{name}: stats");
            assert!(
                unknown(mech.unregister_process(&mut host, &mut board, ghost)),
                "{name}: unregister of an unknown pid"
            );
            assert_eq!(mech.aggregate_stats(), TranslationStats::default());

            mech.register_process(&mut host, &mut board, pid).unwrap();
            assert_eq!(
                mech.register_process(&mut host, &mut board, pid),
                Err(UtlbError::AlreadyRegistered(pid)),
                "{name}: duplicate registration"
            );
            mech.unregister_process(&mut host, &mut board, pid).unwrap();
            assert_eq!(
                mech.unregister_process(&mut host, &mut board, pid),
                Err(UtlbError::UnregisteredProcess(pid)),
                "{name}: second unregister"
            );
        }
    }

    #[test]
    fn both_engines_run_through_the_trait() {
        let utlb = UtlbEngine::new(UtlbConfig {
            cache: CacheConfig::direct(64),
            ..UtlbConfig::default()
        });
        assert_eq!(utlb.name(), "UTLB");
        assert!(!utlb.kernel_pins(), "UTLB pins outside interrupt context");
        let (stats, cache) = drive(utlb);
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.interrupts, 0);
        assert_eq!(cache.misses, 4);

        let intr = IntrEngine::new(IntrConfig {
            cache: CacheConfig::direct(64),
            ..IntrConfig::default()
        });
        assert_eq!(intr.name(), "Intr");
        assert!(intr.kernel_pins(), "the baseline pins inside the handler");
        let (stats, cache) = drive(intr);
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.interrupts, 4, "the baseline interrupts per miss");
        assert_eq!(cache.misses, 4);
    }

    #[test]
    fn section_three_variants_run_through_the_trait() {
        let indexed = IndexedEngine::new(IndexedConfig {
            cache: CacheConfig::direct(64),
            table_entries: 64,
            ..IndexedConfig::default()
        });
        assert_eq!(indexed.name(), "Indexed");
        assert!(!indexed.kernel_pins(), "§3.2 pins via a user-level ioctl");
        let (stats, cache) = drive(indexed);
        assert_eq!(stats.lookups, 8);
        assert_eq!(stats.interrupts, 0);
        assert_eq!(cache.misses, 4);

        // The per-process table never NI-misses, so it cannot go through
        // `drive`'s per-round miss assertions: every outcome reports a hit
        // on the NIC and the whole story happens at the user-level check.
        let mut pp = PerProcessEngine::new(PerProcessConfig {
            table_entries: 64,
            ..PerProcessConfig::default()
        });
        assert_eq!(pp.name(), "PerProc");
        assert!(!pp.kernel_pins(), "§3.1 pins via a user-level ioctl");
        let mut host = Host::new(1 << 16);
        let mut board = Board::new();
        let pid = host.spawn_process();
        pp.register_process(&mut host, &mut board, pid).unwrap();
        for round in 0..2 {
            let pages = pp
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(40), 4)
                .unwrap();
            assert_eq!(pages.len(), 4);
            assert!(pages.iter().all(|p| !p.ni_miss), "never NI-misses");
            assert!(pages.iter().all(|p| p.check_miss == (round == 0)));
        }
        assert_eq!(pp.aggregate_stats().lookups, 8);
        assert_eq!(pp.cache_stats(), CacheStats::default());
        pp.unregister_process(&mut host, &mut board, pid).unwrap();
        assert_eq!(host.driver().pins().pinned_pages(pid), 0);
    }
}
