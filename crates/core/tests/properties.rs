//! Property-based tests of the UTLB core invariants.

use proptest::prelude::*;
use utlb_core::{
    Associativity, CacheConfig, PinBitVector, PinnedSet, Policy, SharedUtlbCache,
    TranslationMechanism, UtlbConfig, UtlbEngine,
};
use utlb_mem::{Host, PhysAddr, ProcessId, VirtPage};
use utlb_nic::Board;

/// Reference replacement set: the original collect-and-sort `PinnedSet`,
/// kept verbatim as the executable spec every policy's victim order is
/// checked against.
mod reference {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use utlb_core::Policy;
    use utlb_mem::VirtPage;

    #[derive(Debug, Clone, Copy)]
    struct PageMeta {
        last_use: u64,
        uses: u64,
        outstanding: u32,
    }

    pub struct SortedSet {
        pages: HashMap<u64, PageMeta>,
        policy: Policy,
        tick: u64,
        rng: StdRng,
    }

    impl SortedSet {
        pub fn new(policy: Policy, seed: u64) -> Self {
            SortedSet {
                pages: HashMap::new(),
                policy,
                tick: 0,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        pub fn len(&self) -> usize {
            self.pages.len()
        }

        pub fn insert(&mut self, page: VirtPage) {
            self.tick += 1;
            self.pages.insert(
                page.number(),
                PageMeta {
                    last_use: self.tick,
                    uses: 1,
                    outstanding: 0,
                },
            );
        }

        pub fn touch(&mut self, page: VirtPage) {
            self.tick += 1;
            if let Some(meta) = self.pages.get_mut(&page.number()) {
                meta.last_use = self.tick;
                meta.uses += 1;
            }
        }

        pub fn remove(&mut self, page: VirtPage) {
            self.pages.remove(&page.number());
        }

        pub fn hold(&mut self, page: VirtPage) {
            if let Some(meta) = self.pages.get_mut(&page.number()) {
                meta.outstanding += 1;
            }
        }

        pub fn release(&mut self, page: VirtPage) {
            if let Some(meta) = self.pages.get_mut(&page.number()) {
                meta.outstanding = meta.outstanding.saturating_sub(1);
            }
        }

        pub fn select_victims(&mut self, count: usize) -> Vec<VirtPage> {
            let mut candidates: Vec<(u64, PageMeta)> = self
                .pages
                .iter()
                .filter(|(_, m)| m.outstanding == 0)
                .map(|(p, m)| (*p, *m))
                .collect();
            if candidates.is_empty() || count == 0 {
                return Vec::new();
            }
            match self.policy {
                Policy::Lru => candidates.sort_by_key(|(p, m)| (m.last_use, *p)),
                Policy::Mru => candidates.sort_by_key(|(p, m)| (std::cmp::Reverse(m.last_use), *p)),
                Policy::Lfu => candidates.sort_by_key(|(p, m)| (m.uses, m.last_use, *p)),
                Policy::Mfu => {
                    candidates.sort_by_key(|(p, m)| (std::cmp::Reverse(m.uses), m.last_use, *p))
                }
                Policy::Random => {
                    let n = candidates.len();
                    candidates.sort_by_key(|(p, _)| *p);
                    for i in 0..count.min(n) {
                        let j = self.rng.gen_range(i..n);
                        candidates.swap(i, j);
                    }
                }
            }
            candidates
                .into_iter()
                .take(count)
                .map(|(p, _)| VirtPage::new(p))
                .collect()
        }
    }
}

fn any_assoc() -> impl Strategy<Value = Associativity> {
    prop_oneof![
        Just(Associativity::Direct),
        Just(Associativity::TwoWay),
        Just(Associativity::FourWay),
    ]
}

proptest! {
    /// The Shared UTLB-Cache behaves like a map with bounded residency:
    /// a lookup after insert either returns exactly what was inserted or
    /// misses (evicted); it never returns a wrong translation.
    #[test]
    fn cache_never_returns_wrong_translation(
        entries_log in 2u32..8,
        assoc in any_assoc(),
        offsetting in any::<bool>(),
        accesses in proptest::collection::vec((1u32..4, 0u64..512), 1..300),
    ) {
        let entries = (1usize << entries_log) * assoc.ways();
        let mut cache = SharedUtlbCache::new(CacheConfig { entries, associativity: assoc, offsetting });
        let mut model = std::collections::HashMap::new();
        for (pid_raw, vpn) in accesses {
            let pid = ProcessId::new(pid_raw);
            let page = VirtPage::new(vpn);
            let truth = PhysAddr::new((u64::from(pid_raw) << 32) | (vpn << 12));
            match cache.lookup(pid, page) {
                Some(got) => prop_assert_eq!(got, truth, "stale or foreign translation"),
                None => {
                    cache.insert(pid, page, truth);
                    model.insert((pid_raw, vpn), truth);
                }
            }
            prop_assert!(cache.occupancy() <= entries);
        }
    }

    /// Invalidation removes exactly the named line.
    #[test]
    fn cache_invalidate_is_precise(vpns in proptest::collection::vec(0u64..64, 2..32)) {
        let mut cache = SharedUtlbCache::new(CacheConfig::direct(256));
        let pid = ProcessId::new(1);
        for &v in &vpns {
            cache.insert(pid, VirtPage::new(v), PhysAddr::new(v << 12));
        }
        let victim = vpns[0];
        cache.invalidate(pid, VirtPage::new(victim));
        prop_assert!(cache.peek(pid, VirtPage::new(victim)).is_none());
        for &v in &vpns[1..] {
            if v != victim {
                prop_assert_eq!(cache.peek(pid, VirtPage::new(v)), Some(PhysAddr::new(v << 12)));
            }
        }
    }

    /// The pin bit vector agrees with a reference HashSet under arbitrary
    /// set/clear/check interleavings.
    #[test]
    fn bitvec_matches_reference_set(
        ops in proptest::collection::vec((0u64..100_000, any::<bool>()), 1..300),
    ) {
        let mut v = PinBitVector::new();
        let mut model = std::collections::HashSet::new();
        for (vpn, set) in ops {
            let page = VirtPage::new(vpn);
            if set {
                prop_assert_eq!(v.set(page), model.insert(vpn));
            } else {
                prop_assert_eq!(v.clear(page), model.remove(&vpn));
            }
            prop_assert_eq!(v.is_set(page), model.contains(&vpn));
            prop_assert_eq!(v.count(), model.len() as u64);
        }
    }

    /// check_run finds exactly the first unpinned page of a run.
    #[test]
    fn check_run_agrees_with_scan(
        pinned in proptest::collection::hash_set(0u64..64, 0..40),
        start in 0u64..32,
        count in 1u64..32,
    ) {
        let mut v = PinBitVector::new();
        for &p in &pinned {
            v.set(VirtPage::new(p));
        }
        let expect = (start..start + count).find(|p| !pinned.contains(p));
        let got = v.check_run(VirtPage::new(start), count).first_unpinned.map(|p| p.number());
        prop_assert_eq!(got, expect);
    }

    /// Every policy selects only evictable pages, never more than asked,
    /// and never a held page.
    #[test]
    fn policies_respect_holds(
        policy_ix in 0usize..5,
        pages in proptest::collection::hash_set(0u64..64, 1..32),
        held in proptest::collection::hash_set(0u64..64, 0..16),
        want in 1usize..10,
    ) {
        let policy = Policy::ALL[policy_ix];
        let mut set = PinnedSet::new(policy, 99);
        for &p in &pages {
            set.insert(VirtPage::new(p));
        }
        for &h in &held {
            set.hold(VirtPage::new(h)); // no-op for untracked pages
        }
        let victims = set.select_victims(want);
        prop_assert!(victims.len() <= want);
        let evictable = pages.iter().filter(|p| !held.contains(p)).count();
        prop_assert_eq!(victims.len(), want.min(evictable));
        for v in &victims {
            prop_assert!(pages.contains(&v.number()));
            prop_assert!(!held.contains(&v.number()), "held page selected");
        }
    }

    /// Differential check of every policy against the collect-and-sort
    /// reference: over arbitrary interleavings of insert (including
    /// re-insert of a tracked page), touch (including untracked pages),
    /// hold, release, remove, and select (with or without evicting the
    /// victims), the victims match in value and order and the sizes agree
    /// at every step.
    #[test]
    fn victims_match_the_sorted_reference(
        policy_ix in 0usize..5,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..6, 0u64..24, 1usize..8), 1..300),
    ) {
        let policy = Policy::ALL[policy_ix];
        let mut set = PinnedSet::new(policy, seed);
        let mut spec = reference::SortedSet::new(policy, seed);
        for (op, vpn, k) in ops {
            let page = VirtPage::new(vpn);
            match op {
                0 => {
                    set.insert(page);
                    spec.insert(page);
                }
                1 => {
                    set.touch(page);
                    spec.touch(page);
                }
                2 => {
                    set.hold(page);
                    spec.hold(page);
                }
                3 => {
                    set.release(page);
                    spec.release(page);
                }
                4 => {
                    set.remove(page);
                    spec.remove(page);
                }
                _ => {
                    let got = set.select_victims(k);
                    prop_assert_eq!(&got, &spec.select_victims(k));
                    // Evict what was chosen, as the engines do — or, on
                    // odd pages, select again later without evicting.
                    if vpn % 2 == 0 {
                        for v in got {
                            set.remove(v);
                            spec.remove(v);
                        }
                    }
                }
            }
            prop_assert_eq!(set.len(), spec.len());
        }
    }

    /// Engine-level invariant: under any lookup sequence and memory limit,
    /// (a) translations are always correct, (b) the pinned count never
    /// exceeds the limit, (c) pins - unpins equals live pinned pages.
    #[test]
    fn engine_accounting_invariants(
        lookups in proptest::collection::vec(0u64..64, 1..150),
        limit in 2u64..16,
        prepin in prop_oneof![Just(1u64), Just(4), Just(16)],
    ) {
        let mut host = Host::new(1 << 12);
        let mut board = Board::new();
        let mut engine = UtlbEngine::new(UtlbConfig {
            cache: CacheConfig::direct(64),
            mem_limit_pages: Some(limit),
            prepin,
            ..UtlbConfig::default()
        });
        let pid = host.spawn_process();
        engine.register_process(&mut host, &mut board, pid).unwrap();
        for vpn in lookups {
            let report = engine
                .lookup_run(&mut host, &mut board, pid, VirtPage::new(vpn), 1)
                .unwrap();
            // Correctness: the returned frame is the process' real mapping.
            let expected = host
                .process(pid).unwrap()
                .space()
                .translate(VirtPage::new(vpn))
                .expect("pinned pages are mapped");
            prop_assert_eq!(report[0].phys, expected.base());
            let pinned = host.driver().pins().pinned_pages(pid);
            prop_assert!(pinned <= limit, "pinned {pinned} > limit {limit}");
            let s = engine.stats(pid).unwrap();
            prop_assert_eq!(s.pins - s.unpins, pinned);
        }
    }
}

proptest! {
    /// Translation *results* are invariant under every NIC-side performance
    /// knob: cache size, associativity, offsetting, and prefetch change
    /// miss counts and costs — never the physical address returned.
    /// (Prepinning is excluded: batching pins legitimately changes the
    /// *order* frames are allocated in, though each translation still
    /// matches the OS mapping — covered by `engine_accounting_invariants`.)
    #[test]
    fn performance_knobs_never_change_translations(
        lookups in proptest::collection::vec(0u64..96, 1..120),
        entries_log in 2u32..8,
        assoc in any_assoc(),
        offsetting in any::<bool>(),
        prefetch in prop_oneof![Just(1u64), Just(4), Just(16)],
    ) {
        let run = |cfg: UtlbConfig, lookups: &[u64]| -> Vec<u64> {
            let mut host = Host::new(1 << 12);
            let mut board = Board::new();
            let mut engine = UtlbEngine::new(cfg);
            let pid = host.spawn_process();
            engine.register_process(&mut host, &mut board, pid).unwrap();
            lookups
                .iter()
                .map(|&v| {
                    engine
                        .lookup_run(&mut host, &mut board, pid, VirtPage::new(v), 1)
                        .unwrap()[0]
                        .phys
                        .raw()
                })
                .collect()
        };
        let baseline = run(
            UtlbConfig {
                cache: CacheConfig::direct(64),
                ..UtlbConfig::default()
            },
            &lookups,
        );
        let entries = (1usize << entries_log) * assoc.ways();
        let tuned = run(
            UtlbConfig {
                cache: CacheConfig {
                    entries,
                    associativity: assoc,
                    offsetting,
                },
                prefetch,
                ..UtlbConfig::default()
            },
            &lookups,
        );
        // Frames allocate deterministically, so equal configs aside, the
        // translated physical addresses must be byte-identical.
        prop_assert_eq!(baseline, tuned);
    }

    /// HierTable behaves as a vpn→phys map with a garbage default, under
    /// arbitrary install/invalidate/swap interleavings.
    #[test]
    fn hier_table_matches_reference_map(
        ops in proptest::collection::vec((0u64..128, 0u8..4), 1..150),
    ) {
        use utlb_core::HierTable;
        use utlb_mem::{PhysAddr, PhysicalMemory, SwapDevice};
        use utlb_nic::Sram;

        let garbage = PhysAddr::new(0x00BA_D000);
        let mut phys = PhysicalMemory::new(512);
        let mut sram = Sram::new(1 << 20);
        let mut swap = SwapDevice::new();
        let mut table = HierTable::new(ProcessId::new(1), &mut sram, garbage).unwrap();
        let mut model: std::collections::HashMap<u64, u64> = Default::default();

        for (vpn, op) in ops {
            let page = VirtPage::new(vpn);
            match op {
                0 => {
                    // The driver faults a swapped table in before
                    // installing (the engine's swap-in-then-install order).
                    table.swap_in(page, &mut phys, &mut sram, &mut swap).unwrap();
                    let pa = PhysAddr::new((vpn + 1) << 12);
                    table.install(page, pa, &mut phys, &mut sram).unwrap();
                    model.insert(vpn, pa.raw());
                }
                1 => {
                    // Same driver discipline as install: resident first.
                    table.swap_in(page, &mut phys, &mut sram, &mut swap).unwrap();
                    table.invalidate(page, &mut phys, &sram).unwrap();
                    model.remove(&vpn);
                }
                2 => {
                    table.swap_out(page, &mut phys, &mut sram, &mut swap).unwrap();
                }
                _ => {
                    table.swap_in(page, &mut phys, &mut sram, &mut swap).unwrap();
                }
            }
            // Reading any *resident* entry agrees with the model; swapped
            // leaves simply aren't readable until swapped in.
            if table.entry_addr(page, &sram).unwrap().is_some() {
                let got = table.read_entry(page, &phys, &sram).unwrap().raw();
                let expect = model.get(&vpn).copied().unwrap_or(garbage.raw());
                prop_assert_eq!(got, expect, "vpn {}", vpn);
            }
            prop_assert_eq!(table.installed(), model.len() as u64);
        }
    }
}
