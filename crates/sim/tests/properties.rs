//! Property-based tests of the simulation layer.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use utlb_mem::{ProcessId, VirtPage};
use utlb_sim::{
    Mechanism, MissBreakdown, MissClassifier, MissKind, Run, RunOutputExt, SimConfig, SimResult,
};
use utlb_trace::{gen, GenConfig, SplashApp, Trace};

fn run_utlb(trace: &Trace, cfg: &SimConfig) -> SimResult {
    Run::new(Mechanism::Utlb)
        .config(cfg)
        .execute(trace)
        .into_sim()
        .unwrap()
}

fn run_intr(trace: &Trace, cfg: &SimConfig) -> SimResult {
    Run::new(Mechanism::Intr)
        .config(cfg)
        .execute(trace)
        .into_sim()
        .unwrap()
}

/// A naive reference 3C classifier: an explicit fully-associative LRU list
/// (O(n) per access) plus a seen-set.
struct NaiveClassifier {
    capacity: usize,
    seen: HashSet<(u32, u64)>,
    lru: Vec<(u32, u64)>, // most recent last
}

impl NaiveClassifier {
    fn new(capacity: usize) -> Self {
        NaiveClassifier {
            capacity,
            seen: Default::default(),
            lru: Vec::new(),
        }
    }

    fn access(&mut self, pid: u32, vpn: u64, real_miss: bool) -> Option<MissKind> {
        let key = (pid, vpn);
        let kind = if real_miss {
            Some(if !self.seen.contains(&key) {
                MissKind::Compulsory
            } else if self.lru.contains(&key) {
                MissKind::Conflict
            } else {
                MissKind::Capacity
            })
        } else {
            None
        };
        self.seen.insert(key);
        self.lru.retain(|k| *k != key);
        self.lru.push(key);
        if self.lru.len() > self.capacity {
            self.lru.remove(0);
        }
        kind
    }
}

/// The tick-stamped classifier the slot-list one replaced, kept verbatim as
/// a reference: a seen-set, a tick per resident key and a touch queue whose
/// stale positions are skipped at eviction time.
struct TickClassifier {
    capacity: usize,
    seen: HashSet<(u32, u64)>,
    latest: HashMap<(u32, u64), u64>,
    queue: VecDeque<((u32, u64), u64)>,
    tick: u64,
    breakdown: MissBreakdown,
}

impl TickClassifier {
    fn new(capacity: usize) -> Self {
        TickClassifier {
            capacity,
            seen: HashSet::new(),
            latest: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
            breakdown: MissBreakdown::default(),
        }
    }

    fn access(&mut self, pid: ProcessId, page: VirtPage, real_miss: bool) -> Option<MissKind> {
        let key = (pid.raw(), page.number());
        let first_ref = !self.seen.contains(&key);
        let in_shadow = self.latest.contains_key(&key);

        let kind = if real_miss {
            let k = if first_ref {
                MissKind::Compulsory
            } else if in_shadow {
                MissKind::Conflict
            } else {
                MissKind::Capacity
            };
            match k {
                MissKind::Compulsory => self.breakdown.compulsory += 1,
                MissKind::Capacity => self.breakdown.capacity += 1,
                MissKind::Conflict => self.breakdown.conflict += 1,
            }
            Some(k)
        } else {
            None
        };

        self.seen.insert(key);
        self.shadow_touch(key);
        kind
    }

    fn shadow_touch(&mut self, key: (u32, u64)) {
        self.tick += 1;
        self.latest.insert(key, self.tick);
        self.queue.push_back((key, self.tick));
        while self.latest.len() > self.capacity {
            let (k, t) = self.queue.pop_front().expect("queue covers residents");
            match self.latest.get(&k) {
                Some(&newest) if newest == t => {
                    self.latest.remove(&k); // genuine LRU eviction
                }
                _ => {} // stale queue position; the key was touched later
            }
        }
        if self.queue.len() > 2 * self.latest.len() + 64 {
            let latest = &self.latest;
            self.queue.retain(|&(k, t)| latest.get(&k) == Some(&t));
        }
    }
}

/// A shadow capacity, then an access stream over 1–4 pids whose key space
/// is at most four times that capacity.
fn arb_classifier_stream() -> impl Strategy<Value = (usize, Vec<(u32, u64, bool)>)> {
    (1usize..=64)
        .prop_flat_map(|cap| (Just(cap), 1u32..=4, 1..=4 * cap as u64))
        .prop_flat_map(|(cap, pids, keys)| {
            let pages = keys.div_ceil(u64::from(pids));
            let access = (1..=pids, 0..pages, any::<bool>());
            (Just(cap), proptest::collection::vec(access, 1..5001))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streaming classifier agrees with the naive O(n) reference on
    /// arbitrary access/miss streams.
    #[test]
    fn classifier_matches_naive_reference(
        capacity in 1usize..16,
        stream in proptest::collection::vec((1u32..3, 0u64..24, any::<bool>()), 1..400),
    ) {
        let mut fast = MissClassifier::new(capacity);
        let mut slow = NaiveClassifier::new(capacity);
        for (pid, vpn, miss) in stream {
            let a = fast.access(ProcessId::new(pid), VirtPage::new(vpn), miss);
            let b = slow.access(pid, vpn, miss);
            prop_assert_eq!(a, b);
        }
    }

    /// The slot-list classifier returns the same kind on every access, and
    /// ends on the same breakdown, as the tick-stamped one it replaced.
    #[test]
    fn classifier_matches_tick_stamped_classifier(
        (capacity, stream) in arb_classifier_stream(),
    ) {
        let mut fast = MissClassifier::new(capacity);
        let mut old = TickClassifier::new(capacity);
        for (pid, vpn, miss) in stream {
            let (pid, page) = (ProcessId::new(pid), VirtPage::new(vpn));
            prop_assert_eq!(fast.access(pid, page, miss), old.access(pid, page, miss));
        }
        prop_assert_eq!(fast.breakdown(), old.breakdown);
    }

    /// Cross-mechanism invariants hold for any cache geometry on any app.
    #[test]
    fn sim_invariants_hold_for_any_geometry(
        seed in any::<u64>(),
        entries_log in 5u32..12,
        app_ix in 0usize..7,
    ) {
        let app = SplashApp::ALL[app_ix];
        let cfg = GenConfig { seed, scale: 0.03, app_processes: 4 };
        let trace = gen::generate(app, &cfg);
        let sim = SimConfig::study(1 << entries_log);
        let u = run_utlb(&trace, &sim);
        let i = run_intr(&trace, &sim);
        // Lookup conservation.
        prop_assert_eq!(u.stats.lookups, trace.total_lookups());
        prop_assert_eq!(i.stats.lookups, trace.total_lookups());
        // Same cache, same miss stream.
        prop_assert_eq!(u.stats.ni_misses, i.stats.ni_misses);
        // UTLB never unpins or interrupts with infinite memory.
        prop_assert_eq!(u.stats.unpins, 0);
        prop_assert_eq!(u.stats.interrupts, 0);
        // Intr: one interrupt per miss; pinned never exceeds cache size.
        prop_assert_eq!(i.stats.interrupts, i.stats.ni_misses);
        prop_assert!(i.stats.pins - i.stats.unpins <= (1 << entries_log));
        // Classification covers exactly the misses.
        prop_assert_eq!(u.breakdown.total(), u.stats.ni_misses);
        // Check misses = compulsory pins with infinite memory.
        prop_assert_eq!(u.stats.check_misses, u.stats.pins);
        // Probe accounting: at least one probe per lookup, at most the ways.
        let probes = u.probes_per_lookup();
        prop_assert!((1.0..=1.0 + 1e-9).contains(&probes), "direct-mapped probes {probes}");
    }

    /// A memory limit is always respected and the pin/unpin ledger balances,
    /// for any limit and policy.
    #[test]
    fn memory_limit_ledger_balances(
        seed in any::<u64>(),
        limit in 4u64..64,
        policy_ix in 0usize..5,
    ) {
        let cfg = GenConfig { seed, scale: 0.03, app_processes: 4 };
        let trace = gen::generate(SplashApp::Volrend, &cfg);
        let sim = SimConfig {
            policy: utlb_core::Policy::ALL[policy_ix],
            mem_limit_pages: Some(limit),
            ..SimConfig::study(1024)
        };
        let r = run_utlb(&trace, &sim);
        prop_assert!(r.stats.pins >= r.stats.unpins);
        // Per-process residency ≤ limit ⇒ total ≤ 5 × limit.
        prop_assert!(r.stats.pins - r.stats.unpins <= 5 * limit);
        prop_assert_eq!(r.stats.lookups, trace.total_lookups());
    }
}
