//! User-level replacement policies.
//!
//! Paper §3.4: "UTLB predefines five replacement policies for applications
//! to choose: LRU, MRU, LFU, MFU, and RANDOM." The policy picks which pinned
//! virtual pages to *unpin* when the process hits its pinned-memory limit.
//! Because the application chooses the policy, this is the
//! "application-controlled" part of the mechanism — the kernel only ever
//! sees pin/unpin calls.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use utlb_mem::{IntMap, VirtPage};

/// Which predefined replacement policy to use (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Policy {
    /// Least-recently-used (the policy used throughout the paper's study).
    #[default]
    Lru,
    /// Most-recently-used.
    Mru,
    /// Least-frequently-used.
    Lfu,
    /// Most-frequently-used.
    Mfu,
    /// Uniformly random among evictable pages.
    Random,
}

impl Policy {
    /// All predefined policies, for sweeps.
    pub const ALL: [Policy; 5] = [
        Policy::Lru,
        Policy::Mru,
        Policy::Lfu,
        Policy::Mfu,
        Policy::Random,
    ];
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Policy::Lru => "LRU",
            Policy::Mru => "MRU",
            Policy::Lfu => "LFU",
            Policy::Mfu => "MFU",
            Policy::Random => "RANDOM",
        };
        f.write_str(name)
    }
}

#[derive(Debug, Clone, Copy)]
struct PageMeta {
    last_use: u64,
    uses: u64,
    /// Pages involved in outstanding sends must not be unpinned (§3.1).
    outstanding: u32,
    /// LRU heap only: the key of this page's one live heap entry. Entries
    /// whose key differs are dead (left behind by a remove or re-insert).
    queued: u64,
}

/// An LRU heap entry: `(key, page)` in min-first order.
type LruEntry = Reverse<(u64, u64)>;

/// The set of pinned pages of one process, with the metadata the
/// replacement policies need.
///
/// The structure is policy-agnostic: every access records both recency and
/// frequency, and [`PinnedSet::select_victims`] applies whichever policy the
/// application chose.
#[derive(Debug)]
pub struct PinnedSet {
    pages: IntMap<u64, PageMeta>,
    policy: Policy,
    tick: u64,
    rng: StdRng,
    /// LRU only, built on the first eviction: a min-heap of `(last_use,
    /// page)` entries whose updates are deferred until a victim is needed.
    /// Every tracked page has exactly one live entry, and its key is at
    /// most the page's `last_use` (touches only raise it), so a stale
    /// entry sits too early, never too late; popping re-pushes it with its
    /// current key.
    lru: Option<BinaryHeap<LruEntry>>,
}

impl PinnedSet {
    /// Creates an empty set using `policy`, with a deterministic seed for
    /// the RANDOM policy.
    pub fn new(policy: Policy, seed: u64) -> Self {
        PinnedSet {
            pages: IntMap::default(),
            policy,
            tick: 0,
            rng: StdRng::seed_from_u64(seed),
            lru: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of pinned pages tracked.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages are pinned.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether `page` is tracked.
    pub fn contains(&self, page: VirtPage) -> bool {
        self.pages.contains_key(&page.number())
    }

    /// Registers a freshly pinned page.
    pub fn insert(&mut self, page: VirtPage) {
        self.tick += 1;
        self.pages.insert(
            page.number(),
            PageMeta {
                last_use: self.tick,
                uses: 1,
                outstanding: 0,
                queued: self.tick,
            },
        );
        if let Some(heap) = &mut self.lru {
            heap.push(Reverse((self.tick, page.number())));
            // Dead entries only leave the heap when popped; rebuild before
            // they outnumber the live ones so the heap stays O(len).
            if heap.len() > 2 * self.pages.len() + 32 {
                self.lru = Some(Self::build_lru(&mut self.pages));
            }
        }
    }

    /// Records a use of `page` (a translation lookup touching it).
    pub fn touch(&mut self, page: VirtPage) {
        self.tick += 1;
        if let Some(meta) = self.pages.get_mut(&page.number()) {
            meta.last_use = self.tick;
            meta.uses += 1;
        }
    }

    /// Removes `page` (after it was unpinned).
    pub fn remove(&mut self, page: VirtPage) {
        self.pages.remove(&page.number());
    }

    /// Marks `page` as held by an outstanding send; it cannot be a victim
    /// until released (§3.1: "the user-level library must only select
    /// virtual pages that will not be involved in any outstanding send
    /// requests").
    pub fn hold(&mut self, page: VirtPage) {
        if let Some(meta) = self.pages.get_mut(&page.number()) {
            meta.outstanding += 1;
        }
    }

    /// Releases one outstanding-send hold on `page`.
    pub fn release(&mut self, page: VirtPage) {
        if let Some(meta) = self.pages.get_mut(&page.number()) {
            meta.outstanding = meta.outstanding.saturating_sub(1);
        }
    }

    /// Number of pages currently evictable (pinned and not held).
    pub fn evictable(&self) -> usize {
        self.pages.values().filter(|m| m.outstanding == 0).count()
    }

    /// Selects up to `count` victim pages to unpin, per the policy.
    ///
    /// Held pages are never selected. Returns fewer than `count` victims if
    /// not enough pages are evictable. Victims are *not* removed; call
    /// [`PinnedSet::remove`] once the unpin succeeds.
    pub fn select_victims(&mut self, count: usize) -> Vec<VirtPage> {
        if count == 0 {
            return Vec::new();
        }
        match self.policy {
            Policy::Lru => self.select_lru(count),
            _ => self.select_sorted(count),
        }
    }

    /// One live entry per tracked page, keyed by its current `last_use`.
    fn build_lru(pages: &mut IntMap<u64, PageMeta>) -> BinaryHeap<LruEntry> {
        pages
            .iter_mut()
            .map(|(&p, m)| {
                m.queued = m.last_use;
                Reverse((m.last_use, p))
            })
            .collect()
    }

    /// LRU selection from the lazy heap: O(log n) per victim, plus one
    /// re-push per page touched since its entry was pushed. Victims come
    /// out in exactly the `(last_use, page)` order a full sort gives.
    fn select_lru(&mut self, count: usize) -> Vec<VirtPage> {
        let pages = &mut self.pages;
        let heap = self.lru.get_or_insert_with(|| Self::build_lru(pages));
        let mut victims = Vec::with_capacity(count.min(pages.len()));
        // Held pages stay tracked; so do victims until the caller removes
        // them after a successful unpin. Both get their live entries back.
        let mut keep = Vec::new();
        while victims.len() < count {
            let Some(Reverse((key, p))) = heap.pop() else {
                break;
            };
            let Some(meta) = pages.get_mut(&p) else {
                continue; // removed since pushed
            };
            if meta.queued != key {
                continue; // superseded by a re-insert
            }
            if meta.last_use > key {
                // Touched since pushed: requeue at its real position.
                meta.queued = meta.last_use;
                heap.push(Reverse((meta.last_use, p)));
                continue;
            }
            if meta.outstanding == 0 {
                victims.push(VirtPage::new(p));
            }
            keep.push(Reverse((key, p)));
        }
        heap.extend(keep);
        victims
    }

    /// Collect-and-sort selection for the policies whose keys a touch can
    /// move toward the head of a heap (MRU, MFU), that need the page-sorted
    /// shuffle (RANDOM), or that run only in the policy ablations (LFU).
    fn select_sorted(&mut self, count: usize) -> Vec<VirtPage> {
        let mut candidates: Vec<(u64, PageMeta)> = self
            .pages
            .iter()
            .filter(|(_, m)| m.outstanding == 0)
            .map(|(p, m)| (*p, *m))
            .collect();
        match self.policy {
            Policy::Lru => unreachable!("LRU selects from the lazy heap"),
            Policy::Mru => candidates.sort_by_key(|(p, m)| (Reverse(m.last_use), *p)),
            Policy::Lfu => candidates.sort_by_key(|(p, m)| (m.uses, m.last_use, *p)),
            Policy::Mfu => candidates.sort_by_key(|(p, m)| (Reverse(m.uses), m.last_use, *p)),
            Policy::Random => {
                // Partial Fisher-Yates: shuffle just the prefix we need.
                let n = candidates.len();
                // Sort first so the shuffle is deterministic given the seed,
                // independent of HashMap iteration order.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    fn set_with_pages(policy: Policy) -> PinnedSet {
        let mut s = PinnedSet::new(policy, 42);
        for i in 0..4 {
            s.insert(page(i));
        }
        // Access pattern: page 0 oldest & least used; page 3 newest;
        // page 1 most frequently used.
        s.touch(page(1));
        s.touch(page(1));
        s.touch(page(2));
        s.touch(page(3));
        s
    }

    #[test]
    fn lru_selects_oldest() {
        let mut s = set_with_pages(Policy::Lru);
        assert_eq!(s.select_victims(1), vec![page(0)]);
    }

    #[test]
    fn mru_selects_newest() {
        let mut s = set_with_pages(Policy::Mru);
        assert_eq!(s.select_victims(1), vec![page(3)]);
    }

    #[test]
    fn lfu_selects_least_used() {
        let mut s = set_with_pages(Policy::Lfu);
        // Page 0 has 1 use and is the least recently used tie-breaker.
        assert_eq!(s.select_victims(1), vec![page(0)]);
    }

    #[test]
    fn mfu_selects_most_used() {
        let mut s = set_with_pages(Policy::Mfu);
        // Page 1 has 3 uses (insert + 2 touches).
        assert_eq!(s.select_victims(1), vec![page(1)]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_within_set() {
        let mut a = set_with_pages(Policy::Random);
        let mut b = set_with_pages(Policy::Random);
        assert_eq!(a.select_victims(2), b.select_victims(2));
        let vs = a.select_victims(4);
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn outstanding_pages_are_never_victims() {
        let mut s = set_with_pages(Policy::Lru);
        s.hold(page(0));
        s.hold(page(0));
        assert_eq!(s.select_victims(1), vec![page(1)]);
        assert_eq!(s.evictable(), 3);
        s.release(page(0));
        assert_eq!(s.select_victims(1), vec![page(1)], "still one hold left");
        s.release(page(0));
        assert_eq!(s.select_victims(1), vec![page(0)]);
        // Releasing an unheld page is a no-op.
        s.release(page(2));
    }

    #[test]
    fn select_caps_at_evictable_count() {
        let mut s = set_with_pages(Policy::Lru);
        s.hold(page(2));
        let vs = s.select_victims(10);
        assert_eq!(vs.len(), 3);
        assert!(!vs.contains(&page(2)));
    }

    #[test]
    fn remove_and_contains() {
        let mut s = set_with_pages(Policy::Lru);
        assert!(s.contains(page(1)));
        s.remove(page(1));
        assert!(!s.contains(page(1)));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn policy_display_and_all() {
        assert_eq!(Policy::ALL.len(), 5);
        assert_eq!(Policy::Lru.to_string(), "LRU");
        assert_eq!(Policy::Random.to_string(), "RANDOM");
        assert_eq!(Policy::default(), Policy::Lru);
    }

    fn numbers(victims: Vec<VirtPage>) -> Vec<u64> {
        victims.into_iter().map(|v| v.number()).collect()
    }

    #[test]
    fn lru_heap_is_built_on_first_eviction_only() {
        let mut s = set_with_pages(Policy::Lru);
        assert!(s.lru.is_none(), "touch and insert never build the heap");
        assert!(s.select_victims(0).is_empty());
        assert!(s.lru.is_none(), "an empty request selects nothing");
        assert_eq!(numbers(s.select_victims(1)), vec![0]);
        assert!(s.lru.is_some());
    }

    #[test]
    fn lru_repeated_select_without_eviction_is_stable() {
        let mut s = set_with_pages(Policy::Lru);
        // Nothing removed between selects: victims stay in the heap.
        assert_eq!(numbers(s.select_victims(2)), vec![0, 1]);
        assert_eq!(numbers(s.select_victims(2)), vec![0, 1]);
        assert_eq!(numbers(s.select_victims(4)), vec![0, 1, 2, 3]);
        // A touch after the build moves the page to the back.
        s.touch(page(0));
        assert_eq!(numbers(s.select_victims(4)), vec![1, 2, 3, 0]);
    }

    #[test]
    fn lru_remove_then_reinsert_uses_the_new_recency() {
        let mut s = set_with_pages(Policy::Lru);
        assert_eq!(numbers(s.select_victims(1)), vec![0]);
        s.remove(page(0));
        assert_eq!(numbers(s.select_victims(1)), vec![1]);
        s.insert(page(0));
        assert_eq!(numbers(s.select_victims(4)), vec![1, 2, 3, 0]);
        // Re-inserting a tracked page also resets its recency; its old
        // heap entry is dead and never yields a duplicate.
        s.insert(page(2));
        assert_eq!(numbers(s.select_victims(4)), vec![1, 3, 0, 2]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn lru_held_pages_at_the_head_are_skipped_and_kept() {
        let mut s = set_with_pages(Policy::Lru);
        s.hold(page(0));
        s.hold(page(2));
        assert_eq!(numbers(s.select_victims(2)), vec![1, 3]);
        s.release(page(0));
        assert_eq!(numbers(s.select_victims(2)), vec![0, 1]);
        s.release(page(2));
        assert_eq!(numbers(s.select_victims(3)), vec![0, 1, 2]);
    }

    #[test]
    fn lru_count_beyond_evictable_returns_all_evictable_in_order() {
        let mut s = set_with_pages(Policy::Lru);
        s.hold(page(3));
        assert_eq!(numbers(s.select_victims(10)), vec![0, 1, 2]);
        // The exhausted heap was fully restored.
        assert_eq!(numbers(s.select_victims(10)), vec![0, 1, 2]);
        s.release(page(3));
        assert_eq!(numbers(s.select_victims(10)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn lru_heap_stays_bounded_under_reinserts() {
        let mut s = set_with_pages(Policy::Lru);
        s.select_victims(1);
        for i in 0..10_000 {
            s.insert(page(i % 4));
        }
        let heap_len = s.lru.as_ref().map_or(0, |h| h.len());
        assert!(heap_len <= 2 * s.len() + 33, "heap grew to {heap_len}");
        assert_eq!(numbers(s.select_victims(4)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn touch_of_untracked_page_is_noop() {
        let mut s = PinnedSet::new(Policy::Lru, 0);
        s.touch(page(9));
        assert!(s.is_empty());
    }
}
