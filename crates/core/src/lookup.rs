//! The user-level two-level lookup tree of the per-process UTLB.
//!
//! Paper §3 (third idea): the user library "keeps track of the mapping
//! between the translation table indices and the pinned virtual pages" with
//! "a standard two-level page table architecture ... Only two memory
//! references are required to obtain the UTLB index for a given virtual page
//! address."

use utlb_mem::{IntMap, VirtPage};

/// An index into the per-process UTLB translation table on the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UtlbIndex(pub u32);

/// Entries per second-level lookup table (10 bits of the vpn, as in a
/// classic x86-style two-level layout).
const LEAF_ENTRIES: u64 = 1024;

/// A second-level table: `LEAF_ENTRIES` slots.
type Leaf = Box<[Option<UtlbIndex>]>;

/// The two-level user-level lookup tree: virtual page → UTLB table index.
#[derive(Debug, Default)]
pub struct UserLookupTree {
    directory: IntMap<u64, Leaf>,
    entries: u64,
    /// Emptied leaves from [`clear`](Self::clear), reused before a new one
    /// is allocated. Never more than the most leaves the tree held at once.
    spare: Vec<Leaf>,
}

impl UserLookupTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of valid entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn split(page: VirtPage) -> (u64, usize) {
        let n = page.number();
        (n / LEAF_ENTRIES, (n % LEAF_ENTRIES) as usize)
    }

    /// Looks up the UTLB index of `page`: exactly two logical memory
    /// references (directory, then leaf).
    pub fn lookup(&self, page: VirtPage) -> Option<UtlbIndex> {
        let (dir, leaf) = Self::split(page);
        self.directory.get(&dir).and_then(|l| l[leaf])
    }

    /// Installs the mapping `page → index`, returning any previous index.
    pub fn install(&mut self, page: VirtPage, index: UtlbIndex) -> Option<UtlbIndex> {
        let (dir, leaf) = Self::split(page);
        let spare = &mut self.spare;
        let table = self.directory.entry(dir).or_insert_with(|| {
            spare
                .pop()
                .unwrap_or_else(|| vec![None; LEAF_ENTRIES as usize].into_boxed_slice())
        });
        let old = table[leaf].replace(index);
        if old.is_none() {
            self.entries += 1;
        }
        old
    }

    /// The leaf slice covering `page` and `page`'s offset inside it, or
    /// `None` if the leaf was never populated.
    ///
    /// One directory reference resolves up to `LEAF_ENTRIES` consecutive
    /// pages: the batched lookup path walks the returned slice directly
    /// instead of re-splitting and re-hashing per page. (The slice holds
    /// `LEAF_ENTRIES - offset` entries from `page` to the leaf edge; runs
    /// crossing the edge re-resolve the next leaf.)
    pub fn leaf(&self, page: VirtPage) -> Option<(&[Option<UtlbIndex>], usize)> {
        let (dir, leaf) = Self::split(page);
        self.directory.get(&dir).map(|l| (&l[..], leaf))
    }

    /// Removes every mapping, keeping the emptied leaves for reuse: a
    /// cleared tree looks up exactly like a new one.
    pub fn clear(&mut self) {
        for (_, mut leaf) in self.directory.drain() {
            leaf.fill(None);
            self.spare.push(leaf);
        }
        self.entries = 0;
    }

    /// Invalidates the mapping for `page`, returning the removed index.
    pub fn invalidate(&mut self, page: VirtPage) -> Option<UtlbIndex> {
        let (dir, leaf) = Self::split(page);
        let removed = self.directory.get_mut(&dir).and_then(|l| l[leaf].take());
        if removed.is_some() {
            self.entries -= 1;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn install_lookup_invalidate() {
        let mut t = UserLookupTree::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(page(100)), None);
        assert_eq!(t.install(page(100), UtlbIndex(7)), None);
        assert_eq!(t.lookup(page(100)), Some(UtlbIndex(7)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.install(page(100), UtlbIndex(9)), Some(UtlbIndex(7)));
        assert_eq!(t.len(), 1, "replacement does not grow the tree");
        assert_eq!(t.invalidate(page(100)), Some(UtlbIndex(9)));
        assert_eq!(t.invalidate(page(100)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn pages_in_different_leaves_are_independent() {
        let mut t = UserLookupTree::new();
        t.install(page(5), UtlbIndex(1));
        t.install(page(5 + LEAF_ENTRIES), UtlbIndex(2));
        assert_eq!(t.lookup(page(5)), Some(UtlbIndex(1)));
        assert_eq!(t.lookup(page(5 + LEAF_ENTRIES)), Some(UtlbIndex(2)));
    }

    #[test]
    fn leaf_slice_agrees_with_per_page_lookup() {
        let mut t = UserLookupTree::new();
        t.install(page(100), UtlbIndex(1));
        t.install(page(101), UtlbIndex(2));
        let (slice, off) = t.leaf(page(100)).expect("leaf populated");
        assert_eq!(off, 100);
        assert_eq!(slice[off], Some(UtlbIndex(1)));
        assert_eq!(slice[off + 1], Some(UtlbIndex(2)));
        assert_eq!(slice[off + 2], None);
        assert_eq!(slice.len(), LEAF_ENTRIES as usize);
        assert!(t.leaf(page(LEAF_ENTRIES)).is_none(), "unpopulated leaf");
    }

    #[test]
    fn a_cleared_tree_has_no_stale_entries() {
        let mut t = UserLookupTree::new();
        t.install(page(3), UtlbIndex(1));
        t.install(page(3 + LEAF_ENTRIES), UtlbIndex(2));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(page(3)), None);
        assert!(t.leaf(page(3)).is_none(), "no leaf survives a clear");
        // The reused leaves come back empty wherever they land.
        t.install(page(7 + 5 * LEAF_ENTRIES), UtlbIndex(9));
        t.install(page(8 + 6 * LEAF_ENTRIES), UtlbIndex(10));
        let (slice, _) = t.leaf(page(5 * LEAF_ENTRIES)).expect("leaf populated");
        assert_eq!(slice.iter().flatten().count(), 1);
        let (slice, _) = t.leaf(page(6 * LEAF_ENTRIES)).expect("leaf populated");
        assert_eq!(slice.iter().flatten().count(), 1);
        assert_eq!(t.lookup(page(3)), None);
        assert_eq!(t.lookup(page(3 + LEAF_ENTRIES)), None);
        assert_eq!(t.lookup(page(7 + 5 * LEAF_ENTRIES)), Some(UtlbIndex(9)));
        assert_eq!(t.len(), 2);
        // A third leaf is new storage.
        t.install(page(9 * LEAF_ENTRIES), UtlbIndex(11));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn sparse_high_addresses_work() {
        let mut t = UserLookupTree::new();
        let high = page((1 << 52) / 4096);
        t.install(high, UtlbIndex(3));
        assert_eq!(t.lookup(high), Some(UtlbIndex(3)));
    }
}
