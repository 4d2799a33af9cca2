//! A fast hasher for the simulator's small-integer keys.
//!
//! The hot maps of the substrate and the engines are keyed by process ids,
//! page numbers and table slots. The standard library's SipHash defends
//! against adversarial keys, which a simulator never sees, at several times
//! the cost of a multiply. [`IntHasher`] folds each word in with an add and
//! a multiply by an odd constant. `finish` xors the high half of the state
//! into the low half, multiplies again and rotates, so the well-mixed high
//! bits of the product land in the low bits the table uses to pick a
//! bucket. One multiply and a rotate alone leave strided keys (page numbers
//! of aligned buffers) on a lattice that fills a fraction of the buckets;
//! the second round spreads them about as well as random keys.
//!
//! No output may depend on a map's iteration order: every map this hasher
//! backs is only probed, or iterated into an order-free result (a sum, a
//! sort, or a heap of unique keys).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for integer keys: an add and a multiply per word,
/// then an xor-shift, a second multiply and a rotate in `finish`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(K).rotate_left(26)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`IntHasher`]: stateless,
/// so every map hashes a key the same way on every run.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` over [`IntHasher`]; build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let b = IntBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(b.hash_one(42u64), b.hash_one(43u64));
        assert_ne!(b.hash_one(0u32), b.hash_one(1u32));
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // 256 random keys fill about 63% of 256 buckets. Keys a power of
        // two apart share their low bits, yet must spread about as well.
        let b = IntBuildHasher::default();
        for stride in [1u64, 8, 64, 512, 1024, 4096, 1 << 20] {
            let buckets: std::collections::HashSet<u64> =
                (0..256u64).map(|i| b.hash_one(i * stride) & 0xff).collect();
            assert!(
                buckets.len() > 128,
                "stride {stride}: {} of 256 buckets used",
                buckets.len()
            );
        }
    }

    #[test]
    fn map_alias_behaves_like_a_map() {
        let mut m: IntMap<u64, u32> = IntMap::default();
        for i in 0..1000 {
            m.insert(i * 4096, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&(i * 4096)] == i as u32));
    }
}
