//! A hasher for program-generated integer keys.
//!
//! Buffer addresses, request tags, operation sequence numbers and slot
//! indices are values this program mints itself, never attacker-chosen
//! input, so the collision-flooding resistance the default SipHash buys
//! is wasted on them — and the maps they key sit on per-message paths
//! (the client transport's tag tables). [`IntHasher`] is a 64-bit
//! avalanche instead. Keep the default hasher for any key that arrives
//! from outside the program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Splitmix-style finalizer folded over the integer fields of a key.
/// Every field is mixed into the running state, so a composite key such
/// as `(tag, attempt)` hashes all of its parts, not only the last.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut x = (self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` over program-generated integer keys.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over program-generated integer keys.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn every_field_of_a_composite_key_reaches_the_hash() {
        // Keys that differ only in an earlier field must not collide
        // wholesale (the bug a state-overwriting `write_u64` has: only
        // the last field would count).
        assert_ne!(hash_of((1u64, 7u64)), hash_of((2u64, 7u64)));
        assert_ne!(hash_of((1u64, 7u64)), hash_of((1u64, 8u64)));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        let firsts: IntSet<u64> = (0..1_000u64).map(|a| hash_of((a, 7u64))).collect();
        assert_eq!(firsts.len(), 1_000);
    }

    #[test]
    fn narrow_integers_take_the_same_path_as_u64() {
        assert_eq!(hash_of(9u32), hash_of(9u64));
        assert_eq!(hash_of(9usize), hash_of(9u64));
        assert_eq!(hash_of((3u64, 4u32)), hash_of((3u64, 4u64)));
    }

    #[test]
    fn sequential_keys_spread_over_low_and_high_bits() {
        // hashbrown indexes buckets by the low bits and tags them by the
        // top seven; tags of the form `seq << 32 | phase << 16 | idx`
        // must vary in both.
        let hashes: Vec<u64> = (1..=256u64).map(|seq| hash_of(seq << 32)).collect();
        let low: IntSet<u64> = hashes.iter().map(|h| h & 0xFF).collect();
        let high: IntSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 128, "low bytes: {}", low.len());
        assert!(high.len() > 64, "top-7-bit tags: {}", high.len());
    }

    #[test]
    fn a_lone_u64_hashes_as_the_buffer_queue_always_has() {
        // Splitmix64's first output for state 0x1234.
        let mut x = 0x1234u64.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        assert_eq!(hash_of(0x1234u64), x ^ (x >> 31));
    }
}
