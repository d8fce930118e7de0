//! Key hashing and slot probing.
//!
//! Both stores index keys into a fixed-capacity slot array with linear
//! probing on collision (Pilaf's paper also supports cuckoo hashing; the
//! PRISM evaluation "use\[s\] a collisionless hash function", §6.2, so the
//! figure runs use [`HashScheme::Collisionless`] and the general path is
//! FNV-1a with linear probing).

/// How keys map to hash-table slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashScheme {
    /// FNV-1a over the key bytes; collisions resolved by linear probing.
    Fnv,
    /// The evaluation mode (§6.2): keys are little-endian u64 indices in
    /// `[0, capacity)`, mapped to themselves. Requires 8-byte keys.
    Collisionless,
}

/// FNV-1a 64-bit hash.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl HashScheme {
    /// The slot for `key` on probe attempt `attempt` (0-based), in a
    /// table of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics in `Collisionless` mode if the key is not exactly 8 bytes
    /// or indexes outside the table — that mode is only for generated
    /// workloads whose key space matches the table. A server handed a
    /// key by the network checks `HashScheme::places` first.
    pub fn slot(self, key: &[u8], attempt: u64, capacity: u64) -> u64 {
        debug_assert!(capacity > 0);
        match self {
            HashScheme::Fnv => (fnv1a(key).wrapping_add(attempt)) % capacity,
            HashScheme::Collisionless => {
                let k = u64::from_le_bytes(
                    key.try_into()
                        .expect("collisionless mode needs 8-byte keys"),
                );
                assert!(k < capacity, "key {k} outside collisionless table");
                (k + attempt) % capacity
            }
        }
    }

    /// Whether [`HashScheme::slot`] can place `key` in a table of
    /// `capacity` slots: any key under `Fnv`, an 8-byte key below
    /// `capacity` under `Collisionless`.
    pub(crate) fn places(self, key: &[u8], capacity: u64) -> bool {
        match self {
            HashScheme::Fnv => true,
            HashScheme::Collisionless => {
                <[u8; 8]>::try_from(key).is_ok_and(|k| u64::from_le_bytes(k) < capacity)
            }
        }
    }
}

/// Encodes a u64 workload key as the 8-byte key both stores use in the
/// figure experiments ("8 byte keys", §6.2).
pub fn key_bytes(k: u64) -> [u8; 8] {
    k.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distributes() {
        // Adjacent keys should not collide in a modest table.
        let capacity = 1024;
        let mut slots: Vec<u64> = (0..100u64)
            .map(|k| HashScheme::Fnv.slot(&key_bytes(k), 0, capacity))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() > 90, "too many collisions: {}", slots.len());
    }

    #[test]
    fn probing_advances_one_slot() {
        let s0 = HashScheme::Fnv.slot(b"key", 0, 100);
        let s1 = HashScheme::Fnv.slot(b"key", 1, 100);
        assert_eq!((s0 + 1) % 100, s1);
    }

    #[test]
    fn collisionless_is_identity() {
        for k in [0u64, 5, 99] {
            assert_eq!(HashScheme::Collisionless.slot(&key_bytes(k), 0, 100), k);
        }
    }

    #[test]
    #[should_panic(expected = "outside collisionless table")]
    fn collisionless_range_checked() {
        HashScheme::Collisionless.slot(&key_bytes(100), 0, 100);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
