//! Where a key lives, for the shards of both commit protocols. What a
//! crashed client left held is taken back by `prism_core::lease`.

/// Where global keys live (the crate docs' placement rule): key `k` on
/// shard `k % shards`, at local index `k / shards`; and which keys and
/// values a client may ask for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    shards: u64,
    keys_per_shard: u64,
    value_len: u64,
}

impl Placement {
    pub(crate) fn new(shards: u64, keys_per_shard: u64, value_len: u64) -> Self {
        Placement {
            shards,
            keys_per_shard,
            value_len,
        }
    }

    /// Shard holding global key `k`.
    pub(crate) fn shard_of(&self, k: u64) -> usize {
        (k % self.shards) as usize
    }

    /// Local index of global key `k` on its shard.
    pub(crate) fn index_of(&self, k: u64) -> u64 {
        k / self.shards
    }

    /// The global key at local index `i` of shard `shard`.
    pub(crate) fn key(&self, shard: u64, i: u64) -> u64 {
        i * self.shards + shard
    }

    /// Panics unless every key is in range and every value
    /// `value_len` bytes long.
    pub(crate) fn check(&self, keys: &[u64], writes: &[(u64, Vec<u8>)]) {
        for (_, v) in writes {
            assert_eq!(v.len() as u64, self.value_len, "bad value len");
        }
        for k in keys.iter().chain(writes.iter().map(|(k, _)| k)) {
            assert!(
                self.index_of(*k) < self.keys_per_shard,
                "key {k} out of range"
            );
        }
    }
}
