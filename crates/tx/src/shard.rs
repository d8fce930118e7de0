//! What the shards of both commit protocols share: where a key lives,
//! and the lease that reclaims what a crashed client left behind.

use std::sync::Mutex;

use prism_rdma::hash::IntMap;

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

/// A two-sighting lease over a shard's words, for state whose owner may
/// have crashed: the server cannot tell a crashed client from a slow
/// one, so a stamp seen unchanged on two consecutive sweeps is declared
/// orphaned and reclaimed, and a changed stamp restarts the lease.
#[derive(Debug, Default)]
pub(crate) struct Lease(Mutex<IntMap<u64, u64>>);

impl Lease {
    /// One sweep over local indices `0..n`, in order: `stamp(i)` is the
    /// word's current stamp, `None` while it is idle (which forgets it);
    /// a stamp equal to the last sweep's is handed to `reclaim(i,
    /// stamp)`, otherwise it is remembered. Returns the number reclaimed.
    pub(crate) fn sweep(
        &self,
        n: u64,
        mut stamp: impl FnMut(u64) -> Option<u64>,
        mut reclaim: impl FnMut(u64, u64),
    ) -> u64 {
        let mut seen = self.0.lock().expect("lease lock");
        let mut reclaimed = 0;
        for i in 0..n {
            let last = seen.remove(&i);
            let Some(now) = stamp(i) else { continue };
            if last == Some(now) {
                reclaim(i, now);
                reclaimed += 1;
            } else {
                seen.insert(i, now);
            }
        }
        reclaimed
    }
}
