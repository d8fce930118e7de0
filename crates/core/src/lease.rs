//! The one lease over held words: what takes back a word whose holder's
//! release was lost.
//!
//! A server cannot tell a crashed client from a slow one, so a word it
//! sees held by the same stamp on two consecutive sweeps is declared
//! orphaned and released, and a changed stamp restarts the lease (PAPER
//! §8.2's cooperative termination, §7.2's force-release). A server
//! states what it guards through [`Leased`]; [`Leased::sweep`] and
//! [`Leased::held`] are written once, here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use prism_rdma::hash::IntMap;

use crate::PrismServer;

/// A two-sighting lease: the stamp each held word showed at the last
/// sweep, and how many words its sweeps have released.
#[derive(Debug, Default)]
pub struct Lease {
    seen: Mutex<IntMap<u64, u64>>,
    reclaims: AtomicU64,
}

impl Lease {
    /// Words released by this lease's sweeps so far.
    pub fn reclaims(&self) -> u64 {
        self.reclaims.load(Ordering::Relaxed)
    }
}

/// Clears the 8-byte word at `addr` if, atomically, it still holds
/// `stamp`: the guarded release of a lock word that records its holder.
pub fn clear_if_held(server: &PrismServer, addr: u64, stamp: u64) {
    server
        .arena()
        .atomic(addr, 8, |b| {
            if u64::from_le_bytes(b.as_ref().try_into().expect("8 bytes")) == stamp {
                b.fill(0);
            }
        })
        .expect("lock word in arena");
}

/// What a server states for its lease to guard its words `0..words()`.
/// Object-safe, so a deployment can hand out each server's as
/// `&dyn Leased`.
pub trait Leased {
    /// The lease that remembers this server's sightings.
    fn lease(&self) -> &Lease;
    /// How many words the lease guards.
    fn words(&self) -> u64;
    /// Word `i`'s stamp while it is held, `None` while it is free. Two
    /// equal sightings must mean the same holder has not let go: a
    /// stamp that a later holder can repeat (ABDLOCK's client id) is
    /// sound only while no client runs.
    fn stamp(&self, i: u64) -> Option<u64>;
    /// Releases word `i` if, atomically, it still holds `stamp`; a no-op
    /// otherwise, so a release racing the holder's own is harmless.
    fn release(&self, i: u64, stamp: u64);

    /// One sweep over every word, in order: a word free now is
    /// forgotten, a stamp equal to the last sweep's is released, any
    /// other is remembered. Returns the number released this pass.
    fn sweep(&self) -> u64 {
        let lease = self.lease();
        let mut seen = lease.seen.lock().expect("lease lock");
        let mut released = 0;
        for i in 0..self.words() {
            let last = seen.remove(&i);
            let Some(now) = self.stamp(i) else { continue };
            if last == Some(now) {
                self.release(i, now);
                released += 1;
            } else {
                seen.insert(i, now);
            }
        }
        lease.reclaims.fetch_add(released, Ordering::Relaxed);
        released
    }

    /// How many words are held now.
    fn held(&self) -> u64 {
        (0..self.words())
            .filter(|&i| self.stamp(i).is_some())
            .count() as u64
    }
}
