//! Registered buffer queues — the free lists behind PRISM's ALLOCATE.
//!
//! The paper represents a free list "the same way as a queue pair — a
//! standard RDMA structure containing a list of free buffers" (§4.2).
//! Server code *posts* fixed-size buffers; the data plane *pops* them to
//! satisfy ALLOCATE requests. All buffers in one queue share a size class;
//! applications register several queues for different size classes (§3.2,
//! "using buffers sized as powers of two guarantees a maximum space
//! overhead of 2x").

use std::collections::VecDeque;

use crate::error::RdmaError;
use crate::hash::IntSet;
use crate::sync::Mutex;

#[derive(Debug, Default)]
struct Inner {
    fifo: VecDeque<u64>,
    /// The addresses in `fifo`, for the idempotence check. Its table
    /// follows the set's size down as well as up (see [`Inner::take`]).
    members: IntSet<u64>,
    posted_total: u64,
}

impl Inner {
    fn put(&mut self, addr: u64) {
        if self.members.insert(addr) {
            self.fifo.push_back(addr);
            self.posted_total += 1;
        }
    }

    /// Pops the first free buffer. A pool posts every buffer it owns at
    /// set-up and then runs with a fraction of them free, so a table
    /// that only ever grows stays sized for the whole pool — megabytes,
    /// probed at random on every pop, post and `contains`, a cache miss
    /// each. Once the set is under an eighth of what its table holds,
    /// the table is rebuilt for twice the set: the set must halve again
    /// before the next rebuild, so a rehash is paid once per that many
    /// pops.
    fn take(&mut self) -> Option<u64> {
        let addr = self.fifo.pop_front()?;
        self.members.remove(&addr);
        if self.members.capacity() > 8 * self.members.len().max(8) {
            self.members.shrink_to(2 * self.members.len());
        }
        Some(addr)
    }
}

/// A FIFO of equally-sized free buffers registered for ALLOCATE.
///
/// Posting is idempotent: an address already on the queue is not added
/// again. This makes client-driven reclamation and server-side GC
/// sweeps (§3.2's two alternatives) safe to combine — a duplicate free
/// notification cannot cause double allocation.
#[derive(Debug)]
pub struct BufferQueue {
    bufs: Mutex<Inner>,
    buf_len: u64,
}

impl BufferQueue {
    /// Creates an empty queue whose buffers are `buf_len` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `buf_len` is zero.
    pub fn new(buf_len: u64) -> Self {
        assert!(buf_len > 0, "BufferQueue::new: zero buffer length");
        BufferQueue {
            bufs: Mutex::new(Inner::default()),
            buf_len,
        }
    }

    /// Size class of this queue's buffers.
    pub fn buf_len(&self) -> u64 {
        self.buf_len
    }

    /// Posts one free buffer at `addr`.
    ///
    /// The caller (the PRISM engine) is responsible for holding the
    /// posting gate so that buffers are only recycled once concurrent NIC
    /// operations have completed (§3.2).
    pub fn post(&self, addr: u64) {
        self.bufs.lock().put(addr);
    }

    /// Posts many buffers at once (duplicates skipped).
    pub fn post_many(&self, addrs: impl IntoIterator<Item = u64>) {
        let mut q = self.bufs.lock();
        for a in addrs {
            q.put(a);
        }
    }

    /// Pops the first free buffer, or fails with Receiver-Not-Ready if the
    /// queue is empty (the NIC's standard flow-control answer, §4.2).
    pub fn pop(&self) -> Result<u64, RdmaError> {
        self.bufs.lock().take().ok_or(RdmaError::ReceiverNotReady)
    }

    /// Replaces the queue's contents with exactly `addrs`, restarting
    /// the posted-total counter — the amnesia-recovery path
    /// (`FreeLists::reset`) rebuilding a free list whose pre-crash
    /// contents described ownership that no longer exists. The caller
    /// must hold the posting gate exclusively so no pop is in flight.
    pub fn reset_in_place(&self, addrs: impl IntoIterator<Item = u64>) {
        let mut q = self.bufs.lock();
        q.fifo.clear();
        q.members = IntSet::default();
        q.posted_total = 0;
        for a in addrs {
            q.put(a);
        }
    }

    /// Number of buffers currently available.
    pub fn available(&self) -> usize {
        self.bufs.lock().fifo.len()
    }

    /// Snapshot of the free addresses (for GC sweeps and diagnostics).
    pub fn snapshot(&self) -> Vec<u64> {
        self.bufs.lock().fifo.iter().copied().collect()
    }

    /// Whether `addr` is currently free.
    pub fn contains(&self, addr: u64) -> bool {
        self.bufs.lock().members.contains(&addr)
    }

    /// Total buffers ever posted (for the server's refill heuristic:
    /// PRISM-KV's server "periodically checks if more buffers are
    /// needed", §6.1).
    pub fn posted_total(&self) -> u64 {
        self.bufs.lock().posted_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BufferQueue::new(64);
        q.post(0x1000);
        q.post(0x2000);
        assert_eq!(q.pop().unwrap(), 0x1000);
        assert_eq!(q.pop().unwrap(), 0x2000);
    }

    #[test]
    fn double_post_is_idempotent() {
        let q = BufferQueue::new(64);
        q.post(0x1000);
        q.post(0x1000);
        assert_eq!(q.available(), 1, "duplicate post must be ignored");
        assert_eq!(q.pop().unwrap(), 0x1000);
        assert!(q.pop().is_err());
        // After popping, the address may legitimately be freed again.
        q.post(0x1000);
        assert_eq!(q.available(), 1);
    }

    #[test]
    fn snapshot_and_contains() {
        let q = BufferQueue::new(64);
        q.post_many([1, 2, 3]);
        assert_eq!(q.snapshot(), vec![1, 2, 3]);
        assert!(q.contains(2));
        q.pop().unwrap();
        assert!(!q.contains(1));
    }

    #[test]
    fn empty_queue_is_rnr() {
        let q = BufferQueue::new(64);
        assert_eq!(q.pop().unwrap_err(), RdmaError::ReceiverNotReady);
    }

    #[test]
    fn post_many_and_counters() {
        let q = BufferQueue::new(64);
        q.post_many([1, 2, 3]);
        assert_eq!(q.available(), 3);
        assert_eq!(q.posted_total(), 3);
        q.pop().unwrap();
        assert_eq!(q.available(), 2);
        assert_eq!(q.posted_total(), 3, "posted_total counts posts, not pops");
    }

    #[test]
    fn reset_in_place_replaces_contents_and_counter() {
        let q = BufferQueue::new(64);
        q.post_many([1, 2, 3]);
        q.pop().unwrap();
        q.reset_in_place([0x9000, 0x9040]);
        assert_eq!(q.available(), 2);
        assert_eq!(q.posted_total(), 2, "reset restarts the posted counter");
        assert!(!q.contains(2), "pre-reset members are gone");
        assert_eq!(q.pop().unwrap(), 0x9000);
    }

    #[test]
    fn membership_table_follows_the_set_down() {
        let q = BufferQueue::new(64);
        let addr = |i: u64| 0x1_0000 + i * 576;
        q.post_many((0..100_000).map(addr));
        let grown = q.bufs.lock().members.capacity();
        for i in 0..99_000 {
            assert_eq!(q.pop().unwrap(), addr(i), "FIFO order across rebuilds");
        }
        let shrunk = q.bufs.lock().members.capacity();
        assert!(
            grown >= 100_000 && shrunk <= 8 * 1_000,
            "{grown} -> {shrunk}"
        );
        // The rebuilt table answers as the grown one did.
        assert!(q.contains(addr(99_000)) && !q.contains(addr(98_999)));
        q.post(addr(99_000));
        assert_eq!(q.available(), 1_000, "duplicate post still ignored");
        q.post(addr(5));
        assert_eq!(q.available(), 1_001);
        assert_eq!(q.posted_total(), 100_001);
    }

    #[test]
    fn concurrent_pops_never_double_allocate() {
        let q = Arc::new(BufferQueue::new(64));
        q.post_many((0..10_000).map(|i| 0x1_0000 + i * 64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(a) = q.pop() {
                        got.push(a);
                    }
                    got
                })
            })
            .collect();
        let mut all = HashSet::new();
        let mut total = 0;
        for h in handles {
            for a in h.join().unwrap() {
                total += 1;
                assert!(all.insert(a), "buffer {a:#x} allocated twice");
            }
        }
        assert_eq!(total, 10_000);
    }
}
