//! Registered buffer queues — the free lists behind PRISM's ALLOCATE.
//!
//! The paper represents a free list "the same way as a queue pair — a
//! standard RDMA structure containing a list of free buffers" (§4.2).
//! Server code *posts* fixed-size buffers; the data plane *pops* them to
//! satisfy ALLOCATE requests. All buffers in one queue share a size class;
//! applications register several queues for different size classes (§3.2,
//! "using buffers sized as powers of two guarantees a maximum space
//! overhead of 2x").
//!
//! A queue owns the extents its buffers are carved from, `count` buffers
//! one stride apart from `base`, and each extent holds a free bit per
//! buffer, set exactly while the buffer is on the FIFO. A pop, post or
//! membership test finds the extent by binary search over the extents
//! sorted by base and touches one word of bits, not a hash table.

use std::collections::VecDeque;

use crate::error::RdmaError;
use crate::hash::IntSet;

/// `count` buffers from `base`, and which of them are free.
#[derive(Debug)]
struct Extent {
    base: u64,
    count: u64,
    /// The caller's registration stamp, the order sweeps and resets walk.
    stamp: usize,
    /// Bit `j` is set while buffer `j` is on the FIFO.
    free: Vec<u64>,
}

impl Extent {
    /// Sets buffer `j`'s free bit; false if it was already set.
    fn set(&mut self, j: u64) -> bool {
        let (word, bit) = (&mut self.free[(j / 64) as usize], 1 << (j % 64));
        let was_clear = *word & bit == 0;
        *word |= bit;
        was_clear
    }

    /// Whether buffer `j`'s free bit is set.
    fn is_set(&self, j: u64) -> bool {
        self.free[(j / 64) as usize] & 1 << (j % 64) != 0
    }
}

/// A FIFO of equally-sized free buffers registered for ALLOCATE, and the
/// extents they come from.
///
/// Posting is idempotent: an address already on the queue is not added
/// again. This makes client-driven reclamation and server-side GC
/// sweeps (§3.2's two alternatives) safe to combine — a duplicate free
/// notification cannot cause double allocation. An address no extent of
/// the queue holds is refused.
///
/// The queue takes no lock of its own: its owner serialises access and
/// holds the posting gate (§3.2).
#[derive(Debug)]
pub struct BufferQueue {
    buf_len: u64,
    stride: u64,
    fifo: VecDeque<u64>,
    /// Disjoint, sorted by base.
    extents: Vec<Extent>,
}

impl BufferQueue {
    /// Creates an empty queue, with no extents, whose buffers are
    /// `buf_len` bytes each, on a 64-byte stride so buffers start on line
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `buf_len` is zero.
    pub fn new(buf_len: u64) -> Self {
        assert!(buf_len > 0, "BufferQueue::new: zero buffer length");
        BufferQueue {
            buf_len,
            stride: buf_len.next_multiple_of(64),
            fifo: VecDeque::new(),
            extents: Vec::new(),
        }
    }

    /// Size class of this queue's buffers.
    pub fn buf_len(&self) -> u64 {
        self.buf_len
    }

    /// Distance between consecutive buffers of an extent.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Adds an extent of `count` buffers from `base` and posts the ones
    /// from index `held` on; those before it stay with the caller.
    /// `stamp` places the extent among the queue's extents for
    /// [`BufferQueue::sweep`] and [`BufferQueue::reset_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the extent overlaps one the queue
    /// already holds.
    pub fn add_extent(&mut self, base: u64, count: u64, held: u64, stamp: usize) {
        assert!(count > 0, "empty extent at {base:#x}");
        assert!(
            !self.overlaps(base, self.stride * count),
            "extent at {base:#x} overlaps another"
        );
        let mut e = Extent {
            base,
            count,
            stamp,
            free: vec![0; count.div_ceil(64) as usize],
        };
        (held..count).for_each(|j| _ = e.set(j));
        let stride = self.stride;
        self.fifo.extend((held..count).map(|j| base + j * stride));
        let at = self.extents.partition_point(|e| e.base < base);
        self.extents.insert(at, e);
    }

    /// Whether `[base, base + len)` shares a byte with one of the
    /// queue's extents.
    pub fn overlaps(&self, base: u64, len: u64) -> bool {
        let stride = self.stride;
        self.extents
            .iter()
            .any(|e| base < e.base + stride * e.count && e.base < base + len)
    }

    /// The extent holding buffer `addr` and the buffer's index in it.
    fn locate(&self, addr: u64) -> Option<(usize, u64)> {
        let i = self
            .extents
            .partition_point(|e| e.base <= addr)
            .checked_sub(1)?;
        let off = addr - self.extents[i].base;
        let j = off / self.stride;
        (off.is_multiple_of(self.stride) && j < self.extents[i].count).then_some((i, j))
    }

    /// Posts one free buffer at `addr`: `None` if no extent of the queue
    /// holds it, else whether it went on the FIFO (`false`: it was
    /// already free, and the post is skipped).
    pub fn post(&mut self, addr: u64) -> Option<bool> {
        let (i, j) = self.locate(addr)?;
        let posted = self.extents[i].set(j);
        if posted {
            self.fifo.push_back(addr);
        }
        Some(posted)
    }

    /// Pops the first free buffer, or fails with Receiver-Not-Ready if the
    /// queue is empty (the NIC's standard flow-control answer, §4.2).
    pub fn pop(&mut self) -> Result<u64, RdmaError> {
        let addr = self.fifo.pop_front().ok_or(RdmaError::ReceiverNotReady)?;
        let (i, j) = self
            .locate(addr)
            .expect("a queued buffer lies in an extent");
        self.extents[i].free[(j / 64) as usize] &= !(1 << (j % 64));
        Ok(addr)
    }

    /// Forgets every extent whose stamp `keep` refuses, then makes the
    /// FIFO exactly the remaining extents' buffers that `in_use` does not
    /// claim, extents in stamp order — the amnesia-recovery path
    /// rebuilding a free list whose pre-crash contents described
    /// ownership that no longer exists.
    pub fn reset_in_place(&mut self, keep: impl Fn(usize) -> bool, in_use: impl Fn(u64) -> bool) {
        self.extents.retain(|e| keep(e.stamp));
        self.extents.iter_mut().for_each(|e| e.free.fill(0));
        self.fifo.clear();
        self.post_where(|a| !in_use(a));
    }

    /// Posts every extent buffer that is neither free nor in `reachable`,
    /// extents in stamp order, and returns how many.
    pub fn sweep(&mut self, reachable: &IntSet<u64>) -> usize {
        self.post_where(|a| !reachable.contains(&a))
    }

    /// Posts every extent buffer `pick` selects that is not free yet,
    /// extents in stamp order, and returns how many.
    fn post_where(&mut self, pick: impl Fn(u64) -> bool) -> usize {
        let mut order: Vec<usize> = (0..self.extents.len()).collect();
        order.sort_by_key(|&i| self.extents[i].stamp);
        let mut posted = 0;
        for i in order {
            let e = &mut self.extents[i];
            for j in 0..e.count {
                let a = e.base + j * self.stride;
                if pick(a) && e.set(j) {
                    self.fifo.push_back(a);
                    posted += 1;
                }
            }
        }
        posted
    }

    /// Every extent buffer and whether it is free, extents by base.
    pub fn members(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let stride = self.stride;
        self.extents
            .iter()
            .flat_map(move |e| (0..e.count).map(move |j| (e.base + j * stride, e.is_set(j))))
    }

    /// The buffer the pop after `k` more pops would take (0: the next
    /// pop's), without taking it; `None` if fewer than `k + 1` are free.
    pub fn queued(&self, k: usize) -> Option<u64> {
        self.fifo.get(k).copied()
    }

    /// Number of buffers currently available.
    pub fn available(&self) -> usize {
        self.fifo.len()
    }

    /// Snapshot of the free addresses, in the order ALLOCATE pops them.
    pub fn snapshot(&self) -> Vec<u64> {
        self.fifo.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `addr`'s free bit is set.
    fn is_free(q: &BufferQueue, addr: u64) -> bool {
        q.locate(addr).is_some_and(|(i, j)| q.extents[i].is_set(j))
    }

    /// A queue of 64-byte buffers over one extent, `0x1000..0x11000`.
    fn queue() -> BufferQueue {
        let mut q = BufferQueue::new(64);
        q.add_extent(0x1000, 1024, 1024, 0);
        q
    }

    #[test]
    fn fifo_order() {
        let mut q = queue();
        q.post(0x1000);
        q.post(0x2000);
        assert_eq!(q.pop().unwrap(), 0x1000);
        assert_eq!(q.pop().unwrap(), 0x2000);
    }

    #[test]
    fn double_post_is_idempotent() {
        let mut q = queue();
        assert_eq!(q.post(0x1000), Some(true));
        assert_eq!(q.post(0x1000), Some(false));
        assert_eq!(q.available(), 1, "duplicate post must be ignored");
        assert_eq!(q.pop().unwrap(), 0x1000);
        assert!(q.pop().is_err());
        // After popping, the address may legitimately be freed again.
        q.post(0x1000);
        assert_eq!(q.available(), 1);
    }

    #[test]
    fn snapshot_and_contains() {
        let mut q = queue();
        for a in [0x1040, 0x1080, 0x10C0] {
            q.post(a);
        }
        assert_eq!(q.snapshot(), vec![0x1040, 0x1080, 0x10C0]);
        assert!(is_free(&q, 0x1080));
        q.pop().unwrap();
        assert!(!is_free(&q, 0x1040));
    }

    #[test]
    fn empty_queue_is_rnr() {
        let mut q = queue();
        assert_eq!(q.pop().unwrap_err(), RdmaError::ReceiverNotReady);
    }

    #[test]
    fn post_many_and_counters() {
        let mut q = queue();
        for a in [0x1000, 0x1040, 0x1080] {
            q.post(a);
        }
        assert_eq!(q.available(), 3);
        q.pop().unwrap();
        assert_eq!(q.available(), 2);
    }

    #[test]
    fn reset_in_place_replaces_contents_and_counter() {
        let mut q = queue();
        q.add_extent(0x2_0000, 2, 2, 1);
        q.add_extent(0x400, 2, 2, 2);
        for a in [0x1000, 0x1040, 0x2_0000] {
            q.post(a);
        }
        q.pop().unwrap();
        q.reset_in_place(|stamp| stamp != 0, |a| a == 0x400);
        assert_eq!(q.snapshot(), [0x2_0000, 0x2_0040, 0x440]);
        assert_eq!(q.available(), 3);
        assert!(!is_free(&q, 0x1040), "pre-reset members are gone");
        assert_eq!(q.post(0x1040), None, "and so is their extent");
        assert_eq!(q.pop().unwrap(), 0x2_0000);
    }

    #[test]
    fn posts_outside_every_extent_are_refused() {
        let mut q = queue();
        for a in [0xFC0, 0x1020, 0x11000] {
            assert_eq!(q.post(a), None, "{a:#x}");
            assert!(!is_free(&q, a));
        }
        assert_eq!(q.available(), 0);
    }

    #[test]
    #[should_panic(expected = "overlaps another")]
    fn overlapping_extents_panic() {
        queue().add_extent(0x10FC0, 2, 2, 1);
    }

    #[test]
    fn sweep_posts_unreachable_buffers_extents_in_stamp_order() {
        let mut q = BufferQueue::new(64);
        q.add_extent(0x9000, 2, 2, 0);
        q.add_extent(0x400, 2, 2, 1);
        q.post(0x440);
        let reachable: IntSet<u64> = [0x9000].into_iter().collect();
        assert_eq!(q.sweep(&reachable), 2);
        assert_eq!(q.snapshot(), [0x440, 0x9040, 0x400]);
        assert_eq!(q.sweep(&reachable), 0, "a second sweep finds nothing");
    }

    #[test]
    fn members_walk_every_extent_buffer_with_its_free_bit() {
        let mut q = BufferQueue::new(64);
        q.add_extent(0x9000, 2, 1, 0);
        q.add_extent(0x400, 2, 2, 1);
        q.post(0x440);
        let members: Vec<_> = q.members().collect();
        assert_eq!(
            members,
            [
                (0x400, false),
                (0x440, true),
                (0x9000, false),
                (0x9040, true)
            ]
        );
    }

    #[test]
    fn free_bits_stay_exact_across_a_drain() {
        let mut q = BufferQueue::new(540);
        let addr = |i: u64| 0x1_0000 + i * 576;
        q.add_extent(addr(0), 100_000, 0, 0);
        for i in 0..99_000 {
            assert_eq!(q.pop().unwrap(), addr(i), "FIFO order");
        }
        assert!(is_free(&q, addr(99_000)) && !is_free(&q, addr(98_999)));
        assert_eq!(q.post(addr(99_000)), Some(false), "duplicate post ignored");
        assert_eq!(q.available(), 1_000);
        assert_eq!(q.post(addr(5)), Some(true));
        assert_eq!(q.available(), 1_001);
    }
}
