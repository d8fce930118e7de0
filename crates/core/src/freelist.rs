//! Free-list management for the ALLOCATE primitive (§3.2, §4.2), and the
//! one way buffers come back.
//!
//! Servers register one buffer queue per size class. The data plane pops
//! buffers while holding the *read* side of a posting gate; the CPU-side
//! repost path takes the *write* side, guaranteeing that "recycled buffers
//! only be added back to the free list when concurrent NIC operations are
//! complete" (§3.2). This is the one synchronization point between the
//! server CPU and the (simulated) NIC, deliberately off the regular path.
//!
//! Every pool registers the extent it was carved from. A client that held
//! a buffer returns it with the reclaim RPC, `[0x01, addr u64 LE]` for one
//! buffer ([`free_request`]) or `[0x04, n u16 LE, n × addr u64 LE]` for a
//! batch ([`free_batch_request`]). Every [`crate::PrismServer`] serves it
//! through [`FreeLists`]'s [`RpcHandler`]: each address goes through the
//! checked [`FreeLists::free`], a batch stops at its first refused
//! address, and the reply is `[0]`, or `[0xFF]` if anything was refused
//! or the bytes are no reclaim RPC at all. Frees that never arrive are
//! picked up by [`FreeLists::gc_sweep`].
//!
//! A server states what its pool's buffers hang from through [`Pooled`]:
//! its free lists and the scan of its index. [`Pooled::gc_sweep`] and
//! the read-only [`Pooled::audit`] are written once, on that. The audit
//! is the pool's conservation law: at a quiescent point every member is
//! reached by the index or free, never both ([`Audit::deficit`] is 0).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use prism_rdma::hash::IntSet;
use prism_rdma::sync::{Mutex, RwLock, RwLockReadGuard};
use prism_rdma::{BufferQueue, RdmaError};

use crate::msg::Request;
use crate::op::FreeListId;
use crate::server::RpcHandler;

/// How far behind the new head a pop reads the buffer to warm
/// ([`FreeLists::pop_warm`]): 1, the buffer the pop after next takes.
/// The FIFO cycles every buffer through the whole pool, so the buffer a
/// pop takes was last touched a pool's worth of pops ago and is cold.
/// Pop `n` warms the buffer pop `n + 2` takes, so one whole request (pop
/// `n + 1`'s) lies between the prefetch and the write it serves, however
/// close together requests come; at distance 0 only the gap between two
/// pops would, which a tight loop of ALLOCATEs makes about as short as
/// one DRAM access. Further ahead only holds the lines in cache longer.
/// Each buffer passes this place in the FIFO once, so each is warmed
/// once.
const WARM_AHEAD: usize = 1;

/// Free-list ids run below this. Size classes are registered once at
/// server setup with small consecutive ids, so the registry is a table
/// the data plane indexes with no lock and no hash.
const MAX_LISTS: usize = 64;

/// Reclaim RPC opcode: return one buffer.
const RPC_FREE: u8 = 0x01;
/// Reclaim RPC opcode: return a batch of buffers (§3.2: "batching can be
/// employed at both client and server sides to minimize overhead").
const RPC_FREE_BATCH: u8 = 0x04;

/// The reclaim RPC returning the buffer at `addr`.
pub fn free_request(addr: u64) -> Request {
    let mut msg = Vec::with_capacity(9);
    msg.push(RPC_FREE);
    msg.extend_from_slice(&addr.to_le_bytes());
    Request::Rpc(msg)
}

/// The reclaim RPC returning every buffer in `addrs`, in order.
///
/// # Panics
///
/// Panics if `addrs` holds more than `u16::MAX` addresses.
pub fn free_batch_request(addrs: &[u64]) -> Request {
    let n = u16::try_from(addrs.len()).expect("batch fits its u16 count");
    let mut msg = Vec::with_capacity(3 + addrs.len() * 8);
    msg.push(RPC_FREE_BATCH);
    msg.extend_from_slice(&n.to_le_bytes());
    for a in addrs {
        msg.extend_from_slice(&a.to_le_bytes());
    }
    Request::Rpc(msg)
}

/// The buffer `req` returns, if it is a single-buffer reclaim RPC.
pub fn single_free(req: &Request) -> Option<u64> {
    match req {
        Request::Rpc(msg) if msg.first() == Some(&RPC_FREE) => le_u64(&msg[1..]),
        _ => None,
    }
}

fn le_u64(bytes: &[u8]) -> Option<u64> {
    bytes.try_into().ok().map(u64::from_le_bytes)
}

/// A refused [`FreeLists::free`] (a client returned an address it cannot
/// have held, and the lists are left untouched) or [`FreeLists::post`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// No registered pool extent admits the address (no extent of the
    /// named list, for a post): it is outside every extent, or not on a
    /// buffer boundary.
    OutOfRange(u64),
    /// The address is already on its free list.
    AlreadyFree(u64),
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreeError::OutOfRange(addr) => write!(f, "free of out-of-range buffer {addr:#x}"),
            FreeError::AlreadyFree(addr) => write!(f, "double free of buffer {addr:#x}"),
        }
    }
}

impl std::error::Error for FreeError {}

/// All free lists of one server, plus the posting gate.
///
/// Each list is one [`BufferQueue`]: its FIFO of free addresses and the
/// extents it was carved from, each with a free bit per buffer, under
/// one lock. Every address on a list lies in one of its extents.
#[derive(Debug)]
pub struct FreeLists {
    gate: RwLock<()>,
    /// Free list `i` at index `i`, published once at registration: the
    /// data plane resolves a size class with one atomic load and an index.
    lists: Box<[OnceLock<Mutex<BufferQueue>>]>,
    /// Extents registered so far, over every list: the next one's stamp.
    /// Read and written only under the gate's write side, which orders it.
    extents: AtomicUsize,
}

impl Default for FreeLists {
    fn default() -> Self {
        FreeLists {
            gate: RwLock::new(()),
            lists: (0..MAX_LISTS).map(|_| OnceLock::new()).collect(),
            extents: AtomicUsize::new(0),
        }
    }
}

impl FreeLists {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FreeLists::default()
    }

    fn list(&self, id: FreeListId) -> Option<&Mutex<BufferQueue>> {
        self.lists.get(id.0 as usize).and_then(OnceLock::get)
    }

    /// Every registered list, in id order.
    fn registered(&self) -> impl Iterator<Item = &Mutex<BufferQueue>> {
        self.lists.iter().filter_map(OnceLock::get)
    }

    /// Registers free list `id` over a pool carved at `base`: `count`
    /// buffers of `buf_len` bytes, each on a 64-byte stride so buffers
    /// start on line boundaries. The pool is the list's first extent.
    /// Buffers from index `in_use` on go on the list; the ones before it
    /// start out held by the application (its seed versions). Returns
    /// the stride.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered (size classes are fixed at
    /// server setup) or not below 64, or as [`FreeLists::extend`].
    pub fn register_pool(
        &self,
        id: FreeListId,
        buf_len: u64,
        base: u64,
        count: u64,
        in_use: u64,
    ) -> u64 {
        let fresh = Mutex::new(BufferQueue::new(buf_len));
        let stride = fresh.lock().stride();
        let registered = self.lists[id.0 as usize].set(fresh).is_ok();
        assert!(registered, "free list {id:?} registered twice");
        self.extend(id, base, count, in_use);
        stride
    }

    /// Adds an extent to free list `id`, `count` buffers on the list's
    /// stride from `base`, and posts the ones from index `held` on, in one
    /// step under the posting gate: checked frees and sweeps see a refill
    /// carve from the moment its buffers can be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered, `count` is zero, or the extent
    /// overlaps one already registered.
    pub fn extend(&self, id: FreeListId, base: u64, count: u64, held: u64) {
        let _excl = self.gate.write();
        let list = self
            .list(id)
            .unwrap_or_else(|| panic!("extent for unregistered free list {id:?}"));
        let stride = list.lock().stride();
        assert!(
            self.registered()
                .all(|l| !l.lock().overlaps(base, stride * count)),
            "pool extent at {base:#x} overlaps another"
        );
        let stamp = self.extents.fetch_add(1, Ordering::Relaxed);
        list.lock().add_extent(base, count, held, stamp);
    }

    /// The allocator half of an amnesia restart: forgets every extent
    /// registered after the first `keep` (carves whose memory the
    /// restarted server takes back, such as refills from headroom it
    /// rewinds), then rebuilds each list as exactly its remaining
    /// extents' buffers that `in_use` does not claim, extents in
    /// registration order (a list left without extents is left empty).
    /// Takes the exclusive side of the posting gate so no in-flight chain
    /// can pop from a list being reset. A pre-crash client's free into a
    /// forgotten extent is refused from here on, so a later carve of the
    /// same range cannot hand a buffer out twice.
    pub fn reset_to_extents(&self, keep: usize, in_use: impl Fn(u64) -> bool) {
        let _excl = self.gate.write();
        for list in self.registered() {
            list.lock().reset_in_place(|stamp| stamp < keep, &in_use);
        }
        self.extents.fetch_min(keep, Ordering::Relaxed);
    }

    /// Acquires the data-plane side of the posting gate. The PRISM engine
    /// holds this for the duration of a chain so reposts cannot interleave
    /// with in-flight allocations.
    pub fn gate_read(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read()
    }

    /// Pops a buffer from `id`, returning its address and size class.
    ///
    /// Caller must hold the read gate (the engine does).
    pub fn pop(&self, id: FreeListId) -> Result<(u64, u64), RdmaError> {
        self.pop_warm(id).map(|(addr, buf_len, _)| (addr, buf_len))
    }

    /// [`FreeLists::pop`], and, read under the same list lock, the
    /// buffer [`WARM_AHEAD`] places behind the new head: the one the
    /// pop after next takes (`None` while the list is shorter), which
    /// ALLOCATE prefetches. No other pop can take that buffer before the
    /// next one has.
    ///
    /// Caller must hold the read gate (the engine does).
    pub(crate) fn pop_warm(&self, id: FreeListId) -> Result<(u64, u64, Option<u64>), RdmaError> {
        let mut q = self
            .list(id)
            .ok_or(RdmaError::UnknownFreeList(id.0))?
            .lock();
        let addr = q.pop()?;
        Ok((addr, q.buf_len(), q.queued(WARM_AHEAD)))
    }

    /// CPU-side repost: blocks until all in-flight chains finish, then
    /// returns `addrs` to list `id` in order, skipping any already free.
    /// It stops at the first address no extent of the list holds (any
    /// address, if `id` is not registered), which is refused with
    /// [`FreeError::OutOfRange`]; the ones before it stay posted.
    pub fn post(
        &self,
        id: FreeListId,
        addrs: impl IntoIterator<Item = u64>,
    ) -> Result<(), FreeError> {
        let _excl = self.gate.write();
        let mut q = self.list(id).map(Mutex::lock);
        for a in addrs {
            q.as_mut()
                .and_then(|q| q.post(a))
                .ok_or(FreeError::OutOfRange(a))?;
        }
        Ok(())
    }

    /// Checked client-driven free: returns `addr` to the list whose
    /// extent admits it. Unlike the idempotent [`FreeLists::post`], this
    /// is *ownership transfer* — a client saying "I held this buffer and
    /// give it back" — so an address no extent admits, or one already
    /// free, is refused with a typed [`FreeError`] and changes nothing.
    /// (A refused repeat is legal: a GC sweep may have reposted the
    /// buffer while its client's free was in flight.) Takes the exclusive
    /// side of the posting gate, like [`FreeLists::post`].
    pub fn free(&self, addr: u64) -> Result<(), FreeError> {
        let _excl = self.gate.write();
        for list in self.registered() {
            match list.lock().post(addr) {
                Some(true) => return Ok(()),
                Some(false) => return Err(FreeError::AlreadyFree(addr)),
                None => {}
            }
        }
        Err(FreeError::OutOfRange(addr))
    }

    /// Server-side garbage collection (§3.2's alternative to
    /// client-driven reclamation): reposts every extent buffer neither in
    /// the set `reachable` returns nor already free — lists in id order,
    /// extents in registration order, the order later ALLOCATEs pop them
    /// in — and returns how many. `reachable` (the application's scan of
    /// its index) and the reposts run under the exclusive side of the
    /// posting gate. Chains allocate and install within one chain, so
    /// every buffer the scan misses is genuinely leaked: an orphan whose
    /// free died with its client, or a displaced entry whose free never
    /// arrived. Run it at a quiescent point: a free still in flight is
    /// refused on arrival while its buffer is still free, but not once
    /// ALLOCATE has handed the buffer out again.
    pub fn gc_sweep(&self, reachable: impl FnOnce() -> IntSet<u64>) -> usize {
        let _excl = self.gate.write();
        let reachable = reachable();
        self.registered()
            .map(|list| list.lock().sweep(&reachable))
            .sum()
    }

    /// The conservation audit of every extent buffer, lists in id order,
    /// against the set `reachable` returns (the application's scan of
    /// its index; addresses that are no member, such as a null pointer,
    /// are ignored). Read-only; the scan and the count run under the
    /// exclusive side of the posting gate, as [`FreeLists::gc_sweep`]'s
    /// do, so no chain is between its pop and its install.
    pub fn audit(&self, reachable: impl FnOnce() -> IntSet<u64>) -> Audit {
        let _excl = self.gate.write();
        let reachable = reachable();
        let mut audit = Audit::default();
        for list in self.registered() {
            for (addr, free) in list.lock().members() {
                let reached = reachable.contains(&addr);
                audit.members += 1;
                audit.reached += u64::from(reached);
                audit.free += u64::from(free);
                audit.both += u64::from(reached && free);
            }
        }
        audit
    }

    /// Engine-internal undo: returns a just-popped buffer without taking
    /// the posting gate. Only the engine may call this — it already holds
    /// the read side as the in-flight operation whose pop it is undoing,
    /// so taking the write gate here would deadlock.
    pub(crate) fn repush_internal(&self, id: FreeListId, addr: u64) {
        if let Some(list) = self.list(id) {
            list.lock().post(addr);
        }
    }

    /// Buffers currently available in `id`.
    pub fn available(&self, id: FreeListId) -> usize {
        self.list(id).map_or(0, |q| q.lock().available())
    }

    /// Size class of `id`, if registered.
    pub fn buf_len(&self, id: FreeListId) -> Option<u64> {
        self.list(id).map(|q| q.lock().buf_len())
    }

    /// Snapshot of `id`'s free addresses, in the order ALLOCATE pops them.
    pub fn snapshot(&self, id: FreeListId) -> Vec<u64> {
        self.list(id)
            .map(|q| q.lock().snapshot())
            .unwrap_or_default()
    }
}

/// One pool's buffers counted by where they are: what
/// [`FreeLists::audit`] returns. A member is every buffer of every
/// registered extent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Audit {
    /// Buffers in the pool.
    pub members: u64,
    /// Members the index reaches: live.
    pub reached: u64,
    /// Members on a free list.
    pub free: u64,
    /// Members both reached and free: a live buffer that ALLOCATE can
    /// hand out again.
    pub both: u64,
}

impl Audit {
    /// Members neither reached nor free: a popped buffer never
    /// installed, or a displaced one whose free never arrived: what a
    /// [`FreeLists::gc_sweep`] run now would return.
    pub fn leaked(&self) -> u64 {
        self.members + self.both - self.reached - self.free
    }

    /// The members that break the law `members == reached + free` with
    /// none both: the leaked ones plus the aliased ones. A sweep cures
    /// the first kind only.
    pub fn deficit(&self) -> u64 {
        self.leaked() + self.both
    }
}

/// What a server states for its buffer pool to be reclaimed and
/// audited: its free lists and the scan of its index. Object-safe, so a
/// deployment can hand out each server's as `&dyn Pooled`.
pub trait Pooled {
    /// The free lists the pool's buffers are allocated from.
    fn freelists(&self) -> &FreeLists;
    /// Every buffer address the index holds now. A member in the set is
    /// live; anything else in it (a null pointer) is ignored.
    fn reachable(&self) -> IntSet<u64>;

    /// Server-side garbage collection ([`FreeLists::gc_sweep`] over
    /// [`Pooled::reachable`]): reposts every member neither reached nor
    /// free and returns how many. Run it at a quiescent point.
    fn gc_sweep(&self) -> usize {
        self.freelists().gc_sweep(|| self.reachable())
    }

    /// The pool's [`Audit`] against [`Pooled::reachable`]; changes
    /// nothing.
    fn audit(&self) -> Audit {
        self.freelists().audit(|| self.reachable())
    }
}

/// The reclaim RPC, which every [`crate::PrismServer`] serves until an
/// application installs a handler of its own (see the module docs for
/// the format). Total over arbitrary bytes: the reply is always `[0]` or
/// `[0xFF]`.
impl RpcHandler for FreeLists {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let free = |addr: Option<u64>| addr.is_some_and(|a| self.free(a).is_ok());
        let ok = match request {
            [RPC_FREE, addr @ ..] => free(le_u64(addr)),
            [RPC_FREE_BATCH, lo, hi, addrs @ ..] => {
                addrs.len() == 8 * usize::from(u16::from_le_bytes([*lo, *hi]))
                    && addrs.chunks_exact(8).all(|a| free(le_u64(a)))
            }
            _ => false,
        };
        vec![if ok { 0 } else { 0xFF }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_testkit::{for_all, gens, Config, Gen};

    #[test]
    fn register_pop_post_cycle() {
        let fl = FreeLists::new();
        let id = FreeListId(1);
        assert_eq!(fl.register_pool(id, 100, 0x1000, 4, 2), 128);
        assert_eq!(fl.snapshot(id), [0x1100, 0x1180]);
        let _g = fl.gate_read();
        assert_eq!(fl.pop(id).unwrap(), (0x1100, 100));
        assert_eq!(fl.available(id), 1);
        drop(_g);
        fl.post(id, [0x1000, 0x1180]).unwrap();
        assert_eq!(
            fl.snapshot(id),
            [0x1180, 0x1000],
            "a repeat post is skipped"
        );
    }

    #[test]
    fn a_pop_names_the_buffer_the_pop_after_next_takes() {
        let fl = FreeLists::new();
        let id = FreeListId(0);
        fl.register_pool(id, 64, 0x1000, 4, 0);
        let _g = fl.gate_read();
        assert_eq!(fl.pop_warm(id).unwrap(), (0x1000, 64, Some(0x1080)));
        assert_eq!(fl.pop_warm(id).unwrap(), (0x1040, 64, Some(0x10C0)));
        assert_eq!(
            fl.pop(id).unwrap(),
            (0x1080, 64),
            "the first pop's warm buffer"
        );
        assert_eq!(
            fl.pop_warm(id).unwrap(),
            (0x10C0, 64, None),
            "nothing left to warm"
        );
    }

    #[test]
    fn unknown_free_list_errors() {
        let fl = FreeLists::new();
        {
            let _g = fl.gate_read();
            assert_eq!(
                fl.pop(FreeListId(9)).unwrap_err(),
                RdmaError::UnknownFreeList(9)
            );
            // The guard must drop before posting: `post` takes the write
            // side of the gate, exactly like a real repost waiting for
            // in-flight chains.
        }
        assert_eq!(
            fl.post(FreeListId(9), [1]).unwrap_err(),
            FreeError::OutOfRange(1)
        );
        assert_eq!(fl.buf_len(FreeListId(9)), None);
        assert_eq!(
            fl.pop(FreeListId(u32::MAX)).unwrap_err(),
            RdmaError::UnknownFreeList(u32::MAX)
        );
    }

    #[test]
    fn empty_queue_is_receiver_not_ready() {
        let fl = FreeLists::new();
        fl.register_pool(FreeListId(1), 64, 0x1000, 2, 2);
        let _g = fl.gate_read();
        assert_eq!(
            fl.pop(FreeListId(1)).unwrap_err(),
            RdmaError::ReceiverNotReady
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let fl = FreeLists::new();
        fl.register_pool(FreeListId(1), 64, 0x1000, 2, 0);
        fl.register_pool(FreeListId(1), 128, 0x2000, 2, 0);
    }

    #[test]
    #[should_panic(expected = "overlaps another")]
    fn overlapping_extents_panic() {
        let fl = FreeLists::new();
        fl.register_pool(FreeListId(1), 64, 0x1000, 2, 0);
        fl.register_pool(FreeListId(2), 128, 0x1040, 2, 0);
    }

    #[test]
    fn reset_replaces_queue_contents() {
        let fl = FreeLists::new();
        let id = FreeListId(1);
        fl.register_pool(id, 128, 0x1000, 4, 0);
        fl.pop(id).unwrap();
        fl.pop(id).unwrap();
        fl.reset_to_extents(1, |a| a == 0x1080);
        assert_eq!(fl.snapshot(id), [0x1000, 0x1100, 0x1180]);
        assert_eq!(fl.buf_len(id), Some(128));
        let _g = fl.gate_read();
        assert_eq!(fl.pop(id).unwrap(), (0x1000, 128));
    }

    #[test]
    #[should_panic(expected = "extent for unregistered")]
    fn extend_requires_registration() {
        FreeLists::new().extend(FreeListId(9), 0x1000, 4, 0);
    }

    fn guarded() -> FreeLists {
        let fl = FreeLists::new();
        // 0x1000..0x1100, stride 64, all held.
        fl.register_pool(FreeListId(1), 64, 0x1000, 4, 4);
        fl.free(0x1040).unwrap();
        fl
    }

    #[test]
    fn checked_free_accepts_pool_members() {
        let fl = guarded();
        let id = FreeListId(1);
        assert_eq!(fl.available(id), 1);
        fl.free(0x1000).unwrap();
        assert_eq!(fl.available(id), 2);
        let _g = fl.gate_read();
        assert_eq!(fl.pop(id).unwrap(), (0x1040, 64));
    }

    #[test]
    fn checked_free_requires_registration() {
        let fl = guarded();
        fl.register_pool(FreeListId(2), 64, 0x2000, 1, 1);
        // Only a registered extent admits a buffer back.
        assert_eq!(fl.free(0x2040).unwrap_err(), FreeError::OutOfRange(0x2040));
        fl.free(0x2000).unwrap();
        assert_eq!(fl.snapshot(FreeListId(2)), [0x2000]);
    }

    /// A post may repeat a free buffer, but not name one outside the
    /// list's own extents: it stops there, keeping what it posted before.
    #[test]
    fn post_outside_the_lists_extents_is_a_typed_error() {
        let fl = guarded();
        fl.register_pool(FreeListId(2), 64, 0x2000, 2, 2);
        let id = FreeListId(1);
        let refused = fl.post(id, [0x1040, 0x1080, 0x2000, 0x10C0]);
        assert_eq!(refused.unwrap_err(), FreeError::OutOfRange(0x2000));
        assert_eq!(
            fl.post(id, [0x1100]).unwrap_err(),
            FreeError::OutOfRange(0x1100)
        );
        assert_eq!(fl.snapshot(id), [0x1040, 0x1080]);
        assert_eq!(fl.snapshot(FreeListId(2)), []);
    }

    /// One enforcement level in every build: a repeat free is a typed
    /// error that leaves the queue as it was.
    #[test]
    fn double_free_is_a_typed_error() {
        let fl = guarded();
        assert_eq!(fl.free(0x1040).unwrap_err(), FreeError::AlreadyFree(0x1040));
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040]);
    }

    /// Likewise a misaligned and an out-of-range free.
    #[test]
    fn out_of_range_free_is_a_typed_error() {
        let fl = guarded();
        assert_eq!(fl.free(0x1020).unwrap_err(), FreeError::OutOfRange(0x1020));
        assert_eq!(fl.free(0x9000).unwrap_err(), FreeError::OutOfRange(0x9000));
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040]);
    }

    #[test]
    fn gc_sweep_reposts_unreachable_members_lists_in_id_order() {
        let fl = FreeLists::new();
        fl.register_pool(FreeListId(2), 64, 0x4000, 2, 2);
        fl.register_pool(FreeListId(1), 64, 0x3000, 2, 2);
        fl.extend(FreeListId(1), 0x1000, 2, 2);
        fl.free(0x1040).unwrap();
        let reachable = || [0x3000, 0x4040].into_iter().collect();
        assert_eq!(fl.gc_sweep(reachable), 3);
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040, 0x3040, 0x1000]);
        assert_eq!(fl.snapshot(FreeListId(2)), [0x4000]);
        assert_eq!(fl.gc_sweep(reachable), 0, "a second sweep finds nothing");
    }

    /// The smallest server that states a pool: one list of four
    /// buffers and an index of the addresses installed.
    struct Toy {
        fl: FreeLists,
        index: Vec<u64>,
    }

    impl Pooled for Toy {
        fn freelists(&self) -> &FreeLists {
            &self.fl
        }

        fn reachable(&self) -> IntSet<u64> {
            self.index.iter().copied().collect()
        }
    }

    /// 0x1000 and 0x1040 installed behind a null slot, 0x1080 and
    /// 0x10C0 free: the law holds.
    fn toy() -> Toy {
        let fl = FreeLists::new();
        fl.register_pool(FreeListId(0), 64, 0x1000, 4, 2);
        let toy = Toy {
            fl,
            index: vec![0, 0x1000, 0x1040],
        };
        let settled = Audit {
            members: 4,
            reached: 2,
            free: 2,
            both: 0,
        };
        assert_eq!((toy.audit(), toy.audit().deficit()), (settled, 0));
        toy
    }

    #[test]
    fn the_audit_flags_a_popped_buffer_never_installed_and_the_sweep_cures_it() {
        let toy = toy();
        let popped = toy.fl.pop(FreeListId(0)).unwrap().0;
        let audit = toy.audit();
        assert_eq!((audit.leaked(), audit.both, audit.deficit()), (1, 0, 1));
        assert_eq!(toy.gc_sweep(), 1);
        assert_eq!(toy.audit().deficit(), 0);
        assert_eq!(toy.fl.snapshot(FreeListId(0)), [0x10C0, popped]);
    }

    #[test]
    fn the_audit_flags_a_reached_buffer_posted_free_and_the_sweep_leaves_it() {
        let toy = toy();
        toy.fl.free(0x1040).unwrap();
        let audit = toy.audit();
        assert_eq!((audit.leaked(), audit.both, audit.deficit()), (0, 1, 1));
        assert_eq!(toy.gc_sweep(), 0, "nothing leaked");
        assert_eq!(toy.audit(), audit, "a sweep cannot take a live buffer back");
    }

    #[test]
    fn reset_to_extents_forgets_later_carves() {
        let fl = guarded();
        fl.extend(FreeListId(1), 0x8000, 2, 0);
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040, 0x8000, 0x8040]);
        fl.reset_to_extents(1, |a| a == 0x1000);
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040, 0x1080, 0x10C0]);
        assert_eq!(fl.free(0x8040).unwrap_err(), FreeError::OutOfRange(0x8040));
    }

    #[test]
    fn concurrent_pops_never_double_allocate() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let fl = Arc::new(FreeLists::new());
        fl.register_pool(FreeListId(0), 64, 0x1_0000, 10_000, 0);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let fl = Arc::clone(&fl);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok((a, _)) = fl.pop(FreeListId(0)) {
                        got.push(a);
                    }
                    got
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for a in h.join().unwrap() {
                assert!(all.insert(a), "buffer {a:#x} allocated twice");
            }
        }
        assert_eq!(all.len(), 10_000);
    }

    fn rpc_bytes(req: Request) -> Vec<u8> {
        match req {
            Request::Rpc(msg) => msg,
            other => panic!("not an RPC: {other:?}"),
        }
    }

    #[test]
    fn single_free_parses_exactly_what_free_request_encodes() {
        for addr in [0, 0x1040, u64::MAX] {
            assert_eq!(single_free(&free_request(addr)), Some(addr));
        }
        assert_eq!(single_free(&free_batch_request(&[0x1040])), None);
        assert_eq!(single_free(&Request::Rpc(vec![RPC_FREE, 0x40])), None);
    }

    #[test]
    fn batch_is_count_then_addresses() {
        let addrs: Vec<u64> = (1..=16).collect();
        let msg = rpc_bytes(free_batch_request(&addrs));
        assert_eq!(msg[..3], [0x04, 16, 0]);
        let tail: Vec<u8> = addrs.iter().flat_map(|a| a.to_le_bytes()).collect();
        assert_eq!(msg[3..], tail);
    }

    /// Two lists over three extents; every other buffer starts free.
    const EXTENTS: [(u32, u64, u64, u64); 3] =
        [(0, 0x1000, 64, 4), (1, 0x2000, 128, 3), (0, 0x3000, 64, 2)];

    fn reclaim_lists() -> FreeLists {
        let fl = FreeLists::new();
        fl.register_pool(FreeListId(0), 64, 0x1000, 4, 4);
        fl.register_pool(FreeListId(1), 100, 0x2000, 3, 3);
        fl.extend(FreeListId(0), 0x3000, 2, 2);
        for (id, base, stride, count) in EXTENTS {
            let every_other = (0..count).step_by(2).map(|j| base + j * stride);
            fl.post(FreeListId(id), every_other).unwrap();
        }
        fl
    }

    /// Extent members (one stride past the end included), misaligned
    /// addresses inside an extent, and anything at all.
    fn addr_gen() -> Gen<u64> {
        let extent = || gens::range_usize(0..EXTENTS.len());
        gens::one_of(vec![
            gens::t2(extent(), gens::range_u64(0..5)).map(|(e, j)| EXTENTS[e].1 + j * EXTENTS[e].2),
            gens::t2(extent(), gens::range_u64(1..64)).map(|(e, off)| EXTENTS[e].1 + off),
            gens::u64s(),
        ])
    }

    /// Raw bytes, single frees with a byte too many or not, and batches
    /// whose count is right or overstated.
    fn request_gen() -> Gen<Vec<u8>> {
        gens::one_of(vec![
            gens::vec(gens::u8s(), 0..24),
            gens::t2(addr_gen(), gens::bools()).map(|(a, extra)| {
                let mut msg = rpc_bytes(free_request(a));
                msg.extend(extra.then_some(0));
                msg
            }),
            gens::t2(gens::vec(addr_gen(), 0..6), gens::range_u64(0..3)).map(|(addrs, skew)| {
                let mut msg = rpc_bytes(free_batch_request(&addrs));
                msg[1] += skew as u8;
                msg
            }),
        ])
    }

    /// The handler is total over network bytes, and does exactly what
    /// the wire format says: the addresses of a well-formed request are
    /// freed in order up to the first one no extent admits or that is
    /// already free, and the reply is `[0]` only if none was refused.
    #[test]
    fn reclaim_handler_is_total_over_network_bytes() {
        for_all(
            "reclaim_handler_is_total_over_network_bytes",
            &Config::with_cases(512),
            &request_gen(),
            |req: &Vec<u8>| {
                let fl = reclaim_lists();
                let lists = [FreeListId(0), FreeListId(1)];
                let before = lists.map(|id| fl.snapshot(id));
                let addrs: Option<Vec<u64>> = match req.as_slice() {
                    [0x01, a @ ..] if a.len() == 8 => Some(vec![le_u64(a).unwrap()]),
                    [0x04, lo, hi, a @ ..]
                        if a.len() == 8 * u16::from_le_bytes([*lo, *hi]) as usize =>
                    {
                        Some(a.chunks(8).map(|a| le_u64(a).unwrap()).collect())
                    }
                    _ => None,
                };
                let mut want = before.clone();
                let mut ok = addrs.is_some();
                for a in addrs.unwrap_or_default() {
                    let owner = EXTENTS.iter().find(|&&(_, base, stride, count)| {
                        a >= base && a < base + stride * count && (a - base) % stride == 0
                    });
                    match owner.map(|e| &mut want[e.0 as usize]) {
                        Some(list) if !list.contains(&a) => list.push(a),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                let reply = fl.handle(req);
                assert_eq!(reply, [if ok { 0 } else { 0xFF }]);
                assert_eq!(lists.map(|id| fl.snapshot(id)), want);
            },
        );
    }

    #[test]
    fn post_waits_for_inflight_chains() {
        // The write gate must block while a read guard (an in-flight
        // chain) is held.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let fl = Arc::new(FreeLists::new());
        fl.register_pool(FreeListId(1), 64, 0x1000, 1, 1);
        let posted = Arc::new(AtomicBool::new(false));
        let guard = fl.gate_read();
        let t = {
            let fl = Arc::clone(&fl);
            let posted = Arc::clone(&posted);
            std::thread::spawn(move || {
                fl.post(FreeListId(1), [0x1000]).unwrap();
                posted.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !posted.load(Ordering::SeqCst),
            "post must wait for the chain to finish"
        );
        drop(guard);
        t.join().unwrap();
        assert!(posted.load(Ordering::SeqCst));
        assert_eq!(fl.available(FreeListId(1)), 1);
    }
}
