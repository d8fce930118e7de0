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

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use prism_rdma::hash::IntSet;
use prism_rdma::sync::{RwLock, RwLockReadGuard};
use prism_rdma::{BufferQueue, RdmaError};

use crate::msg::Request;
use crate::op::FreeListId;
use crate::server::RpcHandler;

/// Ids below this resolve through a lock-free dense table on the pop
/// fast path; higher ids fall back to the locked map. Size classes are
/// registered once at server setup with small consecutive ids, so in
/// practice everything is dense.
const DENSE_IDS: usize = 64;

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

/// A refused [`FreeLists::free`]: a client returned an address it cannot
/// have held. The lists are left untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// No registered pool extent admits the address: it is outside every
    /// extent, or not on a buffer boundary.
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

/// One carve backing a free list: `count` buffers of `stride` bytes
/// starting at `base`.
#[derive(Debug, Clone)]
struct PoolExtent {
    id: FreeListId,
    queue: Arc<BufferQueue>,
    base: u64,
    stride: u64,
    count: u64,
}

impl PoolExtent {
    fn admits(&self, addr: u64) -> bool {
        addr >= self.base
            && addr < self.base + self.stride * self.count
            && (addr - self.base).is_multiple_of(self.stride)
    }

    fn buffers(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(|j| self.base + j * self.stride)
    }
}

/// All free lists of one server, plus the posting gate.
#[derive(Debug)]
pub struct FreeLists {
    gate: RwLock<()>,
    /// Source of truth for every registered list.
    queues: RwLock<HashMap<FreeListId, Arc<BufferQueue>>>,
    /// Lock-free mirror of `queues` for ids below [`DENSE_IDS`]: the
    /// data plane resolves a size class with one atomic load and an
    /// index instead of a read lock and a hash probe. Registration is
    /// append-only and each `Arc` is stable for the server's lifetime
    /// (amnesia recovery resets queue *contents* in place), so a
    /// published entry never goes stale.
    dense: Box<[OnceLock<Arc<BufferQueue>>]>,
    /// Every list's extents, in registration order.
    extents: RwLock<Vec<PoolExtent>>,
}

impl Default for FreeLists {
    fn default() -> Self {
        FreeLists {
            gate: RwLock::new(()),
            queues: RwLock::new(HashMap::new()),
            dense: (0..DENSE_IDS).map(|_| OnceLock::new()).collect(),
            extents: RwLock::new(Vec::new()),
        }
    }
}

impl FreeLists {
    /// Creates an empty registry.
    pub fn new() -> Self {
        FreeLists::default()
    }

    /// Fast-path lookup: dense table first, locked map for ids past
    /// the dense range.
    #[inline]
    fn dense_get(&self, id: FreeListId) -> Option<&Arc<BufferQueue>> {
        self.dense.get(id.0 as usize).and_then(OnceLock::get)
    }

    /// Slow-path lookup returning a clone for ids outside the dense
    /// range (or not yet registered → `None`).
    fn spill_get(&self, id: FreeListId) -> Option<Arc<BufferQueue>> {
        self.queues.read().get(&id).cloned()
    }

    fn lookup(&self, id: FreeListId) -> Option<Arc<BufferQueue>> {
        match self.dense_get(id) {
            Some(q) => Some(Arc::clone(q)),
            None => self.spill_get(id),
        }
    }

    /// Registers a free list whose buffers are `buf_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered — size classes are fixed at
    /// server setup.
    pub fn register(&self, id: FreeListId, buf_len: u64) {
        let mut queues = self.queues.write();
        let q = Arc::new(BufferQueue::new(buf_len));
        let prev = queues.insert(id, Arc::clone(&q));
        assert!(prev.is_none(), "free list {id:?} registered twice");
        if let Some(slot) = self.dense.get(id.0 as usize) {
            slot.set(q).expect("dense slot already published");
        }
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
    /// As [`FreeLists::register`] and [`FreeLists::register_extent`].
    pub fn register_pool(
        &self,
        id: FreeListId,
        buf_len: u64,
        base: u64,
        count: u64,
        in_use: u64,
    ) -> u64 {
        let stride = buf_len.next_multiple_of(64);
        self.register(id, buf_len);
        self.register_extent(id, base, stride, count);
        self.post(id, (in_use..count).map(|j| base + j * stride))
            .expect("fresh free list accepts posts");
        stride
    }

    /// Rebuilds a free list from scratch after an amnesia restart: the
    /// queue's contents (which described pre-crash ownership) are
    /// replaced in place by exactly `addrs`, restarting its posted
    /// counter. Takes the exclusive side of the posting gate so no
    /// in-flight chain can pop from the queue being reset. Unlike
    /// [`FreeLists::register`], the id must already exist — recovery
    /// re-initializes, it does not invent size classes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never registered.
    fn reset(&self, id: FreeListId, addrs: impl IntoIterator<Item = u64>) {
        let _excl = self.gate.write();
        let q = self.lookup(id).expect("reset of unregistered free list");
        q.reset_in_place(addrs);
    }

    /// The allocator half of an amnesia restart: forgets every extent
    /// registered after the first `keep` (carves whose memory the
    /// restarted server takes back, such as refills from headroom it
    /// rewinds), then `FreeLists::reset`s each list that still has
    /// extents to exactly their buffers that `in_use` does not claim, in
    /// registration order. A pre-crash client's free into a forgotten
    /// extent is refused from here on, so a later carve of the same range
    /// cannot hand a buffer out twice.
    pub fn reset_to_extents(&self, keep: usize, in_use: impl Fn(u64) -> bool) {
        let kept = {
            let mut extents = self.extents.write();
            extents.truncate(keep);
            extents.clone()
        };
        for (i, e) in kept.iter().enumerate() {
            if kept[..i].iter().all(|earlier| earlier.id != e.id) {
                let mine = kept[i..].iter().filter(|later| later.id == e.id);
                let free = mine.flat_map(PoolExtent::buffers).filter(|&a| !in_use(a));
                self.reset(e.id, free);
            }
        }
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
        // Hot path: one atomic load, an index, and the queue's own
        // lock — no registry lock, no hash.
        if let Some(q) = self.dense_get(id) {
            let addr = q.pop()?;
            return Ok((addr, q.buf_len()));
        }
        let q = self.spill_get(id).ok_or(RdmaError::UnknownFreeList(id.0))?;
        let addr = q.pop()?;
        Ok((addr, q.buf_len()))
    }

    /// CPU-side repost: blocks until all in-flight chains finish, then
    /// returns the buffers to the queue.
    pub fn post(
        &self,
        id: FreeListId,
        addrs: impl IntoIterator<Item = u64>,
    ) -> Result<(), RdmaError> {
        let _excl = self.gate.write();
        let q = self.lookup(id).ok_or(RdmaError::UnknownFreeList(id.0))?;
        q.post_many(addrs);
        Ok(())
    }

    /// Records a pool extent backing `id`: `count` buffers of `stride`
    /// bytes from `base`. Servers call this where they carve a pool, and
    /// again for each refill carve — a list may be backed by several
    /// disjoint extents. Only extent members can be freed
    /// ([`FreeLists::free`]) or swept ([`FreeLists::gc_sweep`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered or `stride`/`count` is zero.
    pub fn register_extent(&self, id: FreeListId, base: u64, stride: u64, count: u64) {
        assert!(stride > 0 && count > 0, "empty pool extent for {id:?}");
        let queue = self
            .lookup(id)
            .unwrap_or_else(|| panic!("extent for unregistered free list {id:?}"));
        self.extents.write().push(PoolExtent {
            id,
            queue,
            base,
            stride,
            count,
        });
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
        let extents = self.extents.read();
        let extent = extents
            .iter()
            .find(|e| e.admits(addr))
            .ok_or(FreeError::OutOfRange(addr))?;
        if extent.queue.contains(addr) {
            return Err(FreeError::AlreadyFree(addr));
        }
        extent.queue.post(addr);
        Ok(())
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
        let extents = self.extents.read();
        let mut order: Vec<&PoolExtent> = extents.iter().collect();
        order.sort_by_key(|e| e.id);
        let mut reclaimed = 0;
        for e in order {
            for buf in e.buffers() {
                if !reachable.contains(&buf) && !e.queue.contains(buf) {
                    e.queue.post(buf);
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    /// Engine-internal undo: returns a just-popped buffer without taking
    /// the posting gate. Only the engine may call this — it already holds
    /// the read side as the in-flight operation whose pop it is undoing,
    /// so taking the write gate here would deadlock.
    pub(crate) fn repush_internal(&self, id: FreeListId, addr: u64) {
        if let Some(q) = self.lookup(id) {
            q.post(addr);
        }
    }

    /// Buffers currently available in `id`.
    pub fn available(&self, id: FreeListId) -> usize {
        self.lookup(id).map(|q| q.available()).unwrap_or(0)
    }

    /// Size class of `id`, if registered.
    pub fn buf_len(&self, id: FreeListId) -> Option<u64> {
        self.lookup(id).map(|q| q.buf_len())
    }

    /// Snapshot of `id`'s free addresses, in the order ALLOCATE pops them.
    pub fn snapshot(&self, id: FreeListId) -> Vec<u64> {
        self.lookup(id).map(|q| q.snapshot()).unwrap_or_default()
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
        fl.register(id, 128);
        fl.post(id, [0x1000, 0x2000]).unwrap();
        assert_eq!(fl.available(id), 2);
        let _g = fl.gate_read();
        assert_eq!(fl.pop(id).unwrap(), (0x1000, 128));
        assert_eq!(fl.available(id), 1);
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
            RdmaError::UnknownFreeList(9)
        );
        assert_eq!(fl.buf_len(FreeListId(9)), None);
    }

    #[test]
    fn empty_queue_is_receiver_not_ready() {
        let fl = FreeLists::new();
        fl.register(FreeListId(1), 64);
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
        fl.register(FreeListId(1), 64);
        fl.register(FreeListId(1), 128);
    }

    #[test]
    fn reset_replaces_queue_contents() {
        let fl = FreeLists::new();
        let id = FreeListId(1);
        fl.register(id, 128);
        fl.post(id, [0x1000, 0x2000]).unwrap();
        fl.reset(id, [0x9000]);
        assert_eq!(fl.available(id), 1);
        assert_eq!(fl.buf_len(id), Some(128));
        let _g = fl.gate_read();
        assert_eq!(fl.pop(id).unwrap(), (0x9000, 128));
    }

    #[test]
    #[should_panic(expected = "reset of unregistered")]
    fn reset_requires_registration() {
        FreeLists::new().reset(FreeListId(9), [0x1000]);
    }

    fn guarded() -> FreeLists {
        let fl = FreeLists::new();
        let id = FreeListId(1);
        fl.register(id, 64);
        fl.register_extent(id, 0x1000, 64, 4); // 0x1000..0x1100, stride 64
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
        let fl = FreeLists::new();
        fl.register(FreeListId(9), 64);
        fl.post(FreeListId(9), [0x1000]).unwrap();
        fl.pop(FreeListId(9)).unwrap();
        // A list with no extent admits nothing back.
        assert_eq!(fl.free(0x1000).unwrap_err(), FreeError::OutOfRange(0x1000));
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
        for id in [FreeListId(2), FreeListId(1)] {
            fl.register(id, 64);
        }
        fl.register_extent(FreeListId(2), 0x4000, 64, 2);
        fl.register_extent(FreeListId(1), 0x3000, 64, 2);
        fl.register_extent(FreeListId(1), 0x1000, 64, 2);
        fl.free(0x1040).unwrap();
        let reachable = || [0x3000, 0x4040].into_iter().collect();
        assert_eq!(fl.gc_sweep(reachable), 3);
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040, 0x3040, 0x1000]);
        assert_eq!(fl.snapshot(FreeListId(2)), [0x4000]);
        assert_eq!(fl.gc_sweep(reachable), 0, "a second sweep finds nothing");
    }

    #[test]
    fn reset_to_extents_forgets_later_carves() {
        let fl = guarded();
        fl.register_extent(FreeListId(1), 0x8000, 64, 2);
        fl.free(0x8000).unwrap();
        fl.reset_to_extents(1, |a| a == 0x1000);
        assert_eq!(fl.snapshot(FreeListId(1)), [0x1040, 0x1080, 0x10C0]);
        assert_eq!(fl.free(0x8040).unwrap_err(), FreeError::OutOfRange(0x8040));
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
        fl.register(FreeListId(0), 64);
        fl.register(FreeListId(1), 100);
        for (id, base, stride, count) in EXTENTS {
            fl.register_extent(FreeListId(id), base, stride, count);
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
        fl.register(FreeListId(1), 64);
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
