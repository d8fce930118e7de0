//! The PRISM chain execution engine — the data plane of the paper's
//! software prototype (§4.1).
//!
//! A chain of [`PrismOp`]s arrives in one request and executes in order.
//! Each primitive is a short, bounded routine (a design requirement in
//! §4.1 "to prevent starvation"): at most two pointer dereferences, one
//! memory access, no loops over application data structures. Conditional
//! ops are skipped when the previous op was unsuccessful; READ/ALLOCATE
//! output can be redirected into server memory instead of the response
//! (§3.4).
//!
//! Atomicity rules (matching §3.3 and §6.1):
//! * the CAS read-modify-write is atomic with respect to all other arena
//!   accesses;
//! * pointer dereferences for indirect arguments are *not* atomic with
//!   the CAS;
//! * plain READ/WRITE are single-copy atomic only within a cache line.

use std::sync::Arc;

use prism_rdma::arena::MemoryArena;
use prism_rdma::region::{Access, RegionTable, Rkey};
use prism_rdma::RdmaError;

use crate::freelist::FreeLists;
use crate::op::{DataArg, PrismOp, Redirect, MAX_CAS_LEN};
use crate::value::{cas_compare, cas_swap};

/// How one op in a chain finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpStatus {
    /// The op executed and succeeded.
    Ok,
    /// An enhanced CAS executed but its comparison failed (unsuccessful
    /// for chaining purposes; the old value is still returned).
    CasFailed,
    /// A conditional op was skipped because the previous op failed.
    Skipped,
    /// The op faulted (NACK).
    Error(RdmaError),
}

/// Result of one op: its status plus any returned bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// Outcome class.
    pub status: OpStatus,
    /// READ data, ALLOCATE'd address (8 bytes LE), or the CAS's previous
    /// target value. Empty for WRITE and for redirected output.
    pub data: Vec<u8>,
}

impl OpResult {
    fn skipped() -> Self {
        OpResult {
            status: OpStatus::Skipped,
            data: Vec::new(),
        }
    }

    fn error(e: RdmaError) -> Self {
        OpResult {
            status: OpStatus::Error(e),
            data: Vec::new(),
        }
    }

    /// Whether the op counts as successful for the conditional flag.
    pub fn succeeded(&self) -> bool {
        self.status == OpStatus::Ok
    }

    /// The returned bytes, or an error if the op did not succeed.
    pub fn expect_data(&self) -> Result<&[u8], RdmaError> {
        match &self.status {
            OpStatus::Ok => Ok(&self.data),
            OpStatus::CasFailed => Ok(&self.data),
            OpStatus::Skipped => Err(RdmaError::ChainAborted),
            OpStatus::Error(e) => Err(*e),
        }
    }
}

/// What [`PrismEngine::hint_chain`] leaves for
/// [`PrismEngine::hint_target`]: where the first indirect op of a
/// hinted chain keeps its pointer, and how much it asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingHint {
    /// Address of the pointer word (and of the bound word after it,
    /// when `bounded`).
    ptr_addr: u64,
    /// Bytes the op requested of the target.
    len: u64,
    /// Whether the pointer is a `(ptr, bound)` pair clamping `len`.
    bounded: bool,
}

/// The engine: executes chains against one host's memory.
#[derive(Clone)]
pub struct PrismEngine {
    arena: Arc<MemoryArena>,
    regions: Arc<RegionTable>,
    freelists: Arc<FreeLists>,
}

impl PrismEngine {
    /// Creates an engine over the host's memory, registrations, and free
    /// lists.
    pub fn new(
        arena: Arc<MemoryArena>,
        regions: Arc<RegionTable>,
        freelists: Arc<FreeLists>,
    ) -> Self {
        PrismEngine {
            arena,
            regions,
            freelists,
        }
    }

    /// Executes a chain: ops run in order; a conditional op is skipped
    /// unless the immediately preceding op succeeded (§3.4).
    ///
    /// Thin allocating wrapper over
    /// [`PrismEngine::execute_chain_into`].
    pub fn execute_chain(&self, chain: &[PrismOp]) -> Vec<OpResult> {
        let mut results = Vec::with_capacity(chain.len());
        self.execute_chain_into(chain, &mut results);
        results
    }

    /// Executes a chain, writing per-op results into `results` — the
    /// zero-alloc fast path. `results` is truncated/extended to
    /// `chain.len()` and each existing [`OpResult::data`] buffer is
    /// reused, so a caller that drives many chains through the same
    /// results vector reaches a steady state with no per-op heap
    /// traffic.
    pub fn execute_chain_into(&self, chain: &[PrismOp], results: &mut Vec<OpResult>) {
        // Hold the posting gate for the whole chain so free-list reposts
        // cannot interleave with our allocations or reads (§3.2).
        let _gate = self.freelists.gate_read();
        results.truncate(chain.len());
        while results.len() < chain.len() {
            results.push(OpResult::skipped());
        }
        let mut prev_ok = true;
        for (op, slot) in chain.iter().zip(results.iter_mut()) {
            let mut data = std::mem::take(&mut slot.data);
            data.clear();
            let status = if op.is_conditional() && !prev_ok {
                OpStatus::Skipped
            } else {
                match self.dispatch_into(op, &mut data) {
                    Ok(status) => status,
                    Err(e) => {
                        data.clear();
                        OpStatus::Error(e)
                    }
                }
            };
            prev_ok = status == OpStatus::Ok;
            slot.status = status;
            slot.data = data;
        }
    }

    /// Stage one of a hint for a chain that will execute later (the
    /// simulator's lookahead, DESIGN.md §8): prefetches every span the
    /// chain names outright — a direct READ/WRITE/CAS target, or the
    /// pointer location of an indirect one — and returns the first
    /// indirect op's pointer location for [`PrismEngine::hint_target`]
    /// to follow once that line has had time to arrive. Redirect
    /// targets and remote operands are connection scratch, which is hot
    /// by construction, and ALLOCATE names no address; none is hinted.
    ///
    /// Both stages only ask the CPU for cache lines. They check arena
    /// bounds and nothing else (no rkey, no alignment, no conditional
    /// flag), take neither a stripe nor the free-list gate, never wait,
    /// and cannot fail: what a hint gets wrong costs a wasted prefetch,
    /// and what executes later validates everything as it always did.
    pub fn hint_chain(&self, chain: &[PrismOp]) -> Option<PendingHint> {
        let mut first = None;
        for op in chain {
            let (addr, len, indirect, bounded) = match op {
                PrismOp::Read {
                    addr,
                    len,
                    indirect,
                    bounded,
                    ..
                } => (*addr, *len, *indirect, *bounded),
                PrismOp::Write {
                    addr,
                    len,
                    addr_indirect,
                    addr_bounded,
                    ..
                } => (*addr, *len, *addr_indirect, *addr_bounded),
                PrismOp::Cas {
                    target,
                    len,
                    target_indirect,
                    ..
                } => (*target, *len, *target_indirect, false),
                PrismOp::Allocate { .. } => continue,
            };
            if indirect {
                self.arena.prefetch(addr, if bounded { 16 } else { 8 });
                first.get_or_insert(PendingHint {
                    ptr_addr: addr,
                    len: len as u64,
                    bounded,
                });
            } else {
                self.arena.prefetch(addr, len as u64);
            }
        }
        first
    }

    /// Stage two of a hint: reads the pointer word stage one asked for
    /// (and the bound beside it), and prefetches the span it points at.
    /// The same rules as [`PrismEngine::hint_chain`] hold: a null,
    /// misaligned or out-of-range pointer is ignored.
    pub fn hint_target(&self, pending: PendingHint) {
        let Some(ptr) = self.arena.peek_u64(pending.ptr_addr) else {
            return;
        };
        let len = if pending.bounded {
            let Some(bound) = self.arena.peek_u64(pending.ptr_addr.wrapping_add(8)) else {
                return;
            };
            pending.len.min(bound)
        } else {
            pending.len
        };
        self.arena.prefetch(ptr, len);
    }

    /// Executes a single op unconditionally (used by tests; chains should
    /// go through [`PrismEngine::execute_chain`]).
    pub fn execute_one(&self, op: &PrismOp) -> OpResult {
        let mut data = Vec::new();
        match self.dispatch_into(op, &mut data) {
            Ok(status) => OpResult { status, data },
            Err(e) => OpResult::error(e),
        }
    }

    /// Dispatches one op, writing its returned bytes into `out` (cleared
    /// by the caller). Returns the op's status; `Err` means NACK.
    fn dispatch_into(&self, op: &PrismOp, out: &mut Vec<u8>) -> Result<OpStatus, RdmaError> {
        match op {
            PrismOp::Read {
                addr,
                len,
                rkey,
                indirect,
                bounded,
                redirect,
                ..
            } => self.read(
                *addr,
                *len as u64,
                Rkey(*rkey),
                *indirect,
                *bounded,
                *redirect,
                out,
            ),
            PrismOp::Write {
                addr,
                rkey,
                data,
                len,
                addr_indirect,
                addr_bounded,
                ..
            } => self.write(
                *addr,
                Rkey(*rkey),
                data,
                *len as u64,
                *addr_indirect,
                *addr_bounded,
            ),
            PrismOp::Allocate {
                freelist,
                data,
                redirect,
                ..
            } => self.allocate(*freelist, data, *redirect, out),
            PrismOp::Cas {
                mode,
                target,
                rkey,
                compare,
                swap,
                len,
                compare_mask,
                swap_mask,
                target_indirect,
                ..
            } => self.cas(
                *mode,
                *target,
                Rkey(*rkey),
                compare,
                swap,
                *len as u64,
                compare_mask,
                swap_mask,
                *target_indirect,
                out,
            ),
        }
    }

    /// Dereferences an indirect target: reads the pointer (and bound, if
    /// bounded), validating both the pointer location and the pointed-to
    /// range under the *same* rkey (§3.1's security rule).
    fn deref_target(
        &self,
        addr: u64,
        len: u64,
        rkey: Rkey,
        bounded: bool,
        access: Access,
    ) -> Result<(u64, u64), RdmaError> {
        let ptr_bytes = if bounded { 16 } else { 8 };
        self.regions.validate(rkey, addr, ptr_bytes, Access::Read)?;
        let ptr = self.arena.read_u64(addr)?;
        let len = if bounded {
            let bound = self.arena.read_u64(addr + 8)?;
            len.min(bound)
        } else {
            len
        };
        if self.regions.validate(rkey, ptr, len, access).is_err() {
            return Err(RdmaError::BadIndirectTarget(ptr));
        }
        Ok((ptr, len))
    }

    /// Loads a CAS operand (≤ [`MAX_CAS_LEN`] bytes) into a
    /// caller-provided stack buffer, avoiding heap traffic. Shorter
    /// inline data is zero-extended; longer is clamped — same semantics
    /// for remote operands via the bounded read.
    fn load_operand<'a>(
        &self,
        data: &DataArg,
        buf: &'a mut [u8; MAX_CAS_LEN],
        len: u64,
    ) -> Result<&'a [u8], RdmaError> {
        let len = len as usize;
        match data {
            DataArg::Inline(d) => {
                // Copy what the operand covers and zero-extend only the
                // tail — the common full-length operand pays no fill.
                let n = d.len().min(len);
                buf[..n].copy_from_slice(&d[..n]);
                buf[n..len].fill(0);
            }
            DataArg::Remote { addr, rkey } => {
                // The bounded read overwrites the whole span.
                self.regions
                    .validate(Rkey(*rkey), *addr, len as u64, Access::Read)?;
                self.arena.read_into(*addr, &mut buf[..len])?;
            }
        }
        Ok(&buf[..len])
    }

    /// Delivers `out` either to the response (leaving it in place) or to
    /// the redirect target in server memory (clearing it, §3.4).
    fn emit_into(&self, out: &mut Vec<u8>, redirect: Option<Redirect>) -> Result<(), RdmaError> {
        if let Some(r) = redirect {
            self.regions
                .validate(Rkey(r.rkey), r.addr, out.len() as u64, Access::Write)?;
            self.arena.write(r.addr, out)?;
            out.clear();
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn read(
        &self,
        addr: u64,
        len: u64,
        rkey: Rkey,
        indirect: bool,
        bounded: bool,
        redirect: Option<Redirect>,
        out: &mut Vec<u8>,
    ) -> Result<OpStatus, RdmaError> {
        let (target, len) = if indirect {
            self.deref_target(addr, len, rkey, bounded, Access::Read)?
        } else {
            self.regions.validate(rkey, addr, len, Access::Read)?;
            (addr, len)
        };
        out.resize(len as usize, 0);
        self.arena.read_into(target, out)?;
        self.emit_into(out, redirect)?;
        Ok(OpStatus::Ok)
    }

    fn write(
        &self,
        addr: u64,
        rkey: Rkey,
        data: &DataArg,
        len: u64,
        addr_indirect: bool,
        addr_bounded: bool,
    ) -> Result<OpStatus, RdmaError> {
        let (target, len) = if addr_indirect {
            self.deref_target(addr, len, rkey, addr_bounded, Access::Write)?
        } else {
            self.regions.validate(rkey, addr, len, Access::Write)?;
            (addr, len)
        };
        match data {
            // Inline data covering the whole span is written straight
            // from the request — the hot PUT path allocates nothing.
            DataArg::Inline(d) if d.len() as u64 >= len => {
                self.arena.write(target, &d[..len as usize])?;
            }
            DataArg::Inline(d) => {
                // Shorter inline data is zero-extended (cold path).
                let mut padded = vec![0u8; len as usize];
                padded[..d.len()].copy_from_slice(d);
                self.arena.write(target, &padded)?;
            }
            DataArg::Remote {
                addr: src,
                rkey: src_rkey,
            } => {
                self.regions
                    .validate(Rkey(*src_rkey), *src, len, Access::Read)?;
                let src = *src;
                if src < target.saturating_add(len) && target < src.saturating_add(len) {
                    // Overlapping ranges: snapshot the source first so
                    // the copy keeps memcpy semantics (cold path).
                    let snapshot = self.arena.read(src, len)?;
                    self.arena.write(target, &snapshot)?;
                } else {
                    // Server-memory-to-server-memory copy, staged line
                    // by line through a stack buffer: no allocation, and
                    // the same per-line atomicity a NIC DMA would give.
                    let mut staged = 0u64;
                    let mut buf = [0u8; 64];
                    while staged < len {
                        let n = (len - staged).min(64) as usize;
                        self.arena.read_into(src + staged, &mut buf[..n])?;
                        self.arena.write(target + staged, &buf[..n])?;
                        staged += n as u64;
                    }
                }
            }
        }
        Ok(OpStatus::Ok)
    }

    fn allocate(
        &self,
        id: crate::op::FreeListId,
        data: &[u8],
        redirect: Option<Redirect>,
        out: &mut Vec<u8>,
    ) -> Result<OpStatus, RdmaError> {
        let (addr, buf_len, warm) = self.freelists.pop_warm(id)?;
        if data.len() as u64 > buf_len {
            // Put the buffer back: the allocation never happened. The
            // caller still holds the read gate, so a direct queue push is
            // safe here (this is the engine, not the CPU repost path).
            self.freelists.repush_internal(id, addr);
            return Err(RdmaError::BufferTooSmall {
                need: data.len() as u64,
                have: buf_len,
            });
        }
        // Warm-ahead (DESIGN.md §8): start loading the lines of a buffer
        // a later ALLOCATE on this list writes, as many as this one
        // writes, so that write does not stall on DRAM. The buffer
        // written here was warmed the same way, by the pop before last.
        if let Some(next) = warm {
            self.arena.prefetch(next, data.len() as u64);
        }
        self.arena.write(addr, data)?;
        out.extend_from_slice(&addr.to_le_bytes());
        self.emit_into(out, redirect)?;
        Ok(OpStatus::Ok)
    }

    #[allow(clippy::too_many_arguments)]
    fn cas(
        &self,
        mode: crate::value::CasMode,
        target: u64,
        rkey: Rkey,
        compare: &DataArg,
        swap: &DataArg,
        len: u64,
        compare_mask: &[u8; MAX_CAS_LEN],
        swap_mask: &[u8; MAX_CAS_LEN],
        target_indirect: bool,
        out: &mut Vec<u8>,
    ) -> Result<OpStatus, RdmaError> {
        if len as usize > MAX_CAS_LEN {
            return Err(RdmaError::OperandTooLong(len));
        }
        let target = if target_indirect {
            // Dereference is not atomic with the CAS (§3.3).
            let (t, _) = self.deref_target(target, len, rkey, false, Access::Atomic)?;
            t
        } else {
            target
        };
        if target % 8 != 0 {
            return Err(RdmaError::Misaligned {
                addr: target,
                required: 8,
            });
        }
        self.regions.validate(rkey, target, len, Access::Atomic)?;
        // Operand loads are not atomic with the CAS (§3.3) — they happen
        // before the target lines are locked. Both operands fit in
        // stack buffers (enhanced-CAS maximum is 32 bytes).
        let mut compare_buf = [0u8; MAX_CAS_LEN];
        let mut swap_buf = [0u8; MAX_CAS_LEN];
        let comparand = self.load_operand(compare, &mut compare_buf, len)?;
        let swap_value = self.load_operand(swap, &mut swap_buf, len)?;
        out.resize(len as usize, 0);
        let old = &mut out[..len as usize];
        let swapped = self.arena.atomic(target, len, |bytes| {
            old.copy_from_slice(bytes);
            let ok = cas_compare(mode, bytes, comparand, compare_mask);
            if ok {
                cas_swap(bytes, swap_value, swap_mask);
            }
            ok
        })?;
        Ok(if swapped {
            OpStatus::Ok
        } else {
            OpStatus::CasFailed
        })
    }
}

impl std::fmt::Debug for PrismEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrismEngine").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ops;
    use crate::op::{field_mask, full_mask, DataArg, FreeListId, Redirect};
    use crate::value::CasMode;
    use prism_rdma::region::AccessFlags;

    struct Rig {
        engine: PrismEngine,
        arena: Arc<MemoryArena>,
        regions: Arc<RegionTable>,
        freelists: Arc<FreeLists>,
        data_addr: u64,
        data_rkey: u32,
        scratch_addr: u64,
        scratch_rkey: u32,
    }

    fn rig() -> Rig {
        let arena = Arc::new(MemoryArena::new(1 << 16));
        let regions = Arc::new(RegionTable::new());
        let freelists = Arc::new(FreeLists::new());
        let engine = PrismEngine::new(
            Arc::clone(&arena),
            Arc::clone(&regions),
            Arc::clone(&freelists),
        );
        let base = MemoryArena::BASE;
        // [base, base+8K): data region. [base+8K, base+9K): scratch.
        let data_rkey = regions.register(base, 8192, AccessFlags::FULL);
        let scratch_rkey = regions.register(base + 8192, 1024, AccessFlags::FULL);
        // Free list of 128-byte buffers carved above the scratch region.
        freelists.register_pool(FreeListId(0), 128, base + 16384, 8, 0);
        // Register the buffer pool under the data rkey's address space?
        // Buffers live outside the data region on purpose: indirect reads
        // into them must use a region that covers them.
        Rig {
            engine,
            arena,
            regions,
            freelists,
            data_addr: base,
            data_rkey: data_rkey.0,
            scratch_addr: base + 8192,
            scratch_rkey: scratch_rkey.0,
        }
    }

    #[test]
    fn plain_read_write() {
        let r = rig();
        let res = r.engine.execute_chain(&[
            ops::write(r.data_addr, b"hello".to_vec(), r.data_rkey),
            ops::read(r.data_addr, 5, r.data_rkey),
        ]);
        assert!(res[0].succeeded());
        assert_eq!(res[1].expect_data().unwrap(), b"hello");
    }

    #[test]
    fn indirect_read_follows_pointer() {
        let r = rig();
        let obj = r.data_addr + 256;
        r.arena.write(obj, b"pointed-to").unwrap();
        r.arena.write_u64(r.data_addr, obj).unwrap();
        let res = r
            .engine
            .execute_chain(&[ops::read_indirect(r.data_addr, 10, r.data_rkey)]);
        assert_eq!(res[0].expect_data().unwrap(), b"pointed-to");
    }

    #[test]
    fn bounded_indirect_read_clamps_length() {
        let r = rig();
        let obj = r.data_addr + 256;
        r.arena.write(obj, b"0123456789").unwrap();
        r.arena.write_u64(r.data_addr, obj).unwrap();
        r.arena.write_u64(r.data_addr + 8, 4).unwrap(); // bound = 4
        let res =
            r.engine
                .execute_chain(&[ops::read_indirect_bounded(r.data_addr, 512, r.data_rkey)]);
        assert_eq!(res[0].expect_data().unwrap(), b"0123");
    }

    #[test]
    fn bounded_read_shorter_request_wins() {
        let r = rig();
        let obj = r.data_addr + 256;
        r.arena.write(obj, b"0123456789").unwrap();
        r.arena.write_u64(r.data_addr, obj).unwrap();
        r.arena.write_u64(r.data_addr + 8, 8).unwrap();
        // min(len=2, bound=8) = 2
        let res =
            r.engine
                .execute_chain(&[ops::read_indirect_bounded(r.data_addr, 2, r.data_rkey)]);
        assert_eq!(res[0].expect_data().unwrap(), b"01");
    }

    #[test]
    fn hint_names_the_first_indirect_op_and_executes_nothing() {
        let r = rig();
        let obj = r.data_addr + 256;
        r.arena.write(obj, b"0123456789").unwrap();
        r.arena.write_u64(r.data_addr, obj).unwrap();
        r.arena.write_u64(r.data_addr + 8, 4).unwrap();
        let chain = [
            ops::read(r.data_addr + 512, 64, r.data_rkey),
            ops::allocate(FreeListId(0), b"x".to_vec()),
            ops::read_indirect_bounded(r.data_addr, 512, r.data_rkey),
            ops::write_indirect(r.data_addr + 64, b"y".to_vec(), r.data_rkey),
        ];
        let seqs = r.arena.stripe_sequences();
        let available = r.freelists.available(FreeListId(0));
        let pending = r.engine.hint_chain(&chain);
        assert_eq!(
            pending,
            Some(PendingHint {
                ptr_addr: r.data_addr,
                len: 512,
                bounded: true
            })
        );
        r.engine.hint_target(pending.unwrap());
        assert_eq!(r.engine.hint_chain(&chain[..2]), None, "nothing indirect");
        assert_eq!(r.arena.stripe_sequences(), seqs, "a hint took a stripe");
        assert_eq!(r.freelists.available(FreeListId(0)), available);
        // The hinted chain then executes as if never hinted.
        let res = r.engine.execute_chain(&chain[2..3]);
        assert_eq!(res[0].expect_data().unwrap(), b"0123");
    }

    #[test]
    fn null_pointer_indirection_fails_cleanly() {
        let r = rig();
        // Slot contains 0 (empty). Indirect read must NACK, not panic.
        let res = r
            .engine
            .execute_chain(&[ops::read_indirect(r.data_addr, 8, r.data_rkey)]);
        assert_eq!(
            res[0].status,
            OpStatus::Error(RdmaError::BadIndirectTarget(0))
        );
    }

    #[test]
    fn indirect_target_must_share_rkey() {
        let r = rig();
        // Pointer in the data region pointing into the scratch region:
        // rejected under §3.1's same-rkey rule.
        r.arena.write_u64(r.data_addr, r.scratch_addr).unwrap();
        let res = r
            .engine
            .execute_chain(&[ops::read_indirect(r.data_addr, 8, r.data_rkey)]);
        assert_eq!(
            res[0].status,
            OpStatus::Error(RdmaError::BadIndirectTarget(r.scratch_addr))
        );
    }

    #[test]
    fn write_indirect_stores_through_pointer() {
        let r = rig();
        let obj = r.data_addr + 512;
        r.arena.write_u64(r.data_addr, obj).unwrap();
        let res = r.engine.execute_chain(&[ops::write_indirect(
            r.data_addr,
            b"xyz".to_vec(),
            r.data_rkey,
        )]);
        assert!(res[0].succeeded());
        assert_eq!(r.arena.read(obj, 3).unwrap(), b"xyz");
    }

    #[test]
    fn allocate_pops_writes_and_returns_address() {
        let r = rig();
        let before = r.freelists.available(FreeListId(0));
        let res = r
            .engine
            .execute_chain(&[ops::allocate(FreeListId(0), b"fresh".to_vec())]);
        let addr = u64::from_le_bytes(res[0].expect_data().unwrap().try_into().unwrap());
        assert_eq!(r.arena.read(addr, 5).unwrap(), b"fresh");
        assert_eq!(r.freelists.available(FreeListId(0)), before - 1);
    }

    #[test]
    fn allocate_empty_freelist_is_rnr() {
        let r = rig();
        for _ in 0..8 {
            assert!(r
                .engine
                .execute_one(&ops::allocate(FreeListId(0), vec![]))
                .succeeded());
        }
        let res = r.engine.execute_one(&ops::allocate(FreeListId(0), vec![]));
        assert_eq!(res.status, OpStatus::Error(RdmaError::ReceiverNotReady));
    }

    #[test]
    fn allocate_oversized_payload_returns_buffer() {
        let r = rig();
        let before = r.freelists.available(FreeListId(0));
        let res = r
            .engine
            .execute_one(&ops::allocate(FreeListId(0), vec![0; 200]));
        assert!(matches!(
            res.status,
            OpStatus::Error(RdmaError::BufferTooSmall {
                need: 200,
                have: 128
            })
        ));
        assert_eq!(
            r.freelists.available(FreeListId(0)),
            before,
            "failed allocation must not leak the buffer"
        );
    }

    #[test]
    fn redirect_stages_output_in_scratch() {
        let r = rig();
        r.arena.write(r.data_addr, b"redirected-data!").unwrap();
        let res =
            r.engine.execute_chain(
                &[ops::read(r.data_addr, 16, r.data_rkey).redirect(Redirect {
                    addr: r.scratch_addr,
                    rkey: r.scratch_rkey,
                })],
            );
        assert!(res[0].succeeded());
        assert!(res[0].data.is_empty(), "redirected output not returned");
        assert_eq!(
            r.arena.read(r.scratch_addr, 16).unwrap(),
            b"redirected-data!"
        );
    }

    #[test]
    fn cas_eq_swaps_and_reports_old_value() {
        let r = rig();
        r.arena.write(r.data_addr, &7u64.to_be_bytes()).unwrap();
        let res = r
            .engine
            .execute_one(&ops::cas64(r.data_addr, r.data_rkey, 7, 9));
        assert_eq!(res.status, OpStatus::Ok);
        assert_eq!(res.data, 7u64.to_be_bytes());
        assert_eq!(r.arena.read(r.data_addr, 8).unwrap(), 9u64.to_be_bytes());
    }

    #[test]
    fn cas_failure_returns_old_value_without_swapping() {
        let r = rig();
        r.arena.write(r.data_addr, &7u64.to_be_bytes()).unwrap();
        let res = r
            .engine
            .execute_one(&ops::cas64(r.data_addr, r.data_rkey, 8, 9));
        assert_eq!(res.status, OpStatus::CasFailed);
        assert_eq!(res.data, 7u64.to_be_bytes());
        assert_eq!(r.arena.read(r.data_addr, 8).unwrap(), 7u64.to_be_bytes());
    }

    #[test]
    fn cas_gt_mode_with_field_masks() {
        // Version-install pattern: 16-byte word [version BE | payload],
        // compare version field only (install if new > current), swap all.
        let r = rig();
        let mut word = Vec::new();
        word.extend_from_slice(&5u64.to_be_bytes());
        word.extend_from_slice(&0xAAAA_AAAA_AAAA_AAAAu64.to_be_bytes());
        r.arena.write(r.data_addr, &word).unwrap();

        let mut newer = Vec::new();
        newer.extend_from_slice(&6u64.to_be_bytes());
        newer.extend_from_slice(&0xBBBB_BBBB_BBBB_BBBBu64.to_be_bytes());
        // Mode Lt: *target < data, i.e. current version < new version.
        let op = ops::cas(
            CasMode::Lt,
            r.data_addr,
            r.data_rkey,
            newer.clone(),
            newer.clone(),
            16,
            field_mask(0, 8),
            full_mask(16),
        );
        let res = r.engine.execute_one(&op);
        assert_eq!(res.status, OpStatus::Ok);
        assert_eq!(r.arena.read(r.data_addr, 16).unwrap(), newer);

        // Re-running with the same (now stale) version must fail.
        let res = r.engine.execute_one(&op);
        assert_eq!(res.status, OpStatus::CasFailed);
    }

    #[test]
    fn cas_swap_from_remote_operand() {
        // The ALLOCATE→CAS pattern: swap value staged in scratch.
        let r = rig();
        r.arena.write_u64(r.data_addr, 0).unwrap();
        r.arena
            .write(r.scratch_addr, &0x1234_5678u64.to_le_bytes())
            .unwrap();
        let op = ops::cas_args(
            CasMode::Eq,
            r.data_addr,
            r.data_rkey,
            DataArg::Inline(0u64.to_le_bytes().to_vec()),
            DataArg::Remote {
                addr: r.scratch_addr,
                rkey: r.scratch_rkey,
            },
            8,
            full_mask(8),
            full_mask(8),
        );
        let res = r.engine.execute_one(&op);
        assert_eq!(res.status, OpStatus::Ok);
        assert_eq!(r.arena.read_u64(r.data_addr).unwrap(), 0x1234_5678);
    }

    #[test]
    fn cas_target_indirect() {
        let r = rig();
        let real_target = r.data_addr + 1024;
        r.arena.write(real_target, &1u64.to_be_bytes()).unwrap();
        r.arena.write_u64(r.data_addr, real_target).unwrap();
        let op = PrismOp::Cas {
            mode: CasMode::Eq,
            target: r.data_addr,
            rkey: r.data_rkey,
            compare: DataArg::Inline(1u64.to_be_bytes().to_vec()),
            swap: DataArg::Inline(2u64.to_be_bytes().to_vec()),
            len: 8,
            compare_mask: full_mask(8),
            swap_mask: full_mask(8),
            target_indirect: true,
            conditional: false,
        };
        let res = r.engine.execute_one(&op);
        assert_eq!(res.status, OpStatus::Ok);
        assert_eq!(r.arena.read(real_target, 8).unwrap(), 2u64.to_be_bytes());
    }

    #[test]
    fn cas_rejects_misaligned_and_oversized() {
        let r = rig();
        let res = r
            .engine
            .execute_one(&ops::cas64(r.data_addr + 3, r.data_rkey, 0, 1));
        assert!(matches!(
            res.status,
            OpStatus::Error(RdmaError::Misaligned { .. })
        ));
        let op = ops::cas(
            CasMode::Eq,
            r.data_addr,
            r.data_rkey,
            vec![0; 33],
            vec![0; 33],
            33,
            full_mask(32),
            full_mask(32),
        );
        let res = r.engine.execute_one(&op);
        assert!(matches!(
            res.status,
            OpStatus::Error(RdmaError::OperandTooLong(33))
        ));
    }

    #[test]
    fn conditional_skips_after_failure() {
        let r = rig();
        r.arena.write(r.data_addr, &1u64.to_be_bytes()).unwrap();
        let res = r.engine.execute_chain(&[
            ops::cas64(r.data_addr, r.data_rkey, 99, 2), // fails
            ops::write(r.data_addr + 64, b"should not run".to_vec(), r.data_rkey).conditional(),
            ops::read(r.data_addr + 64, 4, r.data_rkey), // unconditional: runs
        ]);
        assert_eq!(res[0].status, OpStatus::CasFailed);
        assert_eq!(res[1].status, OpStatus::Skipped);
        assert!(res[2].succeeded(), "non-conditional ops always execute");
        assert_eq!(r.arena.read(r.data_addr + 64, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn conditional_chain_runs_after_success() {
        let r = rig();
        let res = r.engine.execute_chain(&[
            ops::write(r.data_addr, b"a".to_vec(), r.data_rkey),
            ops::write(r.data_addr + 1, b"b".to_vec(), r.data_rkey).conditional(),
            ops::read(r.data_addr, 2, r.data_rkey).conditional(),
        ]);
        assert!(res.iter().all(|x| x.succeeded()));
        assert_eq!(res[2].data, b"ab");
    }

    #[test]
    fn skip_propagates_through_conditional_run() {
        let r = rig();
        // A skipped op is unsuccessful, so the next conditional op skips too.
        let res = r.engine.execute_chain(&[
            ops::read_indirect(r.data_addr, 8, r.data_rkey), // null ptr: error
            ops::write(r.data_addr, b"x".to_vec(), r.data_rkey).conditional(),
            ops::write(r.data_addr, b"y".to_vec(), r.data_rkey).conditional(),
        ]);
        assert!(matches!(res[0].status, OpStatus::Error(_)));
        assert_eq!(res[1].status, OpStatus::Skipped);
        assert_eq!(res[2].status, OpStatus::Skipped);
    }

    #[test]
    fn full_out_of_place_update_chain() {
        // The §3.5 composite: ALLOCATE → (redirect) → conditional CAS
        // installing the new pointer, exactly one round trip.
        let r = rig();
        let slot = r.data_addr; // 8-byte pointer slot, initially null
        let res = r.engine.execute_chain(&[
            ops::allocate(FreeListId(0), b"version-1".to_vec()).redirect(Redirect {
                addr: r.scratch_addr,
                rkey: r.scratch_rkey,
            }),
            ops::cas_args(
                CasMode::Eq,
                slot,
                r.data_rkey,
                DataArg::Inline(0u64.to_le_bytes().to_vec()),
                DataArg::Remote {
                    addr: r.scratch_addr,
                    rkey: r.scratch_rkey,
                },
                8,
                full_mask(8),
                full_mask(8),
            )
            .conditional(),
        ]);
        assert!(res.iter().all(|x| x.succeeded()), "{res:?}");
        let ptr = r.arena.read_u64(slot).unwrap();
        assert_eq!(r.arena.read(ptr, 9).unwrap(), b"version-1");

        // A second update expecting the old (null) pointer must fail its
        // CAS and leave the slot alone.
        let res = r.engine.execute_chain(&[
            ops::allocate(FreeListId(0), b"version-2".to_vec()).redirect(Redirect {
                addr: r.scratch_addr,
                rkey: r.scratch_rkey,
            }),
            ops::cas_args(
                CasMode::Eq,
                slot,
                r.data_rkey,
                DataArg::Inline(0u64.to_le_bytes().to_vec()),
                DataArg::Remote {
                    addr: r.scratch_addr,
                    rkey: r.scratch_rkey,
                },
                8,
                full_mask(8),
                full_mask(8),
            )
            .conditional(),
        ]);
        assert_eq!(res[1].status, OpStatus::CasFailed);
        assert_eq!(r.arena.read_u64(slot).unwrap(), ptr);
    }

    #[test]
    fn concurrent_cas_installs_are_linearizable() {
        // Many threads race ALLOCATE→CAS chains against one slot; exactly
        // one per expected-old-value generation must win.
        use std::sync::atomic::{AtomicU64, Ordering};
        let r = Arc::new(rig());
        let slot = r.data_addr;
        let wins = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let r = Arc::clone(&r);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    let op = ops::cas_args(
                        CasMode::Eq,
                        slot,
                        r.data_rkey,
                        DataArg::Inline(0u64.to_le_bytes().to_vec()),
                        DataArg::Inline((i + 1u64).to_le_bytes().to_vec()),
                        8,
                        full_mask(8),
                        full_mask(8),
                    );
                    if r.engine.execute_one(&op).succeeded() {
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
        let v = r.arena.read_u64(slot).unwrap();
        assert!((1..=8).contains(&v));
    }

    #[test]
    fn read_only_region_rejects_chain_writes() {
        let r = rig();
        let ro = r
            .regions
            .register(r.data_addr + 4096, 256, AccessFlags::READ_ONLY);
        let res = r
            .engine
            .execute_one(&ops::write(r.data_addr + 4096, vec![1], ro.0));
        assert!(matches!(
            res.status,
            OpStatus::Error(RdmaError::AccessDenied { .. })
        ));
    }
}
