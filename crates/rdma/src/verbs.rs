//! The classic one-sided RDMA verb set, executed against the simulated
//! arena with rkey validation.
//!
//! [`RdmaNic`] is one host's NIC data plane: it owns a reference to the
//! host's memory and region table and executes remote operations with the
//! same checks and atomicity rules as hardware. The lock-based ABD
//! baseline (§7.2) and FaRM's one-sided reads (§8.1) are built directly
//! on these verbs; PRISM's extended engine lives in `prism-core` and
//! shares the same arena, so PRISM and classic atomics are atomic with
//! respect to each other.

use std::sync::Arc;

use crate::arena::MemoryArena;
use crate::error::RdmaError;
use crate::region::{Access, AccessFlags, RegionTable, Rkey};

/// One host's simulated RDMA NIC data plane.
#[derive(Debug, Clone)]
pub struct RdmaNic {
    arena: Arc<MemoryArena>,
    regions: Arc<RegionTable>,
}

impl RdmaNic {
    /// Creates a NIC over a fresh arena of `mem_len` bytes.
    pub fn new(mem_len: u64) -> Self {
        RdmaNic {
            arena: Arc::new(MemoryArena::new(mem_len)),
            regions: Arc::new(RegionTable::new()),
        }
    }

    /// Creates a NIC sharing an existing arena and region table (used by
    /// the PRISM engine so both verb sets hit the same memory).
    pub fn with_shared(arena: Arc<MemoryArena>, regions: Arc<RegionTable>) -> Self {
        RdmaNic { arena, regions }
    }

    /// The host memory this NIC serves.
    pub fn arena(&self) -> &Arc<MemoryArena> {
        &self.arena
    }

    /// The host's registration table.
    pub fn regions(&self) -> &Arc<RegionTable> {
        &self.regions
    }

    /// Host-side registration helper: registers `[addr, addr+len)`.
    pub fn register(&self, addr: u64, len: u64, flags: AccessFlags) -> Rkey {
        self.regions.register(addr, len, flags)
    }

    /// One-sided READ of `len` bytes at `addr` into a fresh buffer.
    ///
    /// Thin wrapper over [`RdmaNic::read_into`]; hot paths should reuse
    /// a response buffer instead of allocating per op.
    pub fn read(&self, rkey: Rkey, addr: u64, len: u64) -> Result<Vec<u8>, RdmaError> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(rkey, addr, &mut buf)?;
        Ok(buf)
    }

    /// One-sided READ of `buf.len()` bytes at `addr` into a
    /// caller-provided buffer (zero-alloc fast path).
    pub fn read_into(&self, rkey: Rkey, addr: u64, buf: &mut [u8]) -> Result<(), RdmaError> {
        self.regions
            .validate(rkey, addr, buf.len() as u64, Access::Read)?;
        self.arena.read_into(addr, buf)
    }

    /// One-sided WRITE of `data` at `addr`.
    pub fn write(&self, rkey: Rkey, addr: u64, data: &[u8]) -> Result<(), RdmaError> {
        self.regions
            .validate(rkey, addr, data.len() as u64, Access::Write)?;
        self.arena.write(addr, data)
    }

    /// Classic 64-bit compare-and-swap: if `*addr == compare` then
    /// `*addr = swap`. Returns the previous value either way, as the verb
    /// does on hardware.
    ///
    /// The operand must be 8-byte aligned (InfiniBand requirement).
    pub fn cas64(&self, rkey: Rkey, addr: u64, compare: u64, swap: u64) -> Result<u64, RdmaError> {
        self.check_atomic_target(rkey, addr)?;
        self.arena.atomic(addr, 8, |bytes| {
            let old = u64::from_le_bytes(bytes.try_into().expect("8-byte operand"));
            if old == compare {
                bytes.copy_from_slice(&swap.to_le_bytes());
            }
            old
        })
    }

    /// Classic 64-bit fetch-and-add. Returns the previous value.
    pub fn fetch_add(&self, rkey: Rkey, addr: u64, add: u64) -> Result<u64, RdmaError> {
        self.check_atomic_target(rkey, addr)?;
        self.arena.atomic(addr, 8, |bytes| {
            let old = u64::from_le_bytes(bytes.try_into().expect("8-byte operand"));
            bytes.copy_from_slice(&old.wrapping_add(add).to_le_bytes());
            old
        })
    }

    fn check_atomic_target(&self, rkey: Rkey, addr: u64) -> Result<(), RdmaError> {
        if !addr.is_multiple_of(8) {
            return Err(RdmaError::Misaligned { addr, required: 8 });
        }
        self.regions.validate(rkey, addr, 8, Access::Atomic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::MemoryArena;

    fn nic() -> (RdmaNic, Rkey) {
        let nic = RdmaNic::new(4096);
        let k = nic.register(MemoryArena::BASE, 4096, AccessFlags::FULL);
        (nic, k)
    }

    #[test]
    fn read_write_round_trip() {
        let (nic, k) = nic();
        let addr = MemoryArena::BASE + 100;
        nic.write(k, addr, b"hello rdma").unwrap();
        assert_eq!(nic.read(k, addr, 10).unwrap(), b"hello rdma");
    }

    #[test]
    fn rkey_is_required() {
        let (nic, _k) = nic();
        let bogus = Rkey(0xdead);
        assert_eq!(
            nic.read(bogus, MemoryArena::BASE, 8).unwrap_err(),
            RdmaError::InvalidRkey(0xdead)
        );
    }

    #[test]
    fn cas_succeeds_and_fails_correctly() {
        let (nic, k) = nic();
        let addr = MemoryArena::BASE + 64;
        nic.arena().write_u64(addr, 7).unwrap();
        // Matching compare swaps and returns old value.
        assert_eq!(nic.cas64(k, addr, 7, 9).unwrap(), 7);
        assert_eq!(nic.arena().read_u64(addr).unwrap(), 9);
        // Mismatched compare leaves memory alone but still returns old.
        assert_eq!(nic.cas64(k, addr, 7, 11).unwrap(), 9);
        assert_eq!(nic.arena().read_u64(addr).unwrap(), 9);
    }

    #[test]
    fn fetch_add_accumulates() {
        let (nic, k) = nic();
        let addr = MemoryArena::BASE;
        assert_eq!(nic.fetch_add(k, addr, 5).unwrap(), 0);
        assert_eq!(nic.fetch_add(k, addr, 3).unwrap(), 5);
        assert_eq!(nic.arena().read_u64(addr).unwrap(), 8);
    }

    #[test]
    fn atomics_require_alignment() {
        let (nic, k) = nic();
        assert_eq!(
            nic.cas64(k, MemoryArena::BASE + 3, 0, 1).unwrap_err(),
            RdmaError::Misaligned {
                addr: MemoryArena::BASE + 3,
                required: 8
            }
        );
    }

    #[test]
    fn read_only_region_rejects_write_and_atomic() {
        let nic = RdmaNic::new(4096);
        let k = nic.register(MemoryArena::BASE, 64, AccessFlags::READ_ONLY);
        assert!(nic.read(k, MemoryArena::BASE, 8).is_ok());
        assert!(nic.write(k, MemoryArena::BASE, &[0; 8]).is_err());
        assert!(nic.cas64(k, MemoryArena::BASE, 0, 1).is_err());
    }

    #[test]
    fn read_into_matches_read() {
        let (nic, k) = nic();
        let addr = MemoryArena::BASE + 256;
        nic.write(k, addr, &[0xAB; 96]).unwrap();
        let mut buf = [0u8; 96];
        nic.read_into(k, addr, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), nic.read(k, addr, 96).unwrap());
        assert!(matches!(
            nic.read_into(Rkey(0xbad), addr, &mut buf),
            Err(RdmaError::InvalidRkey(0xbad))
        ));
    }

    #[test]
    fn concurrent_cas_lock_acquisition_is_exclusive() {
        // Model the ABDLOCK pattern: many clients CAS 0 -> id; exactly one
        // must win each round.
        use std::sync::Arc;
        let (nic, k) = nic();
        let nic = Arc::new(nic);
        let addr = MemoryArena::BASE + 8;
        for _round in 0..50 {
            nic.arena().write_u64(addr, 0).unwrap();
            let winners: usize = {
                let handles: Vec<_> = (1..=8u64)
                    .map(|id| {
                        let nic = Arc::clone(&nic);
                        std::thread::spawn(move || {
                            (nic.cas64(k, addr, 0, id).unwrap() == 0) as usize
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            };
            assert_eq!(winners, 1, "exactly one client acquires the lock");
        }
    }
}
