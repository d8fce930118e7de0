//! Ergonomic construction of PRISM operations.
//!
//! The [`ops`] module provides one constructor per Table-1 primitive with
//! the common flag combinations; a chain is a `Vec` of them. The
//! canonical out-of-place-update chain (§3.5: "ALLOCATE a new buffer,
//! write data into it, and install a pointer to it into another structure
//! using CAS, all within a single round trip") is built once, by
//! [`crate::install::chain`].
//!
//! ```
//! use prism_core::builder::ops;
//!
//! // Read a slot; write 8 bytes only if the read succeeded (§3.4).
//! let chain = [ops::read(0x1_0000, 16, 1), ops::write(0x2_0000, vec![0; 8], 1).conditional()];
//! assert!(!chain[0].is_conditional() && chain[1].is_conditional());
//! ```

use crate::op::{DataArg, FreeListId, PrismOp, Redirect, MAX_CAS_LEN};
use crate::value::CasMode;

/// Flag-setting helpers on [`PrismOp`].
impl PrismOp {
    /// Sets the conditional flag (§3.4): skip unless the previous op in
    /// the chain succeeded.
    #[must_use]
    pub fn conditional(mut self) -> Self {
        match &mut self {
            PrismOp::Read { conditional, .. }
            | PrismOp::Write { conditional, .. }
            | PrismOp::Allocate { conditional, .. }
            | PrismOp::Cas { conditional, .. } => *conditional = true,
        }
        self
    }

    /// Redirects this op's output to a server-side location (§3.4).
    ///
    /// # Panics
    ///
    /// Panics for WRITE and CAS — only READ and ALLOCATE produce
    /// redirectable output (Table 1).
    #[must_use]
    pub fn redirect(mut self, r: Redirect) -> Self {
        match &mut self {
            PrismOp::Read { redirect, .. } | PrismOp::Allocate { redirect, .. } => {
                *redirect = Some(r)
            }
            PrismOp::Write { .. } | PrismOp::Cas { .. } => {
                panic!("only READ and ALLOCATE support output redirection")
            }
        }
        self
    }
}

/// Constructors for the Table-1 primitives.
pub mod ops {
    use super::*;

    /// Plain READ.
    pub fn read(addr: u64, len: u32, rkey: u32) -> PrismOp {
        PrismOp::Read {
            addr,
            len,
            rkey,
            indirect: false,
            bounded: false,
            conditional: false,
            redirect: None,
        }
    }

    /// READ with the indirect bit: `addr` holds a pointer to the data.
    pub fn read_indirect(addr: u64, len: u32, rkey: u32) -> PrismOp {
        PrismOp::Read {
            addr,
            len,
            rkey,
            indirect: true,
            bounded: false,
            conditional: false,
            redirect: None,
        }
    }

    /// READ with indirect + bounded bits: `addr` holds a `(ptr, bound)`
    /// pair; at most `bound` bytes are returned.
    pub fn read_indirect_bounded(addr: u64, len: u32, rkey: u32) -> PrismOp {
        PrismOp::Read {
            addr,
            len,
            rkey,
            indirect: true,
            bounded: true,
            conditional: false,
            redirect: None,
        }
    }

    /// Plain WRITE of inline data.
    pub fn write(addr: u64, data: Vec<u8>, rkey: u32) -> PrismOp {
        let len = data.len() as u32;
        PrismOp::Write {
            addr,
            rkey,
            data: DataArg::Inline(data),
            len,
            addr_indirect: false,
            addr_bounded: false,
            conditional: false,
        }
    }

    /// WRITE through a pointer: `addr` holds the address of the target.
    pub fn write_indirect(addr: u64, data: Vec<u8>, rkey: u32) -> PrismOp {
        let len = data.len() as u32;
        PrismOp::Write {
            addr,
            rkey,
            data: DataArg::Inline(data),
            len,
            addr_indirect: true,
            addr_bounded: false,
            conditional: false,
        }
    }

    /// ALLOCATE from `freelist`, writing `data` into the fresh buffer.
    pub fn allocate(freelist: FreeListId, data: Vec<u8>) -> PrismOp {
        PrismOp::Allocate {
            freelist,
            data,
            conditional: false,
            redirect: None,
        }
    }

    /// Enhanced CAS with inline compare and swap operands.
    #[allow(clippy::too_many_arguments)]
    pub fn cas(
        mode: CasMode,
        target: u64,
        rkey: u32,
        compare: Vec<u8>,
        swap: Vec<u8>,
        len: u32,
        compare_mask: [u8; MAX_CAS_LEN],
        swap_mask: [u8; MAX_CAS_LEN],
    ) -> PrismOp {
        PrismOp::Cas {
            mode,
            target,
            rkey,
            compare: DataArg::Inline(compare),
            swap: DataArg::Inline(swap),
            len,
            compare_mask,
            swap_mask,
            target_indirect: false,
            conditional: false,
        }
    }

    /// Enhanced CAS with explicit [`DataArg`] operands — for the
    /// `data_indirect` patterns where compare or swap is loaded from
    /// server memory (typically the connection scratch slot staged by
    /// earlier ops in the chain, §3.3).
    #[allow(clippy::too_many_arguments)]
    pub fn cas_args(
        mode: CasMode,
        target: u64,
        rkey: u32,
        compare: DataArg,
        swap: DataArg,
        len: u32,
        compare_mask: [u8; MAX_CAS_LEN],
        swap_mask: [u8; MAX_CAS_LEN],
    ) -> PrismOp {
        PrismOp::Cas {
            mode,
            target,
            rkey,
            compare,
            swap,
            len,
            compare_mask,
            swap_mask,
            target_indirect: false,
            conditional: false,
        }
    }

    /// Classic 64-bit equality CAS expressed as an enhanced CAS: if
    /// `*target == compare` then `*target = swap`. Values are big-endian
    /// (the CAS byte-order convention; equality is order-insensitive but
    /// callers mixing this with arithmetic modes get consistent layouts).
    pub fn cas64(target: u64, rkey: u32, compare: u64, swap: u64) -> PrismOp {
        cas(
            CasMode::Eq,
            target,
            rkey,
            compare.to_be_bytes().to_vec(),
            swap.to_be_bytes().to_vec(),
            8,
            crate::op::full_mask(8),
            crate::op::full_mask(8),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_sets_the_flag() {
        let chain = [
            ops::read(0x10, 8, 1),
            ops::write(0x20, vec![1, 2], 1).conditional(),
        ];
        assert!(!chain[0].is_conditional());
        assert!(chain[1].is_conditional());
    }

    #[test]
    fn redirect_on_read_and_allocate() {
        let r = Redirect {
            addr: 0x99,
            rkey: 4,
        };
        let op = ops::read(0x10, 8, 1).redirect(r);
        match op {
            PrismOp::Read { redirect, .. } => assert_eq!(redirect, Some(r)),
            _ => unreachable!(),
        }
        let op = ops::allocate(FreeListId(0), vec![]).redirect(r);
        match op {
            PrismOp::Allocate { redirect, .. } => assert_eq!(redirect, Some(r)),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "only READ and ALLOCATE")]
    fn redirect_on_write_panics() {
        let _ = ops::write(0, vec![], 1).redirect(Redirect { addr: 0, rkey: 0 });
    }

    #[test]
    fn indirect_constructors_set_flags() {
        match ops::read_indirect_bounded(1, 2, 3) {
            PrismOp::Read {
                indirect, bounded, ..
            } => {
                assert!(indirect && bounded);
            }
            _ => unreachable!(),
        }
        match ops::write_indirect(1, vec![0], 3) {
            PrismOp::Write { addr_indirect, .. } => assert!(addr_indirect),
            _ => unreachable!(),
        }
    }
}
