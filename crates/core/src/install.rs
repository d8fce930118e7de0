//! The one-round-trip out-of-place update (§3.5) and the buffer it frees
//! (§3.2). A PRISM-KV PUT, a PRISM-RS write phase and a PRISM-TX commit
//! are each this chain against a 16-byte word: WRITE one half of a
//! 16-byte stage in connection scratch, ALLOCATE the payload with its
//! address redirected into the other half, CAS the word to the stage if
//! the [`Guard`] holds, READ the new address back. [`chain`] builds it,
//! [`read`] reads its reply, and [`Installed::garbage`] is §3.2's rule:
//! the winner frees the buffer it displaced, a loser its own orphan.

use crate::builder::ops;
use crate::engine::{OpResult, OpStatus};
use crate::op::{field_mask, full_mask, DataArg, FreeListId, PrismOp, Redirect};
use crate::value::CasMode;

/// Ops in one install chain.
pub const OPS: usize = 4;

/// Which half of the 16-byte word holds the buffer pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Word {
    /// `[ptr | bound]`: a PRISM-KV slot.
    PtrBound,
    /// `[tag | ptr]`: a PRISM-RS metadata entry, a PRISM-TX commit word.
    TagPtr,
}

impl Word {
    /// The little-endian pointer inside `word`; 0 unless `word` is 16
    /// bytes.
    pub fn ptr(self, word: &[u8]) -> u64 {
        half(word, if self == Word::TagPtr { 8 } else { 0 })
    }

    /// The little-endian bound beside the pointer of a `[ptr | bound]`
    /// word; 0 for a `[tag | ptr]` word (its tag is compared as
    /// big-endian bytes, never read as a length) or unless `word` is 16
    /// bytes.
    pub fn bound(self, word: &[u8]) -> u64 {
        if self == Word::PtrBound {
            half(word, 8)
        } else {
            0
        }
    }
}

/// The little-endian half of a 16-byte `word` at byte `at` (0 or 8); 0
/// unless `word` is 16 bytes.
fn half(word: &[u8], at: usize) -> u64 {
    if word.len() != 16 {
        return 0;
    }
    word[at..]
        .first_chunk()
        .map_or(0, |half| u64::from_le_bytes(*half))
}

/// When the CAS may swap the new pointer in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// The word still equals `old`, the `[ptr | bound]` pair the caller
    /// probed; `bound` is staged beside the new pointer (PRISM-KV).
    Unchanged {
        /// The probed word.
        old: [u8; 16],
        /// The new buffer's bound.
        bound: u64,
    },
    /// The word's big-endian tag is below `tag` — CAS_GT, written as
    /// [`CasMode::Lt`] with the compare mask on the tag (PRISM-RS,
    /// PRISM-TX).
    TagBelow {
        /// The new tag, staged beside the new pointer.
        tag: [u8; 8],
    },
}

/// The install chain of `payload` (from `freelist`) into the word at
/// `target` under `rkey`, through the 16 scratch bytes at `stage`.
pub fn chain(
    target: u64,
    rkey: u32,
    stage: Redirect,
    freelist: FreeListId,
    payload: Vec<u8>,
    guard: Guard,
) -> [PrismOp; OPS] {
    let (addr, stage_rkey) = (stage.addr, stage.rkey);
    let staged = DataArg::Remote {
        addr,
        rkey: stage_rkey,
    };
    let (half, bytes, ptr_at, compare, mode, mask) = match guard {
        Guard::Unchanged { old, bound } => {
            let old = DataArg::Inline(old.to_vec());
            (8, bound.to_le_bytes(), 0, old, CasMode::Eq, full_mask(16))
        }
        Guard::TagBelow { tag } => (0, tag, 8, staged.clone(), CasMode::Lt, field_mask(0, 8)),
    };
    let redirect = Redirect {
        addr: addr + ptr_at,
        rkey: stage_rkey,
    };
    [
        ops::write(addr + half, bytes.to_vec(), stage_rkey),
        ops::allocate(freelist, payload).redirect(redirect),
        ops::cas_args(mode, target, rkey, compare, staged, 16, mask, full_mask(16)).conditional(),
        ops::read(redirect.addr, 8, stage_rkey),
    ]
}

/// Why an install chain reached no verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Fewer results than the chain has ops.
    Short,
    /// ALLOCATE failed, so the CAS never ran.
    Allocate,
    /// The CAS lost, but the read-back named no buffer.
    ReadBack,
    /// The CAS faulted.
    Cas,
}

/// How an install chain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Installed {
    /// The CAS swapped the new pointer in.
    Won {
        /// The pointer it replaced (0: none).
        displaced: u64,
    },
    /// The guard failed.
    Lost {
        /// The new buffer, which nothing references.
        orphan: u64,
        /// The word as the failed CAS found it (the engine returns the
        /// old value on a failed compare): who holds the word instead.
        /// Zero-padded past a shorter CAS result, which the engine never
        /// returns for the 16-byte word.
        found: [u8; 16],
    },
    /// No verdict.
    Failed(Failure),
}

impl Installed {
    /// The buffer §3.2 says to free: the displaced one after a win, the
    /// orphan after a loss; none after a failure or for a null pointer.
    pub fn garbage(&self) -> Option<u64> {
        match *self {
            Installed::Won { displaced: a } | Installed::Lost { orphan: a, .. } if a != 0 => {
                Some(a)
            }
            _ => None,
        }
    }
}

/// Reads the install chain at the front of `results`.
pub fn read(results: &[OpResult], word: Word) -> Installed {
    let [_, alloc, cas, back, ..] = results else {
        return Installed::Failed(Failure::Short);
    };
    if matches!(alloc.status, OpStatus::Error(_)) {
        return Installed::Failed(Failure::Allocate);
    }
    match (&cas.status, &back.status) {
        (OpStatus::Ok, _) => Installed::Won {
            displaced: word.ptr(&cas.data),
        },
        (OpStatus::CasFailed, OpStatus::Ok) if back.data.len() == 8 => {
            let mut found = [0; 16];
            let n = cas.data.len().min(16);
            found[..n].copy_from_slice(&cas.data[..n]);
            Installed::Lost {
                orphan: u64::from_le_bytes(back.data[..].try_into().expect("8 bytes")),
                found,
            }
        }
        (OpStatus::CasFailed, _) => Installed::Failed(Failure::ReadBack),
        _ => Installed::Failed(Failure::Cas),
    }
}

/// Reads a reply of several install chains back to back, one verdict
/// per chain; a trailing partial chain reads as [`Failure::Short`].
pub fn read_each(results: &[OpResult], word: Word) -> impl Iterator<Item = Installed> + '_ {
    results.chunks(OPS).map(move |r| read(r, word))
}
