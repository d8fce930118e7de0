//! Simulated RDMA substrate for the PRISM reproduction.
//!
//! The PRISM paper runs over Mellanox ConnectX-5 RDMA NICs. This crate is
//! the software substitute (see `DESIGN.md` §2): an in-process "host
//! memory" that behaves like NIC-accessed registered memory —
//! byte-addressable, protected by rkeys, with classic one-sided verbs
//! (READ, WRITE, 64-bit CAS, FETCH-AND-ADD) whose atomicity matches the
//! RDMA specification: atomics are atomic with respect to other NIC
//! operations, and plain READ/WRITE are only single-copy-atomic within a
//! cache line. Everything the protocols depend on — pointer-size reads
//! never tear, large transfers may observe concurrent writes at cache-line
//! granularity, rkey checks reject stray accesses — is implemented exactly.
//!
//! * [`arena`] — the byte-addressable memory with per-line seqlocks.
//! * [`region`] — memory registration and rkey validation.
//! * [`verbs`] — the classic one-sided verb set ([`verbs::RdmaNic`]).
//! * [`bufqueue`] — registered buffer queues (the paper's free lists,
//!   "represented as a RDMA queue pair", §3.2).
//! * [`error`] — NACK-style error codes.
//! * [`hash`] — the hasher for program-generated integer keys (buffer
//!   addresses, request tags) shared by every crate in the workspace.
//! * [`sync`] — std-only locks shared by every crate in the workspace
//!   (no registry dependencies).

// `deny`, not `forbid`: the crate's two blocks each carry their own
// `#[allow]` — `arena::prefetch_words`, the entry into the SSE
// prefetch, and `arena::madvise_huge_pages`, the `madvise` call
// (DESIGN.md §5.6).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bufqueue;
pub mod error;
pub mod hash;
pub mod region;
pub mod sync;
pub mod verbs;

pub use arena::MemoryArena;
pub use bufqueue::BufferQueue;
pub use error::RdmaError;
pub use region::{AccessFlags, RegionTable, Rkey};
pub use verbs::RdmaNic;
