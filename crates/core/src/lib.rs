//! `prism-core` — the PRISM interface from *PRISM: Rethinking the RDMA
//! Interface for Distributed Systems* (SOSP 2021).
//!
//! PRISM extends RDMA's READ/WRITE interface with four primitives
//! (Table 1 of the paper):
//!
//! 1. **Indirection** (§3.1) — READ/WRITE/CAS targets may be pointers,
//!    optionally bounded `(ptr, bound)` pairs for variable-length data.
//! 2. **Allocation** (§3.2) — ALLOCATE pops a buffer from a registered
//!    free list, fills it, and returns its address.
//! 3. **Enhanced compare-and-swap** (§3.3) — up to 32 bytes, separate
//!    compare/swap bitmasks, arithmetic comparison modes, indirect
//!    operands.
//! 4. **Operation chaining** (§3.4) — conditional execution and output
//!    redirection let a chain like ALLOCATE → WRITE → CAS run in one
//!    round trip.
//!
//! This crate implements those primitives as a software data plane (the
//! paper's own prototype is software, §4.1) over the simulated RDMA
//! substrate in `prism-rdma`. The applications in `prism-kv`,
//! `prism-rs`, and `prism-tx` are built purely on this API.
//!
//! # Examples
//!
//! One-round-trip out-of-place update (the §3.5 pattern, built by
//! [`install::chain`]):
//!
//! ```
//! use prism_core::install::{self, Guard, Installed, Word};
//! use prism_core::op::{FreeListId, Redirect};
//! use prism_core::server::PrismServer;
//! use prism_rdma::region::AccessFlags;
//!
//! let server = PrismServer::new(1 << 20);
//! let (slot, rkey) = server.carve_region(16, 16, AccessFlags::FULL);
//! server.setup_freelist(FreeListId(0), 64, 16);
//! let conn = server.open_connection();
//! let stage = Redirect { addr: conn.scratch_addr, rkey: conn.scratch_rkey.0 };
//!
//! // The slot is `[ptr | bound]`, empty: install if it still is.
//! let guard = Guard::Unchanged { old: [0; 16], bound: 8 };
//! let chain = install::chain(slot, rkey.0, stage, FreeListId(0), b"value-v1".to_vec(), guard);
//! let results = server.execute_chain(&chain);
//! assert_eq!(install::read(&results, Word::PtrBound), Installed::Won { displaced: 0 });
//! let ptr = server.arena().read_u64(slot).unwrap();
//! assert_eq!(server.arena().read(ptr, 8).unwrap(), b"value-v1");
//!
//! // The same chain again: the slot changed, so the CAS loses and the
//! // second buffer is the caller's to free.
//! let chain = install::chain(slot, rkey.0, stage, FreeListId(0), b"value-v2".to_vec(), guard);
//! let lost = install::read(&server.execute_chain(&chain), Word::PtrBound);
//! let Installed::Lost { orphan, found } = lost else { panic!("{lost:?}") };
//! assert_eq!(found[..8], ptr.to_le_bytes(), "the failed CAS names the winner");
//! assert_eq!(lost.garbage(), Some(orphan));
//! assert!(server.freelists().free(orphan).is_ok());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod builder;
pub mod conn;
pub mod crc;
pub mod engine;
pub mod freelist;
pub mod install;
pub mod integrity;
pub mod layout;
pub mod lease;
pub mod msg;
pub mod op;
pub mod server;
pub mod step;
pub mod value;
pub mod wire;

pub use engine::{OpResult, OpStatus, PrismEngine};
pub use op::{DataArg, FreeListId, PrismOp, Redirect};
pub use server::{AlreadyInstalled, ChainObserver, PrismServer};
pub use step::Step;
pub use value::CasMode;
