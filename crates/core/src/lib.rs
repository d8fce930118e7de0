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
//! One-round-trip out-of-place update (the §3.5 pattern):
//!
//! ```
//! use prism_core::builder::{ops, ChainBuilder};
//! use prism_core::op::{full_mask, DataArg, FreeListId, Redirect};
//! use prism_core::server::PrismServer;
//! use prism_core::value::CasMode;
//! use prism_rdma::region::AccessFlags;
//!
//! let server = PrismServer::new(1 << 20);
//! let (slot, table_rkey) = server.carve_region(8, 8, AccessFlags::FULL);
//! server.setup_freelist(FreeListId(0), 64, 16);
//! let conn = server.open_connection();
//!
//! let scratch = Redirect { addr: conn.scratch_addr, rkey: conn.scratch_rkey.0 };
//! let chain = ChainBuilder::new()
//!     .then(ops::allocate(FreeListId(0), b"value-v1".to_vec()).redirect(scratch))
//!     .then(ops::cas_args(
//!         CasMode::Eq,
//!         slot,
//!         table_rkey.0,
//!         DataArg::Inline(0u64.to_le_bytes().to_vec()), // expect empty slot
//!         DataArg::Remote { addr: scratch.addr, rkey: scratch.rkey },
//!         8,
//!         full_mask(8),
//!         full_mask(8),
//!     ).conditional())
//!     .build();
//!
//! let results = server.execute_chain(&chain);
//! assert!(results.iter().all(|r| r.succeeded()));
//!
//! // The slot now points at the allocated buffer holding the value.
//! let ptr = server.arena().read_u64(slot).unwrap();
//! assert_eq!(server.arena().read(ptr, 8).unwrap(), b"value-v1");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod builder;
pub mod conn;
pub mod crc;
pub mod engine;
pub mod freelist;
pub mod integrity;
pub mod layout;
pub mod msg;
pub mod op;
pub mod server;
pub mod value;
pub mod wire;

pub use builder::ChainBuilder;
pub use engine::{OpResult, OpStatus, PrismEngine};
pub use op::{DataArg, FreeListId, PrismOp, Redirect};
pub use server::{ChainObserver, PrismServer};
pub use value::CasMode;
