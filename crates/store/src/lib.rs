//! Simulated-disk durable tier for PRISM servers.
//!
//! Amnesia recovery before this crate rebuilt a wiped server purely from
//! quorum resync over the network. `prism-store` gives each server a
//! local, self-verifying log so a restart can *replay* what the disk
//! kept and fetch only the delta from its peers:
//!
//! * [`SimDisk`] — an in-memory disk with explicit sync points. Bytes
//!   appended after the last `sync` are vulnerable to crash tears;
//!   bytes at rest are vulnerable to scheduled bit rot. Both faults
//!   draw from caller-supplied [`SimRng`] streams so zero-knob plans
//!   stay bit-identical.
//! * [`segment`] — the CRC32-framed on-disk format: a magic + version +
//!   flags header (itself CRC-guarded), length-prefixed records
//!   carrying `(epoch, incarnation, key, payload, record CRC)`, and a
//!   manifest listing sealed segments. Every decode failure is a typed
//!   [`StoreError`]; no input panics or silently passes.
//! * [`SegmentStore`] — append / barrier / replay over a set of
//!   segment files. Replay streams every valid record to a visitor as
//!   a [`RecordView`] borrowed from the disk's own bytes (plus a
//!   [`PayloadRef`] to find the payload again), stops at the first torn
//!   or corrupt frame of each segment, truncates that tail, and
//!   rebuilds the manifest from what actually survived.
//! * [`DurableStats`] — shared counters (`replayed`, `delta_resynced`,
//!   `segments_truncated`) the harness folds into `RunResult` to prove
//!   the recovery-traffic cut.
//!
//! [`SimRng`]: prism_simnet::rng::SimRng

pub mod disk;
pub mod segment;
pub mod store;

pub use disk::{FileId, SimDisk};
pub use segment::{Manifest, Record, RecordView, SealedSeg, StoreError};
pub use store::{DurableStats, PayloadRef, Replay, SegmentStore};
