//! PRISM-RS (§7 of the PRISM paper): a fault-tolerant, linearizable
//! replicated block store built entirely from PRISM operations, plus the
//! lock-based standard-RDMA baseline it is evaluated against.
//!
//! * [`driver`] — the client contract both protocols implement
//!   ([`RsProtocol`]: get, put, feed replies, reissue), the one
//!   [`RsStep`] and [`RsOutcome`] they share, and the local [`drive`]
//!   over either of them.
//! * [`prism_rs`] — multi-writer ABD over PRISM chains: indirect READs
//!   fetch `[tag | value]` atomically; the write phase installs
//!   out-of-place buffers with a single tag-guarded enhanced CAS. Two
//!   round trips per operation, no replica CPU on the data path.
//! * [`abdlock`] — the same ABD protocol over classic verbs with
//!   per-block spinlocks (§7.2): four round trips, lock contention, and
//!   possible livelock — the behaviour Figures 6 and 7 compare against.
//! * [`tag`] — `(timestamp, client)` tags whose big-endian byte order
//!   matches the enhanced CAS's arithmetic comparison.
//!
//! # Examples
//!
//! ```
//! use prism_rs::abdlock::{AbdLockCluster, AbdLockConfig};
//! use prism_rs::prism_rs::{RsCluster, RsConfig};
//! use prism_rs::{drive, RsOutcome, RsProtocol};
//!
//! // Three replicas tolerate one failure.
//! let cluster = RsCluster::new(3, &RsConfig::paper(16, 64));
//! let mut client = cluster.open_client();
//!
//! let (op, step) = client.put(3, vec![7u8; 64]);
//! assert_eq!(drive(&cluster, &mut client, op, step, &[false; 3]), RsOutcome::Written);
//!
//! // Reads succeed through any majority — here with replica 0 down.
//! let (op, step) = client.get(3);
//! let crashed = [true, false, false];
//! assert_eq!(
//!     drive(&cluster, &mut client, op, step, &crashed),
//!     RsOutcome::Value(vec![7u8; 64])
//! );
//!
//! // The same driver runs the ABDLOCK baseline.
//! let abd = AbdLockCluster::new(3, &AbdLockConfig { n_blocks: 16, block_size: 64 });
//! let mut client = abd.open_client(1);
//! let (op, step) = client.put(3, vec![7u8; 64]);
//! assert_eq!(drive(&abd, &mut client, op, step, &crashed), RsOutcome::Written);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abdlock;
pub mod driver;
pub mod prism_rs;
pub mod tag;

pub use abdlock::{AbdLockClient, AbdLockCluster, AbdLockConfig, AbdLockOp};
pub use driver::{drive, RsOutcome, RsProtocol, RsStep};
pub use prism_rs::{PrismRsServer, RsClient, RsCluster, RsConfig, RsOp};
pub use tag::Tag;
