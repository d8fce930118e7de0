//! PRISM-TX (§8 of the PRISM paper): serializable distributed
//! transactions over sharded storage, with execution, prepare, and
//! commit all performed by remote operations — plus the FaRM baseline
//! it is evaluated against.
//!
//! * [`driver`] — the client contract both protocols implement
//!   ([`TxProtocol`]: begin over the read keys, feed replies, supply the
//!   writes at the pause every attempt makes once its reads are in), the
//!   one [`TxOutcome`] and [`TxStep`] they share, and the local
//!   [`drive`] / [`run_rmw`] over any of them.
//! * [`prism_tx`] — Meerkat-style timestamp OCC with per-key `PW/PR/C`
//!   metadata validated by single enhanced-CAS operations; commits
//!   install out-of-place version buffers. Two round trips to commit.
//! * [`farm`] — the FaRM protocol (§8.1): one-sided reads during
//!   execution, then a three-phase commit (lock RPC, one-sided
//!   validation reads, update+unlock RPC) requiring server CPU.
//! * [`ts`] — loosely synchronized logical timestamps.
//!
//! # Placement
//!
//! Both protocols place keys alike: in a cluster of `n` shards, global
//! key `k` lives on shard `k % n` at local index `k / n`.
//!
//! # Examples
//!
//! ```
//! use prism_tx::farm::{FarmCluster, FarmConfig};
//! use prism_tx::prism_tx::{TxCluster, TxConfig};
//! use prism_tx::{drive, run_rmw, TxOutcome, TxProtocol};
//!
//! let cluster = TxCluster::new(2, &TxConfig::paper(32, 16));
//! let mut client = cluster.open_client();
//!
//! // A serializable read-modify-write across two shards: each attempt
//! // reads, pauses, then takes the writes computed from what it read.
//! let bump = |key, values: &std::collections::HashMap<u64, Vec<u8>>| {
//!     let mut v: Vec<u8> = values[&key].clone();
//!     v[0] += 1;
//!     v
//! };
//! let (outcome, attempts) = run_rmw(&cluster, &mut client, &[1, 2], bump, 16);
//! assert!(matches!(outcome, TxOutcome::Committed(_)));
//! assert_eq!(attempts, 1);
//!
//! // One attempt by hand: at the pause, `drive` hands the values read
//! // to the closure, whose writes (none: read-only) start validation.
//! let (op, step) = client.begin(vec![1, 2]);
//! let outcome = drive(&cluster, &mut client, op, step, |values| {
//!     assert_eq!((values[&1][0], values[&2][0]), (1, 1));
//!     vec![]
//! });
//! assert!(matches!(outcome, TxOutcome::Committed(_)));
//!
//! // The same driver runs the FaRM baseline.
//! let farm = FarmCluster::new(2, &FarmConfig { keys_per_shard: 32, value_len: 16 });
//! let mut client = farm.open_client();
//! let (outcome, _) = run_rmw(&farm, &mut client, &[1, 2], bump, 16);
//! assert!(matches!(outcome, TxOutcome::Committed(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod farm;
pub mod prism_tx;
mod shard;
pub mod ts;

pub use driver::{drive, run_rmw, TxOutcome, TxProtocol, TxStep};
pub use prism_tx::{TxClient, TxCluster, TxConfig, TxOp, TxServer};
pub use ts::{Ts, TxClock};
