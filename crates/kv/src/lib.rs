//! PRISM-KV (§6 of the PRISM paper) and the Pilaf baseline (§6, \[31\]).
//!
//! Both stores share the same general design: a hash-table index in
//! registered memory pointing at out-of-line entries. They differ in how
//! operations execute:
//!
//! * **Pilaf** ([`pilaf`]): GETs are two one-sided READs (index entry,
//!   then data) guarded by CRCs against concurrent updates; PUTs are
//!   two-sided RPCs executed by the server CPU.
//! * **PRISM-KV** ([`prism_kv`]): GETs are a single bounded indirect
//!   READ; PUTs are a one-round-trip ALLOCATE → (redirect) → CAS chain
//!   that installs the new buffer out of place. No server CPU on the
//!   data path; only the asynchronous buffer-reclaim notification uses
//!   an RPC.
//!
//! Client protocols are sans-I/O state machines ([`KvStep`]): they emit
//! [`prism_core::msg::Request`]s and consume replies, so the same code
//! runs against a local server (tests, examples) and under the
//! discrete-event simulator (figure regeneration). Both stores implement
//! one client contract, [`KvProtocol`] ([`driver`]), and [`drive`] runs
//! either against a local server.
//!
//! # Examples
//!
//! ```
//! use prism_core::PrismServer;
//! use prism_kv::hash::key_bytes;
//! use prism_kv::pilaf::{PilafConfig, PilafServer};
//! use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
//! use prism_kv::{drive, KvOutcome, KvProtocol};
//!
//! /// PUTs key 5, reads it back, and returns each op's round trips.
//! fn put_then_get<P: KvProtocol>(server: &PrismServer, client: &P) -> (u32, u32) {
//!     // `drive` feeds each reply back until the machine is done.
//!     let (mut op, request) = client.start(&key_bytes(5), Some(&[9u8; 32]));
//!     let (outcome, put) = drive(server, request, |r| client.on_reply(&mut op, r));
//!     assert_eq!(outcome, KvOutcome::Written);
//!     let (mut op, request) = client.start(&key_bytes(5), None);
//!     let (outcome, get) = drive(server, request, |r| client.on_reply(&mut op, r));
//!     assert_eq!(outcome, KvOutcome::Value(Some(vec![9u8; 32])));
//!     (put, get)
//! }
//!
//! // PRISM-KV: a PUT is a probe, then the chained install; a GET is a
//! // single bounded indirect READ.
//! let prism = PrismKvServer::new(&PrismKvConfig::paper(64, 32));
//! assert_eq!(put_then_get(prism.server(), &prism.open_client()), (2, 1));
//!
//! // Pilaf: a PUT is one RPC; a GET reads the index, then the data.
//! let pilaf = PilafServer::new(&PilafConfig::paper(64, 32));
//! assert_eq!(put_then_get(pilaf.server(), &pilaf.open_client()), (1, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod entry;
pub mod hash;
pub mod pilaf;
pub mod prism_kv;

use prism_core::msg::Request;
use prism_core::Step;

pub use driver::{drive, KvProtocol};

/// Outcome of a completed key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOutcome {
    /// GET result: the value, or `None` if absent.
    Value(Option<Vec<u8>>),
    /// PUT or DELETE completed.
    Written,
    /// The operation could not complete (e.g. free list exhausted,
    /// retry budget spent under heavy contention).
    Failed(&'static str),
}

/// One step of a client state machine.
///
/// `background` carries an optional fire-and-forget request (PRISM-KV's
/// asynchronous buffer-free notification, §6.1) that the driver sends
/// without waiting for a reply and without counting toward operation
/// latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvStep {
    /// Send `request` to the server and feed the reply back.
    Send {
        /// The round-trip request.
        request: Request,
        /// Optional fire-and-forget follow-up.
        background: Option<Request>,
    },
    /// The operation is complete.
    Done {
        /// Final outcome.
        outcome: KvOutcome,
        /// Optional fire-and-forget follow-up.
        background: Option<Request>,
    },
}

impl KvStep {
    /// A plain send without background work.
    pub fn send(request: Request) -> Self {
        KvStep::Send {
            request,
            background: None,
        }
    }

    /// Completed without background work.
    pub fn done(outcome: KvOutcome) -> Self {
        KvStep::Done {
            outcome,
            background: None,
        }
    }
}

/// A key-value step's requests go to destination 0, its one server.
impl From<KvStep> for Step<KvOutcome> {
    fn from(step: KvStep) -> Self {
        let (mut step, background) = match step {
            KvStep::Send {
                request,
                background,
            } => (Step::sends(vec![(0, 0, 0, request)]), background),
            KvStep::Done {
                outcome,
                background,
            } => (Step::finished(outcome), background),
        };
        step.background.extend(background.map(|b| (0, b)));
        step
    }
}
