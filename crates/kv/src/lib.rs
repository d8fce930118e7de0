//! PRISM-KV (§6 of the PRISM paper) and the Pilaf baseline (§6, [31]).
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
//! discrete-event simulator (figure regeneration).
//!
//! # Examples
//!
//! ```
//! use prism_core::msg::execute_local;
//! use prism_kv::prism_kv::{drive, PrismKvConfig, PrismKvServer};
//! use prism_kv::{KvOutcome, KvStep};
//!
//! let server = PrismKvServer::new(&PrismKvConfig::paper(64, 32));
//! let client = server.open_client();
//!
//! // PUT: probe round trip, then the chained install round trip —
//! // `drive` feeds each reply back until the machine is done.
//! let (mut op, request) = client.put(&prism_kv::hash::key_bytes(5), &[9u8; 32]);
//! let (outcome, round_trips) = drive(server.server(), request, |r| op.on_reply(&client, r));
//! assert_eq!((outcome, round_trips), (KvOutcome::Written, 2));
//!
//! // GET: a single bounded indirect READ.
//! let (mut op, request) = client.get(&prism_kv::hash::key_bytes(5));
//! let reply = execute_local(server.server(), &request);
//! match op.on_reply(&client, reply) {
//!     KvStep::Done { outcome, .. } => {
//!         assert_eq!(outcome, KvOutcome::Value(Some(vec![9u8; 32])));
//!     }
//!     _ => unreachable!("hit on the first probe"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod hash;
pub mod pilaf;
pub mod prism_kv;

use prism_core::msg::Request;

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

    /// The round-trip request, if this step sends one.
    pub fn request(&self) -> Option<&Request> {
        match self {
            KvStep::Send { request, .. } => Some(request),
            KvStep::Done { .. } => None,
        }
    }
}
