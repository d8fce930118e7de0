//! Simulation glue: server and client actors over the DES kernel.
//!
//! A request's end-to-end latency decomposes exactly as in the cost
//! model (`prism_simnet::latency`):
//!
//! ```text
//! client overhead + NICs + wire (pre)
//!   → server rx link (queue + serialization)
//!   → processing: PCIe (hardware verbs) or DMA + dispatch core
//!     (software verbs, PRISM chains, RPCs; 16-core FIFO pool)
//!   → server tx link (queue + serialization)
//!   → wire + NICs (post)
//! ```
//!
//! Unloaded, this reproduces the closed-form round trips of
//! [`CostModel`]; under load, queueing at the two link directions and
//! the core pool produces the throughput-latency curves of the paper's
//! figures.
//!
//! One file per layer:
//!
//! * this file — the messages actors exchange and the [`ProtoAdapter`]
//!   interface protocol clients implement;
//! * `server` — [`ServerActor`]: link shapers, dispatch cores, the
//!   reply-leg fault gauntlet, recovery hooks;
//! * `transport` — the one client transport (timeouts, `(tag, attempt)`
//!   dedup, incarnation fencing, the request-leg fault gauntlet,
//!   hedging, adaptive timeout/backoff) and the operation lifecycle,
//!   shared by both arrival policies;
//! * `client` — [`ClientActor`], the closed-loop arrival policy (the
//!   open-loop one is [`crate::openloop::OpenLoopActor`]);
//! * `run` — [`run_closed_loop`] and the set-up/measure steps every
//!   runner shares.

use prism_core::msg::{Reply, Request};
use prism_simnet::engine::ActorId;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};

mod client;
pub(crate) mod run;
mod server;
#[cfg(test)]
pub(crate) mod test_support;
pub(crate) mod transport;

pub use client::ClientActor;
pub use run::{run_closed_loop, run_closed_loop_with, RunResult};
pub use server::{DiskHook, DiskRotHook, RecoveryHooks, ServerActor, ServerHook, VerbPath};

/// One message a protocol adapter wants sent.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// Which server (index into the experiment's server list).
    pub server: usize,
    /// Opaque routing tag the adapter uses to match the reply.
    pub tag: u64,
    /// The request.
    pub req: Request,
    /// Fire-and-forget: processed by the server, no reply, not part of
    /// operation latency (reclamation traffic).
    pub background: bool,
    /// The shard-map epoch this request was routed under, carried in
    /// the wire frame ([`prism_core::msg::Request::encode_epoch`]).
    /// Servers fence requests stamped older than their installed epoch
    /// with `RdmaError::StaleEpoch`. 0 = unsharded: never fenced.
    pub epoch: u64,
}

impl Outbound {
    /// An unsharded (epoch-0) send — what every pre-cluster adapter
    /// produces.
    pub fn new(server: usize, tag: u64, req: Request, background: bool) -> Self {
        Outbound {
            server,
            tag,
            req,
            background,
            epoch: 0,
        }
    }
}

/// What the adapter wants next after a reply.
#[derive(Debug)]
pub enum AdapterStep {
    /// Waiting for more in-flight replies.
    Wait(Vec<Outbound>),
    /// The current operation finished; `client_compute` models
    /// client-side CPU charged before the next op starts (e.g. Pilaf's
    /// CRC checks, §6.2). `failed` operations are counted separately
    /// and not recorded as latency samples.
    Done {
        /// Trailing sends (reclamation, cleanup).
        sends: Vec<Outbound>,
        /// Client CPU before completion.
        client_compute: SimDuration,
        /// Whether the operation failed/aborted (excluded from latency).
        failed: bool,
    },
    /// Back off (lock or validation contention), flushing `sends`
    /// (reclamation traffic) first, then resume via
    /// [`ProtoAdapter::resume`].
    Backoff {
        /// Fire-and-forget traffic to flush before sleeping.
        sends: Vec<Outbound>,
        /// How long to wait.
        wait: SimDuration,
    },
    /// Retry after a lost round trip (a timed-out request under a
    /// `FaultPlan`): like [`AdapterStep::Backoff`] but counted under
    /// the `retries` metric. The op's latency clock keeps running.
    Retry {
        /// Fire-and-forget traffic to flush before sleeping.
        sends: Vec<Outbound>,
        /// How long to wait before [`ProtoAdapter::resume`].
        wait: SimDuration,
    },
    /// The operation exhausted its transport retry budget and is being
    /// abandoned. Like a failed [`AdapterStep::Done`] but counted under
    /// the dedicated `giveups` metric, so budget exhaustion is
    /// distinguishable from protocol-level failure in experiment
    /// output.
    GiveUp {
        /// Trailing sends (reclamation, cleanup).
        sends: Vec<Outbound>,
    },
}

/// A closed-loop protocol client, sans I/O.
pub trait ProtoAdapter {
    /// Begins the next operation, returning its initial sends.
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound>;

    /// Resumes after a [`AdapterStep::Backoff`].
    fn resume(&mut self) -> Vec<Outbound>;

    /// Feeds one reply (matched by `tag`).
    fn on_reply(&mut self, tag: u64, reply: Reply) -> AdapterStep;

    /// Observes the virtual clock just before the next `start`/`resume`/
    /// `on_reply` call. Default: ignored. History-recording adapters
    /// (the chaos gate's linearizability drivers) use this to timestamp
    /// operation invocations and completions without widening the other
    /// callbacks.
    fn note_time(&mut self, _now: SimTime) {}

    /// Offers a reply that arrived too late to match an outstanding
    /// attempt — it raced its own timeout, or trails an operation the
    /// adapter already finished. The actor guarantees **exactly-once**
    /// delivery per send attempt: a reply is either fed to
    /// [`ProtoAdapter::on_reply`] or offered here, never both, and
    /// duplicated deliveries of the same attempt are dropped before
    /// this hook.
    ///
    /// The operation's outcome is already settled, so implementations
    /// must not change protocol state; the hook exists to *reclaim*
    /// resources the reply proves exist — e.g. a spare buffer a lost
    /// write reply would otherwise leak (returned sends should be
    /// `background`). `server` is the flat index the reply came from,
    /// so reclamation can be routed back to the allocating shard.
    /// Default: the reply is discarded.
    fn on_stale_reply(&mut self, _tag: u64, _server: usize, _reply: Reply) -> Vec<Outbound> {
        Vec::new()
    }

    /// Whether the outstanding send behind `tag` may be hedged: a
    /// byte-identical copy issued while the first is still in flight,
    /// first reply home wins. Only idempotent reads qualify — a hedged
    /// write or ALLOCATE would execute twice. Default: nothing is
    /// eligible, so arming the hedge policy is a per-adapter opt-in.
    fn hedge_eligible(&self, _tag: u64) -> bool {
        false
    }

    /// Abandons the operation in flight (deadline shed): the client
    /// actor invokes this instead of honoring a [`AdapterStep::Retry`]
    /// once the op has burned its retry deadline. Implementations must
    /// park any still-outstanding sends exactly as a reissue would, so
    /// their stragglers still reach [`ProtoAdapter::on_stale_reply`]
    /// and reclaim what they carry — an unparked abandon would leak the
    /// buffers of in-flight writes. Returns trailing reclamation sends;
    /// the adapter must be ready for `start` afterwards.
    fn abandon(&mut self) -> Vec<Outbound> {
        Vec::new()
    }
}

/// Messages exchanged between actors.
pub enum SimMsg {
    /// A request arriving at a server.
    Req {
        /// Replying destination (client actor).
        from: ActorId,
        /// Adapter routing tag.
        tag: u64,
        /// Send-attempt stamp, echoed back in the reply. Adapters may
        /// reuse tags across operations (and retries reissue them), so
        /// the reply-side dedup must match on the exact attempt, not
        /// just the tag.
        attempt: u64,
        /// The request.
        req: Request,
        /// Whether a reply is expected.
        respond: bool,
        /// The fault fabric flipped a bit of this request's frame in
        /// flight. The flip was applied to the encoded bytes and the
        /// decode verified to fail, so the receiving server NACKs (or
        /// discards fire-and-forget traffic) without executing — a
        /// damaged frame never reaches the execution engine.
        corrupt: bool,
        /// The routing epoch the client stamped into the frame (see
        /// [`Outbound::epoch`]).
        epoch: u64,
    },
    /// A reply arriving at a client.
    Reply {
        /// Adapter routing tag.
        tag: u64,
        /// The request's send-attempt stamp, echoed verbatim.
        attempt: u64,
        /// Index of the replying server in the experiment's server
        /// list, so the client can track incarnations per server.
        server: usize,
        /// The server's incarnation when the reply left. Clients fence
        /// replies stamped older than the newest incarnation they have
        /// seen from that server: after an amnesia restart, pre-crash
        /// stragglers describe memory that no longer exists.
        inc: u64,
        /// The reply.
        reply: Reply,
    },
    /// Client self-message: start the next closed-loop operation or
    /// resume after backoff.
    Kick {
        /// True when resuming from a backoff rather than starting anew.
        resume: bool,
        /// The client's restart epoch when this kick was scheduled. A
        /// kick that outlives a client crash carries the dead epoch and
        /// is discarded — the restarted client must not be double-driven
        /// by its predecessor's timers.
        epoch: u64,
    },
    /// Client self-message armed at send time under a `FaultPlan`:
    /// if the tagged request is still outstanding when this fires, the
    /// client synthesizes an error reply in its place.
    Timeout {
        /// The timed-out request's routing tag.
        tag: u64,
        /// Send-attempt stamp; a reissued tag gets a fresh stamp, so a
        /// stale timer for an earlier attempt is ignored.
        attempt: u64,
    },
    /// Client self-message armed at send time when the plan's tail
    /// policy hedges: if the tagged primary attempt is still
    /// outstanding when this fires, the client re-issues a
    /// byte-identical copy under a fresh attempt stamp. First reply
    /// home settles the op; the slower copy becomes a straggler the
    /// harvest hook reclaims.
    Hedge {
        /// The hedged request's routing tag.
        tag: u64,
        /// The *primary* attempt this timer was armed for; a reissued
        /// tag gets a fresh stamp, so a stale hedge timer is ignored.
        attempt: u64,
    },
    /// Self-message scheduled at the closing edge of a crash window.
    /// For a server it models the amnesia reboot (wipe, incarnation
    /// bump, application rejoin via [`RecoveryHooks::on_restart`]); for
    /// a client it models the process coming back empty: all in-flight
    /// operation state is forgotten and a fresh operation starts.
    Restart,
    /// Server self-message re-armed every [`RecoveryHooks::sweep`]
    /// interval: runs the cooperative-termination sweep that reclaims
    /// transaction state left dangling by crashed clients.
    Sweep,
    /// Server self-message carrying an index into the plan's
    /// [`prism_simnet::fault::RotEvent`] list: at-rest bit rot landing
    /// inside one of this server's crash windows (the plan validator
    /// enforces the coverage).
    Rot(usize),
    /// Server self-message carrying an index into the plan's
    /// [`prism_simnet::fault::DiskRotEvent`] list: at-rest bit rot on
    /// this server's durable segment log. Unlike memory rot it needs no
    /// crash window — disks decay while the host is up — and it only
    /// bites when the server later replays the damaged log.
    DiskRot(usize),
    /// One-shot control-plane event ([`RecoveryHooks::control`]),
    /// scheduled on server actor 0 and executed synchronously.
    Control,
    /// Open-loop aggregate self-message: one logical client's intended
    /// arrival instant (see [`crate::openloop`]). The aggregate starts
    /// the operation — or queues its intended time when every slot is
    /// in flight — and schedules the next arrival from its generator.
    Arrival,
    /// Open-loop aggregate self-message driving one multiplexed slot:
    /// resume the slot's adapter after a backoff/retry wait
    /// (`resume == true`), or finish its operation after trailing
    /// client compute and recycle the slot (`resume == false`).
    OlKick {
        /// Which multiplexed logical-client slot.
        slot: u32,
        /// Resume-from-backoff vs finish-and-recycle.
        resume: bool,
    },
}

/// Client-side fixed delay before a request reaches the server's rx
/// link: client overhead, two NIC traversals, wire, and half the
/// deployment surcharge.
pub fn pre_delay(m: &CostModel) -> SimDuration {
    m.client_overhead + m.nic_proc * 2 + m.wire_oneway + m.deployment.extra_rtt() / 2
}

/// Server-to-client fixed delay after tx serialization.
pub fn post_delay(m: &CostModel) -> SimDuration {
    m.nic_proc * 2 + m.wire_oneway + m.deployment.extra_rtt() / 2
}
