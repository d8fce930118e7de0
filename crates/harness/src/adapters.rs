//! Per-system adapters: each wraps a protocol client behind the
//! closed-loop [`ProtoAdapter`] interface.
//!
//! One [`Driver`] holds the whole reply-handling state machine for every
//! system — the attempt `seq`, the retry verdict, the incarnation and
//! epoch fences, straggler parking, harvest, `abandon` and hedge
//! eligibility — and never asks which system it drives: each difference
//! is a glue method or an associated const of a [`Family`] (the clients
//! of a [`KvProtocol`], [`RsFamily`] over [`RsProtocol`], [`TxFamily`]
//! over [`TxProtocol`]; DESIGN.md §18 tabulates them). Where operations
//! come from ([`OpSource`]), who hears how they end ([`OpObserver`]) and
//! whether frees are batched ([`Coalesced`]) are supplied from outside.
//! The figure adapters and the gates' history-recording ones
//! ([`crate::chaos`]) are aliases over the one driver, so a gate verdict
//! is a verdict on the code that draws the figures.

use std::collections::HashMap;

use prism_core::freelist::{free_batch_request, free_request, single_free};
use prism_core::msg::{Reply, Request};
use prism_core::Step;
use prism_kv::pilaf::PilafClient;
use prism_kv::prism_kv::PrismKvClient;
use prism_kv::{hash::key_bytes, KvOutcome, KvProtocol, KvStep};
use prism_rdma::hash::IntMap;
use prism_rs::abdlock::AbdLockClient;
use prism_rs::prism_rs::RsClient;
use prism_rs::{RsOutcome, RsProtocol, RsStep};
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_tx::farm::FarmClient;
use prism_tx::{TxClient, TxOutcome, TxProtocol, TxStep};
use prism_workload::{KeyDist, KvOp, TxnGen, TxnSpec, YcsbConfig, YcsbGen};

use crate::cluster::{MapHandle, ShardMap};
use crate::netsim::{AdapterStep, Outbound, ProtoAdapter};

fn tag(seq: u64, phase: u32, idx: u32) -> u64 {
    (seq << 32) | ((phase as u64) << 16) | idx as u64
}

fn untag(t: u64) -> (u64, u32, u32) {
    (t >> 32, ((t >> 16) & 0xFFFF) as u32, (t & 0xFFFF) as u32)
}

/// A protocol step's requests as sends: each request to `dest` goes to
/// server `base + dest`, the foreground ones tagged `tag(base + dest,
/// phase, index)` in shard-map epoch `epoch`, then the background ones
/// (tag 0, epoch 0), in the step's order.
fn outbound<O>(
    step: Step<O>,
    base: usize,
    epoch: u64,
    tag: impl Fn(usize, u32, u32) -> u64,
) -> Vec<Outbound> {
    let mut sends = Vec::with_capacity(step.send.len() + step.background.len());
    for (dest, phase, index, req) in step.send {
        sends.push(Outbound {
            tag: tag(base + dest, phase, index),
            epoch,
            ..Outbound::new(base + dest, 0, req, false)
        });
    }
    for (dest, req) in step.background {
        sends.push(Outbound::new(base + dest, 0, req, true));
    }
    sends
}

/// Transport-retry policy: a lost round trip (a synthesized timeout
/// reply, [`Reply::Verb`]`(Err(..))` from the fault layer; for RS, a
/// failed quorum) reissues the operation after a deterministic capped
/// exponential backoff, up to this many attempts, then gives it up.
const TRANSPORT_RETRY_BUDGET: u32 = 6;
const TRANSPORT_RETRY_BASE_NS: u64 = 8_000;
const TRANSPORT_RETRY_CAP_NS: u64 = 64_000;

/// One key-value or block operation: the key (or block) and, for a
/// write, the value. A driver owns it from `start` until the operation
/// ends, so every reissue and reroute of a write carries the same bytes.
pub type LogicalOp = (u64, Option<Vec<u8>>);

/// Where a driver's next logical operation comes from: a [`LogicalOp`]
/// for KV and RS, a [`TxnSpec`] for TX.
pub trait OpSource<Op = LogicalOp> {
    /// Draws the next operation. `rng` is the client actor's stream; a
    /// source with a stream of its own ignores it.
    fn draw(&mut self, rng: &mut SimRng) -> Op;
}

/// Who hears how a driver's operations end. Every method defaults to
/// nothing, and `()` is the observer that hears nothing.
pub trait OpObserver<Op = LogicalOp> {
    /// The virtual clock, just before the call that reports an event.
    fn note_time(&mut self, _now: SimTime) {}
    /// `op` was invoked. An operation still open at this point was cut
    /// short by a client crash.
    fn invoked(&mut self, _op: &Op) {}
    /// The open operation completed; `read` is what a read returned
    /// (empty for an absent key), `None` for a write.
    fn completed(&mut self, _read: Option<&[u8]>) {}
    /// The open operation ended without an answer — given up, shed, or
    /// failed by the protocol: a write among these may or may not have
    /// taken effect.
    fn unresolved(&mut self) {}
}

impl<Op> OpObserver<Op> for () {}

/// Client-side reclamation batching (§3.2: "batching can be employed at
/// both client and server sides to minimize overhead"): single-buffer
/// free notifications from the protocol machines are coalesced per
/// server and flushed as one RPC every [`FreeBatcher::CAP`] buffers.
struct FreeBatcher {
    pending: HashMap<usize, Vec<u64>>,
}

impl FreeBatcher {
    /// Buffers per flush.
    const CAP: usize = 16;

    fn new() -> Self {
        FreeBatcher {
            pending: HashMap::new(),
        }
    }

    /// Offers one background request bound for `server` and returns
    /// whether to send it now. A single free ([`single_free`]) is held
    /// back until its server has [`FreeBatcher::CAP`] of them, when `req`
    /// is rewritten into the batch; anything else passes untouched.
    fn absorb(&mut self, server: usize, req: &mut Request) -> bool {
        let Some(addr) = single_free(req) else {
            return true;
        };
        let pending = self.pending.entry(server).or_default();
        pending.push(addr);
        if pending.len() < Self::CAP {
            return false;
        }
        *req = free_batch_request(pending);
        pending.clear();
        true
    }
}

/// The spare buffers each server's pool needs beyond its live set when
/// `clients` closed-loop clients (or live open-loop slots) run through
/// [`Coalesced`]: the one provisioning rule of every harness run. A
/// client's batcher holds back up to 15 frees per server (one short of
/// a batch), and a window's end strands them, as it strands the buffers
/// of the operations it froze in flight. Two batches per client cover
/// both; sixteen clients' worth on top is slack. On a store kept across
/// runs, [`crate::cluster::System::reclaim`] takes the stranded buffers
/// back before the next.
pub fn batching_spares(clients: usize) -> u64 {
    let clients = clients as u64;
    32 * (clients + 16)
}

/// An adapter with its reclamation traffic coalesced: every background
/// send the inner adapter emits passes through a `FreeBatcher` in
/// order (foreground sends and their order are untouched, and a flush
/// takes the place of the free that filled the batch). Frees harvested
/// from stale replies stay unbatched: they are rare, and the pool-level
/// regressions want them on the wire at once.
pub struct Coalesced<A> {
    inner: A,
    frees: FreeBatcher,
}

impl<A> Coalesced<A> {
    fn wrap(inner: A) -> Self {
        Coalesced {
            inner,
            frees: FreeBatcher::new(),
        }
    }

    fn coalesce(&mut self, sends: &mut Vec<Outbound>) {
        sends.retain_mut(|o| !o.background || self.frees.absorb(o.server, &mut o.req));
    }
}

impl<A: ProtoAdapter> ProtoAdapter for Coalesced<A> {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        let mut sends = self.inner.start(rng);
        self.coalesce(&mut sends);
        sends
    }

    fn resume(&mut self) -> Vec<Outbound> {
        let mut sends = self.inner.resume();
        self.coalesce(&mut sends);
        sends
    }

    fn on_reply(&mut self, tag: u64, reply: Reply) -> AdapterStep {
        let mut step = self.inner.on_reply(tag, reply);
        let (AdapterStep::Wait(sends)
        | AdapterStep::Done { sends, .. }
        | AdapterStep::Backoff { sends, .. }
        | AdapterStep::Retry { sends, .. }
        | AdapterStep::GiveUp { sends }) = &mut step;
        self.coalesce(sends);
        step
    }

    fn note_time(&mut self, now: SimTime) {
        self.inner.note_time(now);
    }

    fn on_stale_reply(&mut self, tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        self.inner.on_stale_reply(tag, server, reply)
    }

    fn hedge_eligible(&self, tag: u64) -> bool {
        self.inner.hedge_eligible(tag)
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        let mut sends = self.inner.abandon();
        self.coalesce(&mut sends);
        sends
    }
}

/// The unbatched free a harvest emits, if it found an orphaned buffer.
fn harvested_free(server: usize, addr: Option<u64>) -> Vec<Outbound> {
    addr.map(|addr| Outbound::new(server, 0, free_request(addr), true))
        .into_iter()
        .collect()
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// What a finished machine's outcome means to the [`Driver`].
pub enum Verdict<Op> {
    /// The operation completed; `Some` holds what a read returned.
    Completed(Option<Vec<u8>>),
    /// The attempt failed: the retry budget decides (kept machine).
    Retry,
    /// The attempt aborted: back off, then begin the op handed back.
    Aborted(SimDuration, Op),
    /// The operation ended failed.
    Failed,
}

/// One family's client contract as the [`Driver`] runs it: a machine
/// starts for a logical operation at its home (a shard, a replica group)
/// and is fed, reissued and refenced there. `W` is the driver's
/// [`OpSource`], which a transaction draws its write values from.
pub trait Family<W> {
    /// A logical operation.
    type Op;
    /// One attempt in flight (a protocol machine).
    type Machine: Clone;
    /// How a machine ends.
    type Outcome;
    /// Whether a GET's legs may be hedged (sent twice, first reply wins).
    const HEDGE_GETS: bool;
    /// Client compute, in nanoseconds, each finished GET costs.
    const GET_COMPUTE_NS: u64 = 0;
    /// Whether a machine left while owed replies parks to absorb them.
    const PARKS: bool = false;
    /// Whether an epoch fence reissues the attempt's machine (a PUT keeps
    /// its tag) rather than starting a fresh one.
    const REROUTES_MACHINE: bool = false;
    /// `op`'s home under `map`; a family with one home needs no map.
    fn home(_map: &ShardMap, _op: &Self::Op) -> usize {
        0
    }
    /// Whether `op` is a read.
    fn is_get(_op: &Self::Op) -> bool {
        false
    }
    /// Attempt `seq`'s `step` at `home` as sends, under map `epoch`.
    fn sends(&self, step: Step<Self::Outcome>, seq: u64, home: usize, epoch: u64) -> Vec<Outbound>;
    /// Starts a machine for `op` at `home`.
    fn start(
        &mut self,
        home: usize,
        op: &mut Self::Op,
        source: &mut W,
    ) -> (Self::Machine, Step<Self::Outcome>);
    /// Re-arms `machine` at `home` for another attempt.
    fn reissue(&mut self, home: usize, machine: &mut Self::Machine) -> Step<Self::Outcome>;
    /// Feeds `machine`, at `home`, the reply tagged `(phase, index)`.
    fn feed(
        &mut self,
        home: usize,
        machine: &mut Self::Machine,
        at: (u32, u32),
        reply: Reply,
    ) -> Step<Self::Outcome>;
    /// Whether `reply` is a lost round trip to retry, not feed.
    fn lost(_reply: &Reply) -> bool {
        false
    }
    /// Adopts the new incarnation of the server that answered `index`.
    fn refence(&mut self, _home: usize, _index: u32, _inc: u64) {}
    /// The buffer a reply that reached no machine orphaned.
    fn harvest(_reply: Reply) -> Option<u64> {
        None
    }
    /// What `outcome` means to attempt number `attempt` (from 1).
    fn verdict(
        &mut self,
        outcome: Self::Outcome,
        machine: &mut Self::Machine,
        attempt: u32,
    ) -> Verdict<Self::Op>;
}

/// The closed-loop client of every system: draws a logical operation,
/// starts a machine for it at its home, feeds it replies and does what
/// its [`Family`] says each outcome means. Each attempt runs under a
/// fresh `seq`.
pub struct Driver<F: Family<W>, W, O> {
    family: F,
    /// The routing map, and the cell a stale-epoch fence refetches.
    map: ShardMap,
    handle: MapHandle,
    home: usize,
    source: W,
    observer: O,
    seq: u64,
    current: Option<F::Machine>,
    /// Parked machines by seq: the replies each is owed, and its home.
    lingering: IntMap<u64, (F::Machine, usize, usize)>,
    outstanding: usize,
    /// The open op: a retry or reroute restarts it with the same value.
    op: Option<F::Op>,
    retries: u32,
}

impl<F: Family<W>, W: OpSource<F::Op>, O: OpObserver<F::Op>> Driver<F, W, O> {
    fn over(family: F, handle: MapHandle, source: W, observer: O) -> Self {
        Driver {
            family,
            map: handle.snapshot(),
            handle,
            home: 0,
            source,
            observer,
            seq: 0,
            current: None,
            lingering: IntMap::default(),
            outstanding: 0,
            op: None,
            retries: 0,
        }
    }

    /// Creates a driver over one client per home, in home order. `route`
    /// is a fixed [`ShardMap`], or the cluster's [`MapHandle`] when the
    /// map can change under the run; `clients` then cover every home it
    /// can grow into.
    ///
    /// # Panics
    ///
    /// Panics if the map routes to more homes than there are clients,
    /// or (RS) the groups disagree on replica count.
    pub fn routed<C>(clients: Vec<C>, route: impl Into<MapHandle>, source: W, observer: O) -> Self
    where
        F: From<Vec<C>>,
    {
        let route = route.into();
        assert!(
            clients.len() >= route.snapshot().shards(),
            "one client per home the map can route to, in home order"
        );
        Self::over(clients.into(), route, source, observer)
    }

    /// Whether tag `t` names the attempt in flight. Tag 0 names none: a
    /// family's one request in flight, which the transport matches.
    fn live(&self, t: u64) -> bool {
        t == 0 || untag(t).0 == self.seq
    }

    fn absorb(&mut self, mut step: Step<F::Outcome>) -> (Vec<Outbound>, Option<F::Outcome>) {
        self.outstanding += step.send.len();
        let done = step.done.take();
        let sends = self
            .family
            .sends(step, self.seq, self.home, self.map.epoch());
        (sends, done)
    }

    /// Runs the open op's next attempt at its home, routed afresh: on a
    /// fresh machine, or on `machine` re-armed (a PUT that chose its tag
    /// keeps it, [`RsProtocol::reissue`]), parking the attempt it leaves.
    fn attempt(&mut self, machine: Option<F::Machine>) -> Vec<Outbound> {
        if let Some(machine) = machine.as_ref().filter(|_| self.owed()) {
            self.park(machine.clone());
        }
        self.seq += 1;
        self.outstanding = 0;
        let op = self.op.as_mut().expect("an operation is open");
        self.home = F::home(&self.map, op);
        let (machine, step) = match machine {
            Some(mut machine) => {
                let step = self.family.reissue(self.home, &mut machine);
                (machine, step)
            }
            None => self.family.start(self.home, op, &mut self.source),
        };
        self.current = Some(machine);
        self.absorb(step).0
    }

    /// Whether the machine being left is owed replies and parks for them.
    fn owed(&self) -> bool {
        F::PARKS && self.outstanding > 0
    }

    fn park(&mut self, machine: F::Machine) {
        if self.owed() {
            let parked = (machine, self.outstanding, self.home);
            self.lingering.insert(self.seq, parked);
        }
    }

    /// The retry verdict on a failed attempt: another, on `machine` (if
    /// any), after a backoff; or, the budget spent, the op given up.
    fn retry(&mut self, machine: Option<F::Machine>, sends: Vec<Outbound>) -> AdapterStep {
        if self.retries < TRANSPORT_RETRY_BUDGET {
            self.retries += 1;
            self.current = machine;
            let wait = TRANSPORT_RETRY_BASE_NS << (self.retries - 1).min(6);
            let wait = SimDuration::from_nanos(wait.min(TRANSPORT_RETRY_CAP_NS));
            return AdapterStep::Retry { sends, wait };
        }
        if let Some(machine) = machine {
            self.park(machine);
        }
        self.op = None;
        self.observer.unresolved();
        AdapterStep::GiveUp { sends }
    }

    /// A reply to no attempt in flight: fed to its parked machine, if any,
    /// for its reclamation only.
    fn straggler(&mut self, seq: u64, at: (u32, u32), reply: Reply) -> Vec<Outbound> {
        let Some((machine, owed, home)) = self.lingering.get_mut(&seq) else {
            return Vec::new();
        };
        let (home, mut step) = (*home, self.family.feed(*home, machine, at, reply));
        step.send.clear();
        *owed -= 1;
        if *owed == 0 {
            self.lingering.remove(&seq);
        }
        self.family.sends(step, seq, home, 0)
    }
}

impl<F: Family<W>, W: OpSource<F::Op>, O: OpObserver<F::Op>> ProtoAdapter for Driver<F, W, O> {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        let op = self.source.draw(rng);
        self.observer.invoked(&op);
        self.op = Some(op);
        self.retries = 0;
        self.attempt(None)
    }

    fn resume(&mut self) -> Vec<Outbound> {
        let machine = self.current.take();
        self.attempt(machine)
    }

    fn note_time(&mut self, now: SimTime) {
        self.observer.note_time(now);
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, index) = untag(t);
        if let Some(inc) = reply.stale_incarnation() {
            // An amnesia-restarted server fenced our pre-crash rkeys:
            // restamp them (the rejoin replay is server-side).
            self.family.refence(self.home, index, inc);
        }
        let live = self.live(t);
        let Some(mut machine) = self.current.take_if(|_| live) else {
            return AdapterStep::Wait(self.straggler(seq, (phase, index), reply));
        };
        self.outstanding -= 1;
        if let Some(epoch) = reply.stale_epoch() {
            // Never executed: go again at the op's new home, or back off
            // if the fence is ahead of any map we can fetch.
            self.handle.refresh(&mut self.map);
            let machine = F::REROUTES_MACHINE.then_some(machine);
            if self.map.epoch() >= epoch {
                return AdapterStep::Wait(self.attempt(machine));
            }
            return self.retry(machine, Vec::new());
        }
        if F::lost(&reply) {
            return self.retry(Some(machine), Vec::new());
        }
        let step = self
            .family
            .feed(self.home, &mut machine, (phase, index), reply);
        let backoff = step.backoff_ns.map(SimDuration::from_nanos);
        let (sends, done) = self.absorb(step);
        let Some(outcome) = done else {
            // A lock backoff keeps the machine and spends no retry budget.
            self.current = Some(machine);
            return match backoff {
                Some(wait) => AdapterStep::Backoff { sends, wait },
                None => AdapterStep::Wait(sends),
            };
        };
        let get = self.op.as_ref().is_some_and(F::is_get);
        let compute_ns = if get { F::GET_COMPUTE_NS } else { 0 };
        let failed = match self.family.verdict(outcome, &mut machine, self.retries + 1) {
            Verdict::Retry => return self.retry(Some(machine), sends),
            Verdict::Aborted(wait, op) => {
                self.retries += 1;
                self.op = Some(op);
                return AdapterStep::Backoff { sends, wait };
            }
            Verdict::Completed(read) => {
                self.observer.completed(read.as_deref());
                false
            }
            Verdict::Failed => {
                self.observer.unresolved();
                true
            }
        };
        self.park(machine);
        let client_compute = SimDuration::from_nanos(compute_ns);
        AdapterStep::Done {
            sends,
            client_compute,
            failed,
        }
    }

    fn on_stale_reply(&mut self, _tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        harvested_free(server, F::harvest(reply))
    }

    fn hedge_eligible(&self, t: u64) -> bool {
        // A PUT's copy would double-publish; a straggler has moved on.
        let get = self.op.as_ref().is_some_and(F::is_get);
        F::HEDGE_GETS && self.live(t) && self.current.is_some() && get
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // Deadline shed: park as a reissue would. A shed PUT may have run.
        if let Some(machine) = self.current.take() {
            self.park(machine);
        }
        self.outstanding = 0;
        self.op = None;
        self.retries = 0;
        self.observer.unresolved();
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// PRISM-KV and Pilaf (Figures 3-4)
// ---------------------------------------------------------------------

/// [`KvProtocol`] as a [`Family`]: the clients, one per shard. Tag 0
/// (one request in flight) under the map epoch; a lost round trip or a
/// stale incarnation retried on the kept machine; an epoch fence starts a
/// fresh one; nothing parks (harvesting a raced reply is stateless); GETs
/// hedge and add the protocol's client compute.
impl<P: KvProtocol, W> Family<W> for Vec<P> {
    type Op = LogicalOp;
    type Machine = P::Op;
    type Outcome = KvOutcome;
    const HEDGE_GETS: bool = true;
    const GET_COMPUTE_NS: u64 = P::GET_COMPUTE_NS;
    fn home(map: &ShardMap, (key, _): &LogicalOp) -> usize {
        map.shard_of(&key_bytes(*key))
    }
    fn is_get((_, value): &LogicalOp) -> bool {
        value.is_none()
    }
    fn sends(&self, step: Step<KvOutcome>, _: u64, shard: usize, epoch: u64) -> Vec<Outbound> {
        outbound(step, shard, epoch, |_, _, _| 0)
    }
    fn start(&mut self, shard: usize, op: &mut LogicalOp, _: &mut W) -> (P::Op, Step<KvOutcome>) {
        let (machine, req) = self[shard].start(&key_bytes(op.0), op.1.as_deref());
        (machine, KvStep::send(req).into())
    }
    fn reissue(&mut self, shard: usize, machine: &mut P::Op) -> Step<KvOutcome> {
        KvStep::send(self[shard].reissue(machine)).into()
    }
    fn feed(&mut self, shard: usize, m: &mut P::Op, _: (u32, u32), r: Reply) -> Step<KvOutcome> {
        self[shard].on_reply(m, r).into()
    }
    fn lost(reply: &Reply) -> bool {
        // A fenced request never executed; a synthesized timeout (or a
        // Pilaf READ the server refused) may have: the machine decides.
        reply.stale_incarnation().is_some() || matches!(reply, Reply::Verb(Err(_)))
    }
    fn refence(&mut self, shard: usize, _: u32, inc: u64) {
        self[shard].refence(inc);
    }
    fn harvest(reply: Reply) -> Option<u64> {
        P::harvest(reply)
    }
    fn verdict(&mut self, outcome: KvOutcome, _: &mut P::Op, _: u32) -> Verdict<LogicalOp> {
        match outcome {
            KvOutcome::Value(v) => Verdict::Completed(Some(v.unwrap_or_default())),
            KvOutcome::Written => Verdict::Completed(None),
            // Pool exhausted, budget spent: a failed PUT may have landed.
            KvOutcome::Failed(_) => Verdict::Failed,
        }
    }
}

impl OpSource for YcsbGen {
    /// The generator's own stream: the operation, then (for a PUT) the
    /// value's nonce.
    fn draw(&mut self, _rng: &mut SimRng) -> LogicalOp {
        match self.next_op() {
            KvOp::Get(k) => (k, None),
            KvOp::Put(k) => (k, Some(self.value_for(k))),
        }
    }
}

/// Closed-loop YCSB client over PRISM-KV (Figures 3–4), reclamation
/// coalesced per shard.
pub type PrismKvAdapter = Coalesced<Driver<Vec<PrismKvClient>, YcsbGen, ()>>;

impl PrismKvAdapter {
    /// Creates the single-server adapter.
    pub fn new(client: PrismKvClient, config: YcsbConfig, rng: SimRng) -> Self {
        Self::sharded(vec![client], ShardMap::single(), config, rng)
    }

    /// Creates a routed adapter over one client per shard; `route` is a
    /// fixed map or a live handle (see [`Driver::routed`]).
    pub fn sharded(
        clients: Vec<PrismKvClient>,
        route: impl Into<MapHandle>,
        config: YcsbConfig,
        rng: SimRng,
    ) -> Self {
        let gen = YcsbGen::new(config, rng);
        Coalesced::wrap(Driver::routed(clients, route, gen, ()))
    }
}

/// Closed-loop YCSB client over Pilaf (the Figures 3–4 baseline): the
/// same driver and workload as [`PrismKvAdapter`]; Pilaf sends no frees,
/// so nothing is coalesced.
pub type PilafAdapter = Driver<Vec<PilafClient>, YcsbGen, ()>;

impl PilafAdapter {
    /// Creates the adapter.
    pub fn new(client: PilafClient, config: YcsbConfig, rng: SimRng) -> Self {
        let gen = YcsbGen::new(config, rng);
        Driver::routed(vec![client], ShardMap::single(), gen, ())
    }
}

// ---------------------------------------------------------------------
// PRISM-RS and ABDLOCK (Figures 6-7)
// ---------------------------------------------------------------------

/// [`RsProtocol`] as a [`Family`], one client per replica group. Flat
/// server indices are group-major (`group * replicas + replica`, the
/// [`crate::cluster::RsShards`] layout) and tags `seq | phase | flat
/// index` under the map epoch, so a straggler still finds its group after
/// the client has moved on. A lost round trip is a failed leg, a failed
/// quorum goes to the retry verdict, a stale incarnation is refenced and
/// still fed, an epoch fence reissues the same machine, machines still
/// owed replies park, and GETs hedge where [`RsProtocol::HEDGE_GETS`]
/// allows.
pub struct RsFamily<P> {
    clients: Vec<P>,
    replicas: usize,
}

impl<P: RsProtocol> From<Vec<P>> for RsFamily<P> {
    fn from(clients: Vec<P>) -> Self {
        let replicas = clients[0].n();
        assert!(
            clients.iter().all(|c| c.n() == replicas),
            "uniform replica count across groups"
        );
        RsFamily { clients, replicas }
    }
}

impl<P: RsProtocol, W> Family<W> for RsFamily<P> {
    type Op = LogicalOp;
    type Machine = P::Op;
    type Outcome = RsOutcome;
    const HEDGE_GETS: bool = P::HEDGE_GETS;
    const PARKS: bool = true;
    const REROUTES_MACHINE: bool = true;
    fn home(map: &ShardMap, (block, _): &LogicalOp) -> usize {
        map.shard_of_id(*block)
    }
    fn is_get((_, value): &LogicalOp) -> bool {
        value.is_none()
    }
    fn sends(&self, step: RsStep, seq: u64, group: usize, epoch: u64) -> Vec<Outbound> {
        let tag = |server: usize, phase, _| tag(seq, phase, server as u32);
        outbound(step, group * self.replicas, epoch, tag)
    }
    fn start(&mut self, group: usize, op: &mut LogicalOp, _: &mut W) -> (P::Op, RsStep) {
        match &op.1 {
            Some(value) => self.clients[group].put(op.0, value.clone()),
            None => self.clients[group].get(op.0),
        }
    }
    fn reissue(&mut self, group: usize, machine: &mut P::Op) -> RsStep {
        self.clients[group].reissue(machine)
    }
    fn feed(&mut self, group: usize, machine: &mut P::Op, at: (u32, u32), reply: Reply) -> RsStep {
        let replica = at.1 as usize % self.replicas;
        self.clients[group].on_reply(machine, at.0, replica, reply)
    }
    fn refence(&mut self, _: usize, server: u32, inc: u64) {
        let server = server as usize;
        self.clients[server / self.replicas].refence(server % self.replicas, inc);
    }
    fn harvest(reply: Reply) -> Option<u64> {
        P::harvest(reply)
    }
    fn verdict(&mut self, outcome: RsOutcome, _: &mut P::Op, _: u32) -> Verdict<LogicalOp> {
        match outcome {
            RsOutcome::Value(v) => Verdict::Completed(Some(v)),
            RsOutcome::Written => Verdict::Completed(None),
            RsOutcome::Failed(_) => Verdict::Retry,
        }
    }
}

/// The PRISM-RS and ABDLOCK figure workload (§7.4), over `(dist,
/// block_size, write_fraction)`: a block from `dist`, a write with
/// probability `write_fraction`, its value stamped with a fresh 64-bit
/// nonce — three draws on the client actor's stream.
pub struct BlockMix(KeyDist, usize, f64);

impl OpSource for BlockMix {
    fn draw(&mut self, rng: &mut SimRng) -> LogicalOp {
        let BlockMix(dist, block_size, write_fraction) = self;
        let block = dist.sample(rng);
        let value = rng.gen_bool(*write_fraction).then(|| {
            let mut value = vec![0u8; *block_size];
            value[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            value
        });
        (block, value)
    }
}

/// Closed-loop block-store client over PRISM-RS (Figures 6–7): 50 %
/// reads / 50 % writes in the paper's runs, reclamation coalesced per
/// replica.
pub type PrismRsAdapter = Coalesced<Driver<RsFamily<RsClient>, BlockMix, ()>>;

impl PrismRsAdapter {
    /// Creates the single-group adapter.
    pub fn new(client: RsClient, dist: KeyDist, block_size: usize, write_fraction: f64) -> Self {
        let single = ShardMap::single();
        Self::sharded(vec![client], single, dist, block_size, write_fraction)
    }

    /// Creates a routed adapter over one client per replica group;
    /// `route` is a fixed map or a live handle (see [`Driver::routed`]).
    pub fn sharded(
        clients: Vec<RsClient>,
        route: impl Into<MapHandle>,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        let mix = BlockMix(dist, block_size, write_fraction);
        Coalesced::wrap(Driver::routed(clients, route, mix, ()))
    }
}

/// Closed-loop block-store client over the lock-based ABD baseline
/// (Figures 6–7): the same driver and workload as [`PrismRsAdapter`];
/// ABDLOCK sends no frees, so nothing is coalesced.
pub type AbdLockAdapter = Driver<RsFamily<AbdLockClient>, BlockMix, ()>;

impl AbdLockAdapter {
    /// Creates the single-group adapter.
    pub fn new(
        client: AbdLockClient,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        let mix = BlockMix(dist, block_size, write_fraction);
        Driver::routed(vec![client], ShardMap::single(), mix, ())
    }
}

// ---------------------------------------------------------------------
// PRISM-TX and FaRM (Figures 9-10)
// ---------------------------------------------------------------------

/// Abort backoff: base wait, doubled per consecutive abort (capped).
/// Without pacing, a contended key's losing transactions flood the
/// dispatch cores with futile validation chains — unlike FaRM, whose
/// waiting clients poll locked objects through the NIC for free. Backoff
/// is the standard OCC client policy and is applied to both systems.
const TX_BACKOFF_BASE_NS: u64 = 4_000;
const TX_BACKOFF_CAP_NS: u64 = 32_000;

fn tx_backoff(consecutive_aborts: u32, rng: &mut SimRng) -> SimDuration {
    // Immediate retries livelock at high skew (synchronized stampedes
    // re-collide with the in-flight winner's prepared-write window), so
    // even the first abort waits ~one round trip. The cap stays small:
    // an idle hot key wastes its serialization slot.
    let exp = consecutive_aborts.saturating_sub(1).min(7);
    let base = (TX_BACKOFF_BASE_NS << exp).min(TX_BACKOFF_CAP_NS);
    SimDuration::from_nanos(base + rng.gen_range(base))
}

/// [`TxProtocol`] as a [`Family`]: each operation a YCSB-T
/// read-modify-write transaction retried until it commits or fails
/// (§8.3). Its one client addresses every shard itself (one home); tags
/// are `seq | phase | request index` under epoch 0. A reply to an older
/// `seq` is dropped (a finished attempt of either protocol answers it
/// with nothing), a lost round trip is the protocol's to abort or fail,
/// and an abort backs off with per-client jitter.
///
/// Each attempt draws its write values from the [`TxnGen`] when it
/// begins and holds them until its step pauses for them
/// ([`TxStep::awaiting_writes`]); it supplies them within the same
/// `begin` or `on_reply` call, so the pause adds no send and no event.
pub struct TxFamily<P> {
    client: P,
    writes: Vec<(u64, Vec<u8>)>,
    /// The abort backoff's jitter.
    rng: SimRng,
}

impl<P: TxProtocol> TxFamily<P> {
    /// The step that follows `step`: if it paused the attempt for its
    /// writes, the one that hands them over.
    fn supply_if_paused(&mut self, machine: &mut P::Op, step: TxStep) -> TxStep {
        if !step.awaiting_writes {
            return step;
        }
        let writes = std::mem::take(&mut self.writes);
        self.client.supply_writes(machine, writes)
    }
}

impl<P: TxProtocol> Family<TxnGen> for TxFamily<P> {
    type Op = TxnSpec;
    type Machine = P::Op;
    type Outcome = TxOutcome;
    const HEDGE_GETS: bool = false;
    fn sends(&self, step: TxStep, seq: u64, _: usize, _: u64) -> Vec<Outbound> {
        outbound(step, 0, 0, |_, phase, index| tag(seq, phase, index))
    }
    /// Begins an attempt over the op's keys; the attempt owns them while
    /// it runs and an abort hands them back.
    fn start(&mut self, _: usize, op: &mut TxnSpec, gen: &mut TxnGen) -> (P::Op, TxStep) {
        let keys = std::mem::take(&mut op.keys);
        self.writes = keys.iter().map(|&k| (k, gen.value_for(k))).collect();
        let (mut machine, step) = self.client.begin(keys);
        let step = self.supply_if_paused(&mut machine, step);
        (machine, step)
    }
    fn reissue(&mut self, _: usize, _: &mut P::Op) -> TxStep {
        unreachable!("an ended transaction attempt is never re-armed: an abort begins afresh")
    }
    fn feed(&mut self, _: usize, machine: &mut P::Op, at: (u32, u32), reply: Reply) -> TxStep {
        let step = self.client.on_reply(machine, at.0, at.1, reply);
        self.supply_if_paused(machine, step)
    }
    fn verdict(&mut self, outcome: TxOutcome, m: &mut P::Op, attempt: u32) -> Verdict<TxnSpec> {
        match outcome {
            TxOutcome::Committed(_) => Verdict::Completed(None),
            TxOutcome::Aborted => {
                let keys = P::take_read_keys(m);
                Verdict::Aborted(tx_backoff(attempt, &mut self.rng), TxnSpec { keys })
            }
            TxOutcome::Failed(_) => Verdict::Failed,
        }
    }
}

impl OpSource<TxnSpec> for TxnGen {
    /// The generator's own stream, which also draws each attempt's write
    /// values.
    fn draw(&mut self, _rng: &mut SimRng) -> TxnSpec {
        self.next_txn()
    }
}

impl<P: TxProtocol> Driver<TxFamily<P>, TxnGen, ()> {
    /// A driver whose abort backoff draws its jitter from `backoff_seed`.
    fn with_backoff_seed(client: P, gen: TxnGen, backoff_seed: u64) -> Self {
        let (writes, rng) = (Vec::new(), SimRng::new(backoff_seed));
        let family = TxFamily {
            client,
            writes,
            rng,
        };
        Driver::over(family, ShardMap::single().into(), gen, ())
    }
}

/// Closed-loop YCSB-T client over PRISM-TX (Figures 9–10), its buffer
/// frees and abort `C`-bumps coalesced.
pub type PrismTxAdapter = Coalesced<Driver<TxFamily<TxClient>, TxnGen, ()>>;

impl PrismTxAdapter {
    /// Creates the adapter; its backoff jitter is seeded by client id.
    pub fn new(client: TxClient, gen: TxnGen) -> Self {
        let seed = (client.cid() as u64) << 17 | 0x5A5A;
        Coalesced::wrap(Driver::with_backoff_seed(client, gen, seed))
    }
}

/// Closed-loop YCSB-T client over the FaRM baseline (Figures 9–10). FaRM
/// sends no frees, so nothing is coalesced.
pub type FarmAdapter = Driver<TxFamily<FarmClient>, TxnGen, ()>;

impl FarmAdapter {
    /// Creates the adapter. Every FaRM client draws its backoff jitter
    /// from the same seed.
    pub fn new(client: FarmClient, gen: TxnGen) -> Self {
        Self::with_backoff_seed(client, gen, 0xFA12)
    }
}

#[cfg(test)]
mod tests {
    //! Scripted replies over real stores, no `Simulation`: each test
    //! plays the server actor by hand ([`serve`]: the epoch fence, then
    //! `execute_local`) and checks the steps a driver answers with and
    //! the records a [`Recorder`] is left holding.

    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    use prism_core::msg::execute_local;
    use prism_core::{DataArg, PrismOp, PrismServer};
    use prism_kv::entry;
    use prism_kv::pilaf::{PilafConfig, PilafServer};
    use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
    use prism_rdma::RdmaError;
    use prism_rs::abdlock::{AbdLockCluster, AbdLockConfig};
    use prism_rs::prism_rs::RsConfig;
    use prism_tx::farm::{FarmCluster, FarmConfig};
    use prism_tx::prism_tx::{TxCluster, TxConfig};

    use super::*;
    use crate::chaos::{stamp, HistKind, HistOp, History, Recorder};
    use crate::cluster::{KvCluster, RsShards, ShardedStore, System};
    use crate::netsim::transport::timeout_reply;

    const KEYS: u64 = 8;
    const VALUE: usize = 64;
    const MAP_SEED: u64 = 0x5EED;
    /// The backoff before each of the six retries the budget allows.
    const BACKOFFS_US: [u64; 6] = [8, 16, 32, 64, 64, 64];

    /// An [`OpSource`] that plays a fixed list.
    struct Script(VecDeque<LogicalOp>);

    impl OpSource for Script {
        fn draw(&mut self, _rng: &mut SimRng) -> LogicalOp {
            self.0.pop_front().expect("the script ran out")
        }
    }

    /// A value carrying `nonce` where the recorder reads it.
    fn value(nonce: u64) -> Vec<u8> {
        stamp(VALUE, nonce)
    }

    /// What a server actor does with `out`: the epoch fence, then the
    /// execution.
    fn serve(servers: &[Arc<PrismServer>], out: &Outbound) -> Reply {
        let server = &servers[out.server];
        let current = server.current_epoch();
        if out.epoch != 0 && out.epoch < current {
            return Reply::Verb(Err(RdmaError::StaleEpoch {
                seen: out.epoch,
                current,
            }));
        }
        execute_local(server, &out.req)
    }

    /// A fence from an epoch no map the driver can fetch has reached.
    fn epoch_from_the_future() -> Reply {
        Reply::Verb(Err(RdmaError::StaleEpoch {
            seen: 1,
            current: 9,
        }))
    }

    fn is_single_free(out: &Outbound) -> bool {
        out.background && single_free(&out.req).is_some()
    }

    fn assert_retry(what: &str, step: &AdapterStep, backoff_us: u64) {
        match step {
            AdapterStep::Retry { sends, wait } => {
                assert!(sends.is_empty(), "{what}");
                assert_eq!(*wait, SimDuration::micros(backoff_us), "{what}");
            }
            other => panic!("{what}: expected a retry, got {other:?}"),
        }
    }

    fn wait_sends(what: &str, step: AdapterStep) -> Vec<Outbound> {
        match step {
            AdapterStep::Wait(sends) => sends,
            other => panic!("{what}: expected a wait, got {other:?}"),
        }
    }

    fn at(nanos: u64) -> Option<SimTime> {
        Some(SimTime::from_nanos(nanos))
    }

    // -----------------------------------------------------------------
    // PRISM-KV
    // -----------------------------------------------------------------

    /// Four provisioned shards, two active, and one recorded driver
    /// playing `script`. Every call into the driver is preceded by a
    /// `note_time` one microsecond later than the last.
    struct Kv {
        cluster: KvCluster,
        servers: Vec<Arc<PrismServer>>,
        driver: Driver<Vec<PrismKvClient>, Script, Recorder>,
        history: History,
        clock: u64,
    }

    fn kv_cluster() -> KvCluster {
        KvCluster::with_active(4, 2, &PrismKvConfig::paper(KEYS, VALUE), MAP_SEED)
    }

    /// A key a 2→4 grow moves, with its old and new homes.
    fn kv_moved_key(cluster: &KvCluster) -> (u64, usize, usize) {
        let (old, new) = (cluster.map(), cluster.map().grow(4));
        (0..KEYS)
            .map(|k| (k, old.shard_of(&key_bytes(k)), new.shard_of(&key_bytes(k))))
            .find(|(_, from, to)| from != to)
            .expect("the grow moves a key")
    }

    impl Kv {
        fn new(cluster: KvCluster, route: MapHandle, script: Vec<LogicalOp>) -> Self {
            let history: History = Arc::new(Mutex::new(Vec::new()));
            let driver = Driver::routed(
                cluster.open_clients(),
                route,
                Script(script.into()),
                Recorder::new(0, Arc::clone(&history)),
            );
            Kv {
                servers: cluster.servers(),
                cluster,
                driver,
                history,
                clock: 0,
            }
        }

        fn fixed(script: Vec<LogicalOp>) -> Self {
            let cluster = kv_cluster();
            let route = cluster.map().into();
            Kv::new(cluster, route, script)
        }

        fn tick(&mut self) {
            self.clock += 1_000;
            self.driver.note_time(SimTime::from_nanos(self.clock));
        }

        fn start(&mut self) -> Vec<Outbound> {
            self.tick();
            self.driver.start(&mut SimRng::new(1))
        }

        fn resume(&mut self) -> Vec<Outbound> {
            self.tick();
            self.driver.resume()
        }

        fn reply(&mut self, reply: Reply) -> AdapterStep {
            self.tick();
            self.driver.on_reply(0, reply)
        }

        /// Serves `sends` (one foreground request, any frees) and feeds
        /// the reply.
        fn round_trip(&mut self, sends: &[Outbound]) -> AdapterStep {
            let mut reply = None;
            for out in sends {
                let r = serve(&self.servers, out);
                if !out.background {
                    assert!(reply.replace(r).is_none(), "one request in flight");
                }
            }
            self.reply(reply.expect("a foreground request"))
        }

        /// Round trips until the driver stops waiting.
        fn finish(&mut self, mut sends: Vec<Outbound>) -> AdapterStep {
            loop {
                match self.round_trip(&sends) {
                    AdapterStep::Wait(next) => sends = next,
                    step => return step,
                }
            }
        }

        fn records(&self) -> Vec<HistOp> {
            self.history.lock().expect("history lock").clone()
        }
    }

    fn assert_done(what: &str, step: &AdapterStep, want_failed: bool) {
        match step {
            AdapterStep::Done { failed, .. } => assert_eq!(*failed, want_failed, "{what}"),
            other => panic!("{what}: expected completion, got {other:?}"),
        }
    }

    /// The value inside the entry an install chain allocates.
    fn allocated_value(req: &Request) -> Vec<u8> {
        let Request::Chain(chain) = req else {
            panic!("an install is a chain: {req:?}");
        };
        let entry = chain
            .iter()
            .find_map(|op| match op {
                PrismOp::Allocate { data, .. } => Some(data),
                _ => None,
            })
            .expect("an install chain allocates its entry");
        let (_, value, _) = entry::decode_verified(entry).expect("a well-formed entry");
        value.to_vec()
    }

    /// One logical PUT installs one value, however often the driver has
    /// to start it over: the value is drawn once, at `start`, not in
    /// `issue`, which an epoch fence re-enters. (A restart is a fresh
    /// machine, so the entry's version differs by design; the value
    /// inside the allocated entry is what is compared.) Drawing at
    /// `start` moves no pinned run: `issue` is re-entered only on the
    /// epoch-fence paths, which no simulated run of `PrismKvAdapter`
    /// reaches today (fixed-map clusters never bump a server epoch), and
    /// `next_op` → `value_for` keep their order on the generator's own
    /// stream.
    #[test]
    fn kv_put_keeps_its_value_across_an_epoch_fence() {
        let store = PrismKvServer::new(&PrismKvConfig::paper(KEYS, VALUE));
        let all_puts = YcsbConfig {
            dist: KeyDist::uniform(KEYS),
            read_fraction: 0.0,
            value_len: VALUE,
        };
        let mut adapter = PrismKvAdapter::new(store.open_client(), all_puts, SimRng::new(7));
        // Answers the probe and returns the value the install carries.
        let install = |adapter: &mut PrismKvAdapter, probe: Vec<Outbound>| {
            let reply = execute_local(store.server(), &probe[0].req);
            let sends = wait_sends("probe answered", adapter.on_reply(0, reply));
            allocated_value(&sends[0].req)
        };
        let probe = adapter.start(&mut SimRng::new(1));
        let first = install(&mut adapter, probe);
        // A fence naming the epoch the map is already at: reroute now.
        let fence = Reply::Verb(Err(RdmaError::StaleEpoch {
            seen: 0,
            current: ShardMap::single().epoch(),
        }));
        let probe = wait_sends("fenced install", adapter.on_reply(0, fence));
        let second = install(&mut adapter, probe);
        assert_eq!(first, second, "the restarted PUT carries another value");
    }

    /// A Pilaf PUT whose reply is lost resends, on `resume`, the RPC it
    /// was invoked with, byte for byte: its value is drawn once, at
    /// `start`, like every driver's.
    #[test]
    fn pilaf_put_resends_its_invoked_bytes_after_a_lost_reply() {
        let store = PilafServer::new(&PilafConfig::paper(KEYS, VALUE));
        let all_puts = YcsbConfig {
            dist: KeyDist::uniform(KEYS),
            read_fraction: 0.0,
            value_len: VALUE,
        };
        let mut adapter = PilafAdapter::new(store.open_client(), all_puts, SimRng::new(7));
        let sent = adapter.start(&mut SimRng::new(1));
        // The server runs the PUT; its reply is lost.
        execute_local(store.server(), &sent[0].req);
        assert_retry("PUT reply lost", &adapter.on_reply(0, timeout_reply()), 8);
        let resent = adapter.resume();
        assert_eq!(requests(&resent), requests(&sent), "the resent PUT");
        let reply = execute_local(store.server(), &resent[0].req);
        assert_done("resent PUT", &adapter.on_reply(0, reply), false);
    }

    /// The server `out` is bound for loses its memory and restarts, so
    /// it fences the request: the rkeys are from its last incarnation.
    fn restarted_under(kv: &mut Kv, out: &Outbound) -> Reply {
        kv.cluster.amnesia_restart(out.server);
        let reply = serve(&kv.servers, out);
        assert!(reply.stale_incarnation().is_some(), "{reply:?}");
        reply
    }

    /// Branches: the three lost-round-trip arms of KV's `Driver::on_reply`
    /// and the give-up at the end of each; whether the machine survives
    /// (a fence past any fetchable map drops it, the others re-arm it).
    #[test]
    fn kv_lost_round_trips_retry_six_times_then_give_up() {
        type Lose = fn(&mut Kv, &Outbound) -> Reply;
        let cases: [(&str, Lose, bool); 3] = [
            ("stale incarnation", restarted_under, true),
            (
                "epoch from the future",
                |_, _| epoch_from_the_future(),
                false,
            ),
            ("timeout", |_, _| timeout_reply(), true),
        ];
        for (what, lose, keeps_machine) in cases {
            let mut kv = Kv::fixed(vec![(3, Some(value(1))), (3, None)]);
            let probe = kv.start();
            // Lose the install leg, where a kept machine matters.
            let mut sends = wait_sends(what, kv.round_trip(&probe));
            for backoff_us in BACKOFFS_US {
                assert_eq!(sends.len(), 1, "{what}");
                let lost = lose(&mut kv, &sends[0]);
                assert_retry(what, &kv.reply(lost), backoff_us);
                assert_eq!(kv.driver.current.is_some(), keeps_machine, "{what}");
                sends = kv.resume();
            }
            let lost = lose(&mut kv, &sends[0]);
            let step = kv.reply(lost);
            assert!(
                matches!(&step, AdapterStep::GiveUp { sends } if sends.is_empty()),
                "{what}: {step:?}"
            );
            assert!(kv.driver.current.is_none() && kv.driver.op.is_none());
            // The recorder: one record, opened at the start, left open.
            let records = kv.records();
            assert_eq!(records.len(), 1, "{what}");
            assert_eq!(
                (records[0].invoke.as_nanos(), records[0].complete),
                (1_000, None)
            );
            assert_eq!(records[0].kind, HistKind::Put { nonce: 1 });
            // And the driver is ready for the next operation.
            let probe = kv.start();
            assert_done(what, &kv.finish(probe), false);
            assert_eq!(kv.records().len(), 2, "{what}");
        }
    }

    /// Branch: the stale-incarnation arm restamps the client's rkeys, so
    /// the re-armed request differs from the fenced one only there, and
    /// the restarted server accepts it.
    #[test]
    fn kv_stale_incarnation_restamps_the_rkeys() {
        let mut kv = Kv::fixed(vec![(3, None)]);
        let fenced = kv.start();
        let nack = restarted_under(&mut kv, &fenced[0]);
        assert_retry("fenced", &kv.reply(nack), 8);
        let rearmed = kv.resume();
        let target = |sends: &[Outbound]| match &sends[0].req {
            Request::Chain(chain) => match &chain[0] {
                PrismOp::Read { addr, rkey, .. } => (*addr, *rkey),
                op => panic!("a probe reads: {op:?}"),
            },
            req => panic!("a probe is a chain: {req:?}"),
        };
        assert_eq!(target(&fenced).0, target(&rearmed).0, "same slot");
        assert_ne!(target(&fenced).1, target(&rearmed).1, "new incarnation");
        assert_done("re-armed GET", &kv.finish(rearmed), false);
    }

    /// Branches: the stale-epoch arm of KV's `Driver::on_reply` with a live
    /// handle — behind the fence it backs off, caught up it restarts the
    /// same logical op at the key's new home under the new epoch.
    #[test]
    fn kv_epoch_fence_reroutes_once_the_handle_has_caught_up() {
        let cluster = kv_cluster();
        let (key, from, to) = kv_moved_key(&cluster);
        let route = cluster.map_handle();
        let mut kv = Kv::new(cluster, route, vec![(key, Some(value(1))), (key, None)]);
        let probe = kv.start();
        assert_eq!((probe[0].server, probe[0].epoch), (from, 1));
        // The servers flip before the map is published: fenced, and
        // nothing newer to fetch.
        for s in &kv.servers {
            s.install_epoch(2);
        }
        assert_retry("handle behind", &kv.round_trip(&probe), 8);
        // The migration lands. The retry still routes by the old map,
        // is fenced again, and this time the refetch reaches the epoch.
        let (map, _) = kv.cluster.migrate_grow(4, KEYS).expect("migration");
        assert_eq!(map.epoch(), 2);
        let probe = kv.resume();
        assert_eq!((probe[0].server, probe[0].epoch), (from, 1));
        let probe = wait_sends("caught up", kv.round_trip(&probe));
        assert_eq!((probe[0].server, probe[0].epoch), (to, 2));
        assert_done("rerouted PUT", &kv.finish(probe), false);
        // One logical op, one record, however it was routed; and the
        // value it was invoked with is what the new home serves.
        let read = kv.start();
        assert_eq!(read[0].server, to);
        assert_done("GET at the new home", &kv.finish(read), false);
        let records = kv.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, HistKind::Put { nonce: 1 });
        assert!(records[0].complete.is_some());
        assert_eq!(records[1].kind, HistKind::Get { nonce: 1 });
    }

    /// Branch: the timeout arm keeps the machine and `resume` re-arms
    /// it. The install executed and only its reply was lost; a kept
    /// machine resolves that with one read of the slot, where a fresh
    /// one would probe and install a second time.
    #[test]
    fn kv_timeout_keeps_the_machine_and_resume_rearms_it() {
        let mut kv = Kv::fixed(vec![(5, Some(value(7))), (5, None)]);
        let probe = kv.start();
        let install = wait_sends("probe answered", kv.round_trip(&probe));
        serve(&kv.servers, &install[0]);
        assert_retry("install reply lost", &kv.reply(timeout_reply()), 8);
        let resolve = kv.resume();
        assert_done("resolved as landed", &kv.round_trip(&resolve), false);
        let read = kv.start();
        assert_done("GET", &kv.finish(read), false);
        assert_eq!(kv.records()[1].kind, HistKind::Get { nonce: 7 });
    }

    /// Branch: `hedge_eligible` — every leg of a GET, no leg of a PUT,
    /// nothing once the op is over.
    #[test]
    fn kv_hedges_get_legs_only() {
        let mut kv = Kv::fixed(vec![(2, Some(value(1))), (2, None)]);
        let probe = kv.start();
        assert!(!kv.driver.hedge_eligible(0), "a PUT's probe");
        let install = wait_sends("probe answered", kv.round_trip(&probe));
        assert!(!kv.driver.hedge_eligible(0), "a PUT's install");
        assert_done("PUT", &kv.finish(install), false);
        let probe = kv.start();
        assert!(kv.driver.hedge_eligible(0), "a GET's probe");
        assert_done("GET", &kv.finish(probe), false);
        assert!(!kv.driver.hedge_eligible(0), "nothing in flight");
    }

    /// The recorder's laws over PRISM-KV: each `start` opens exactly one
    /// record at the noted time; a completion closes it, a GET with the
    /// nonce it read (absent key = 0); a protocol failure, an abandon
    /// and a `start` over an open record (client crash) leave it open.
    #[test]
    fn kv_records_open_at_start_and_close_only_on_completion() {
        let oversized = vec![0xAB; 4 * VALUE];
        let mut kv = Kv::fixed(vec![
            (0, None),
            (1, Some(oversized)),
            (2, Some(value(2))),
            (2, Some(value(3))),
            (2, Some(value(4))),
            (2, None),
        ]);
        // 1 µs: GET of an absent key completes at 2 µs with nonce 0.
        let probe = kv.start();
        assert_done("absent GET", &kv.finish(probe), false);
        // 3 µs: a PUT no size class fits fails after its probe.
        let probe = kv.start();
        assert_done("oversized PUT", &kv.finish(probe), true);
        // 5 µs: a PUT abandoned mid-flight (deadline shed).
        kv.start();
        kv.tick();
        assert!(kv.driver.abandon().is_empty());
        // 7 µs: a PUT cut short by a client crash — the next start (8 µs)
        // simply opens a new record, which completes.
        kv.start();
        let probe = kv.start();
        assert_done("PUT", &kv.finish(probe), false);
        let probe = kv.start();
        assert_done("GET", &kv.finish(probe), false);
        let rows: Vec<_> = kv
            .records()
            .iter()
            .map(|r| (r.key, r.invoke.as_nanos(), r.complete, r.kind))
            .collect();
        assert_eq!(
            rows,
            [
                (0, 1_000, at(2_000), HistKind::Get { nonce: 0 }),
                (
                    1,
                    3_000,
                    None,
                    HistKind::Put {
                        nonce: 0xABAB_ABAB_ABAB_ABAB
                    }
                ),
                (2, 5_000, None, HistKind::Put { nonce: 2 }),
                (2, 7_000, None, HistKind::Put { nonce: 3 }),
                (2, 8_000, at(10_000), HistKind::Put { nonce: 4 }),
                (2, 11_000, at(12_000), HistKind::Get { nonce: 4 }),
            ]
        );
    }

    // -----------------------------------------------------------------
    // PRISM-RS
    // -----------------------------------------------------------------

    /// Four provisioned 3-replica groups, two active, and one recorded
    /// driver playing `script`; the clock as in [`Kv`].
    struct Rs {
        shards: RsShards,
        servers: Vec<Arc<PrismServer>>,
        driver: Driver<RsFamily<RsClient>, Script, Recorder>,
        history: History,
        clock: u64,
    }

    impl Rs {
        fn new(script: Vec<LogicalOp>) -> Self {
            let shards =
                RsShards::with_active(4, 2, 3, &RsConfig::paper(KEYS, VALUE as u64), MAP_SEED);
            let history: History = Arc::new(Mutex::new(Vec::new()));
            let driver = Driver::routed(
                shards.open_clients(),
                shards.map_handle(),
                Script(script.into()),
                Recorder::new(0, Arc::clone(&history)),
            );
            Rs {
                servers: shards.servers(),
                shards,
                driver,
                history,
                clock: 0,
            }
        }

        fn tick(&mut self) {
            self.clock += 1_000;
            self.driver.note_time(SimTime::from_nanos(self.clock));
        }

        fn start(&mut self) -> Vec<Outbound> {
            self.tick();
            self.driver.start(&mut SimRng::new(1))
        }

        fn resume(&mut self) -> Vec<Outbound> {
            self.tick();
            self.driver.resume()
        }

        fn reply(&mut self, tag: u64, reply: Reply) -> AdapterStep {
            self.tick();
            self.driver.on_reply(tag, reply)
        }

        /// Serves one leg and feeds its reply.
        fn leg(&mut self, out: &Outbound) -> AdapterStep {
            let reply = serve(&self.servers, out);
            self.reply(out.tag, reply)
        }

        /// Serves every leg of an attempt in order, feeding each reply,
        /// and returns the steps.
        fn legs(&mut self, sends: &[Outbound]) -> Vec<AdapterStep> {
            sends.iter().map(|out| self.leg(out)).collect()
        }

        fn owed(&self, seq: u64) -> Option<usize> {
            self.driver.lingering.get(&seq).map(|(_, owed, _)| *owed)
        }

        fn records(&self) -> Vec<HistOp> {
            self.history.lock().expect("history lock").clone()
        }
    }

    fn seq_and_phase(out: &Outbound) -> (u64, u32) {
        let (seq, phase, _) = untag(out.tag);
        (seq, phase)
    }

    /// Branches: a failed quorum under RS's `Driver::on_reply` retries the
    /// whole operation six times, then gives it up; the legs that trail
    /// each verdict are absorbed (live machine) or drained (parked one),
    /// so nothing lingers.
    #[test]
    fn rs_failed_quorums_retry_six_times_then_give_up() {
        let mut rs = Rs::new(vec![(1, None)]);
        let mut sends = rs.start();
        for (attempt, backoff_us) in BACKOFFS_US.into_iter().enumerate() {
            assert_eq!(sends.len(), 3);
            assert!(sends
                .iter()
                .all(|o| seq_and_phase(o) == (attempt as u64 + 1, 0)));
            wait_sends("one leg lost", rs.reply(sends[0].tag, timeout_reply()));
            assert_retry(
                "quorum lost",
                &rs.reply(sends[1].tag, timeout_reply()),
                backoff_us,
            );
            wait_sends("trailing leg", rs.reply(sends[2].tag, timeout_reply()));
            sends = rs.resume();
        }
        wait_sends("one leg lost", rs.reply(sends[0].tag, timeout_reply()));
        let step = rs.reply(sends[1].tag, timeout_reply());
        assert!(matches!(step, AdapterStep::GiveUp { .. }), "{step:?}");
        assert_eq!(rs.owed(7), Some(1), "the third leg is still owed");
        wait_sends("trailing leg", rs.reply(sends[2].tag, timeout_reply()));
        assert!(rs.driver.lingering.is_empty());
        let records = rs.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].complete, None, "a given-up op stays uncertain");
    }

    /// Branches: the stale-epoch arm of RS's `Driver::on_reply` — behind
    /// the fence the attempt backs off on its machine; caught up it is
    /// reissued at the block's new home group under `seq + 1`, with the
    /// fenced attempt parked; fence NACKs trailing a parked attempt take
    /// the straggler path.
    #[test]
    fn rs_epoch_fence_reissues_at_the_new_home_under_the_next_seq() {
        let probe = Rs::new(Vec::new());
        let (old, new) = (probe.shards.map(), probe.shards.map().grow(4));
        let block = (0..KEYS)
            .find(|b| old.shard_of_id(*b) != new.shard_of_id(*b))
            .expect("the grow moves a block");
        let (from, to) = (old.shard_of_id(block), new.shard_of_id(block));
        let mut rs = Rs::new(vec![(block, Some(value(1)))]);
        let first = rs.start();
        assert!(first.iter().all(|o| o.server / 3 == from && o.epoch == 1));
        // Servers flip before the map is published.
        for s in &rs.servers {
            s.install_epoch(2);
        }
        assert_retry("handle behind", &rs.leg(&first[0]), 8);
        assert!(
            rs.driver.current.is_some(),
            "the machine waits for the retry"
        );
        let second = rs.resume();
        assert!(second
            .iter()
            .all(|o| o.server / 3 == from && seq_and_phase(o) == (2, 0)));
        assert_eq!(rs.owed(1), Some(2), "the fenced attempt is parked");
        for out in &first[1..] {
            assert!(wait_sends("trailing fence", rs.leg(out)).is_empty());
        }
        assert_eq!(rs.owed(1), None);
        // The migration lands; the next fenced leg refetches and moves.
        let (map, moved) = rs.shards.migrate_grow(4, KEYS).expect("migration");
        assert!(map.epoch() == 2 && moved > 0);
        let third = wait_sends("caught up", rs.leg(&second[0]));
        assert!(third
            .iter()
            .all(|o| o.server / 3 == to && o.epoch == 2 && seq_and_phase(o) == (3, 0)));
        assert_eq!(rs.owed(2), Some(2));
        assert_eq!(rs.records().len(), 1, "a reroute opens no record");
    }

    /// The tag the write phase's first chain op stages.
    fn staged_tag(out: &Outbound) -> Vec<u8> {
        match &out.req {
            Request::Chain(chain) => match &chain[0] {
                PrismOp::Write {
                    data: DataArg::Inline(tag),
                    ..
                } => tag.clone(),
                op => panic!("a write phase stages its tag first: {op:?}"),
            },
            req => panic!("a write phase is a chain: {req:?}"),
        }
    }

    /// Branch: a PUT fenced in its write phase keeps its tag across the
    /// reissue (`RsProtocol::reissue` re-pushes, it does not re-read), which
    /// is what keeps a rerouted retry from resurrecting its value over a
    /// later write.
    #[test]
    fn rs_put_fenced_in_its_write_phase_keeps_its_tag() {
        let mut rs = Rs::new(vec![(2, Some(value(1))), (2, None)]);
        let reads = rs.start();
        let mut steps = rs.legs(&reads[..2]);
        let writes = wait_sends("read quorum", steps.pop().expect("two steps"));
        assert!(writes.iter().all(|o| seq_and_phase(o) == (1, 1)));
        // A new epoch over the same homes.
        for s in &rs.servers {
            s.install_epoch(2);
        }
        rs.shards.map_handle().install(rs.shards.map().grow(2));
        let again = wait_sends("fenced write leg", rs.leg(&writes[0]));
        assert!(again
            .iter()
            .all(|o| seq_and_phase(o) == (2, 1) && o.epoch == 2));
        assert_eq!(staged_tag(&again[0]), staged_tag(&writes[0]));
        let steps = rs.legs(&again);
        assert!(matches!(steps[1], AdapterStep::Done { failed: false, .. }));
        // What was written is what a read returns (an ABD read: a read
        // quorum, then the write-back).
        let reads = rs.start();
        let mut steps = rs.legs(&reads[..2]);
        let write_back = wait_sends("read quorum", steps.pop().expect("two steps"));
        let steps = rs.legs(&write_back[..2]);
        assert!(matches!(steps[1], AdapterStep::Done { failed: false, .. }));
        assert_eq!(rs.records()[1].kind, HistKind::Get { nonce: 1 });
    }

    /// Branches: completion at quorum parks the machine under its seq
    /// with the replies it is still owed; each trailing reply is fed to
    /// it — a write leg's reply frees the buffer it displaced — and the
    /// last one drains `lingering`.
    #[test]
    fn rs_quorum_completion_parks_the_machine_and_stragglers_drain_it() {
        let mut rs = Rs::new(vec![(4, Some(value(9)))]);
        let reads = rs.start();
        let mut steps = rs.legs(&reads[..2]);
        let writes = wait_sends("read quorum", steps.pop().expect("two steps"));
        assert_eq!(writes.len(), 3);
        let steps = rs.legs(&writes[..2]);
        match &steps[1] {
            AdapterStep::Done { sends, failed, .. } => {
                assert!(!failed);
                assert!(sends.iter().all(is_single_free));
            }
            other => panic!("write quorum completes the op: {other:?}"),
        }
        assert!(rs.driver.current.is_none());
        assert_eq!(rs.owed(1), Some(2), "one read leg, one write leg");
        assert_eq!(rs.records()[0].complete, at(5_000), "closed at the quorum");
        assert!(wait_sends("late read leg", rs.leg(&reads[2])).is_empty());
        assert_eq!(rs.owed(1), Some(1));
        let frees = wait_sends("late write leg", rs.leg(&writes[2]));
        assert_eq!(frees.len(), 1);
        assert!(is_single_free(&frees[0]) && frees[0].server == writes[2].server);
        assert!(rs.driver.lingering.is_empty());
    }

    /// Branch: `abandon` mid-quorum parks exactly as a reissue does —
    /// the attempt's machine under its seq, owed what was outstanding —
    /// and the trailing replies drain it either way.
    #[test]
    fn rs_abandon_parks_as_a_reissue_does() {
        type Park = fn(&mut Rs) -> Vec<Outbound>;
        let cases: [(&str, Park); 2] = [
            ("abandon", |rs| {
                rs.tick();
                rs.driver.abandon()
            }),
            ("reissue", Rs::resume),
        ];
        for (what, park) in cases {
            let mut rs = Rs::new(vec![(6, None)]);
            let sends = rs.start();
            wait_sends(what, rs.leg(&sends[0]));
            let next = park(&mut rs);
            assert_eq!(rs.owed(1), Some(2), "{what}");
            assert_eq!(rs.driver.outstanding, next.len(), "{what}");
            for out in &sends[1..] {
                assert!(wait_sends(what, rs.leg(out)).is_empty(), "{what}");
            }
            assert_eq!(rs.owed(1), None, "{what}");
        }
        // Abandoned: nothing in flight, the record left open.
        let mut rs = Rs::new(vec![(6, Some(value(1)))]);
        rs.start();
        rs.tick();
        rs.driver.abandon();
        assert!(rs.driver.current.is_none() && rs.driver.op.is_none());
        assert_eq!(rs.records()[0].complete, None);
    }

    /// Branch: `hedge_eligible` — the legs of a GET's live attempt, no
    /// leg of a PUT, no tag of an attempt the driver has moved on from.
    #[test]
    fn rs_hedges_get_legs_of_the_live_attempt_only() {
        let mut rs = Rs::new(vec![(3, Some(value(1))), (3, None)]);
        let reads = rs.start();
        assert!(
            reads.iter().all(|o| !rs.driver.hedge_eligible(o.tag)),
            "a PUT's reads"
        );
        let mut steps = rs.legs(&reads);
        steps.truncate(2);
        let writes = wait_sends("read quorum", steps.pop().expect("two steps"));
        assert!(
            writes.iter().all(|o| !rs.driver.hedge_eligible(o.tag)),
            "a PUT's writes"
        );
        rs.legs(&writes);
        let first = rs.start();
        assert!(
            first.iter().all(|o| rs.driver.hedge_eligible(o.tag)),
            "a GET's reads"
        );
        let second = rs.resume();
        assert!(
            first.iter().all(|o| !rs.driver.hedge_eligible(o.tag)),
            "a straggler's tag"
        );
        assert!(second.iter().all(|o| rs.driver.hedge_eligible(o.tag)));
        rs.tick();
        rs.driver.abandon();
        assert!(
            second.iter().all(|o| !rs.driver.hedge_eligible(o.tag)),
            "nothing in flight"
        );
    }

    /// `RsProtocol::HEDGE_GETS` for PRISM-RS: a GET's write-back leg run
    /// twice on a replica that is behind — the hedge's winner fed to
    /// `on_reply`, its loser to `on_stale_reply` — leaves the replica's
    /// free list where it was before the GET, with no buffer freed
    /// twice.
    #[test]
    fn rs_duplicated_write_back_leg_frees_what_it_allocates() {
        let mut rs = Rs::new(vec![(5, Some(value(7))), (5, None)]);
        // The PUT lands on two replicas; the third stays behind.
        let reads = rs.start();
        let mut steps = rs.legs(&reads[..2]);
        let writes = wait_sends("read quorum", steps.pop().expect("two steps"));
        assert_done("PUT", &rs.legs(&writes[..2])[1], false);
        let behind = writes[2].server;
        let (group, replica) = (rs.shards.group(behind / 3), behind % 3);
        let lists = Arc::clone(group.replica(replica).server());
        let free_list = group.replica(replica).view().freelist;
        let before = lists.freelists().available(free_list);
        // The GET's read quorum comes from the two that hold the value.
        let reads = rs.start();
        let mut steps = rs.legs(&reads[..2]);
        let write_back = wait_sends("read quorum", steps.pop().expect("two steps"));
        let leg = write_back
            .iter()
            .find(|o| o.server == behind)
            .expect("a write-back leg to the replica behind");
        assert!(rs.driver.hedge_eligible(leg.tag));
        let (first, second) = (serve(&rs.servers, leg), serve(&rs.servers, leg));
        let mut frees = wait_sends("the winner", rs.reply(leg.tag, first));
        frees.extend(rs.driver.on_stale_reply(leg.tag, behind, second));
        assert_eq!(frees.len(), 2, "the displaced buffer and the loser's");
        assert!(frees
            .iter()
            .all(|o| is_single_free(o) && o.server == behind));
        let mut freed: Vec<u64> = frees.iter().filter_map(|o| single_free(&o.req)).collect();
        for out in &frees {
            assert_eq!(serve(&rs.servers, out), Reply::Rpc(vec![0]), "accepted");
        }
        freed.dedup();
        assert_eq!(freed.len(), 2, "no buffer freed twice");
        assert_eq!(lists.freelists().available(free_list), before);
    }

    /// ABDLOCK on the one driver: a held lock backs off (`Backoff`, never a
    /// transport `Retry`), so seven backoffs in a row spend none of the
    /// retry budget and never give up; no leg is ever hedge-eligible.
    #[test]
    fn abdlock_backs_off_on_a_held_lock_and_never_hedges() {
        let cluster = AbdLockCluster::new(
            3,
            &AbdLockConfig {
                n_blocks: KEYS,
                block_size: VALUE as u64,
            },
        );
        let servers = cluster.servers();
        let lock = |r: usize, holder: u64| {
            let replica = cluster.replica(r);
            let word = replica.view().block(0);
            replica.server().arena().write_u64(word, holder).unwrap();
        };
        // One block, no writes: every operation is a GET of block 0.
        let mut driver =
            AbdLockAdapter::new(cluster.open_client(9), KeyDist::uniform(1), VALUE, 0.0);
        // Serves every leg in send order until the driver stops waiting.
        let settle = |driver: &mut AbdLockAdapter, mut sends: Vec<Outbound>| loop {
            let out = sends.remove(0);
            if out.background {
                serve(&servers, &out);
                continue;
            }
            assert!(!driver.hedge_eligible(out.tag), "an ABDLOCK leg");
            match driver.on_reply(out.tag, serve(&servers, &out)) {
                AdapterStep::Wait(more) => sends.extend(more),
                step => return step,
            }
        };
        // Another client holds the block at two replicas of three.
        lock(0, 0xDEAD);
        lock(1, 0xDEAD);
        let mut sends = driver.start(&mut SimRng::new(1));
        for round in 0..7 {
            match settle(&mut driver, sends) {
                AdapterStep::Backoff { sends, .. } => assert!(sends.is_empty(), "{round}"),
                other => panic!("round {round}: expected a backoff, got {other:?}"),
            }
            sends = driver.resume();
        }
        lock(0, 0);
        lock(1, 0);
        assert_done("GET", &settle(&mut driver, sends), false);
    }

    // -----------------------------------------------------------------
    // PRISM-TX and FaRM
    // -----------------------------------------------------------------

    /// One TX driver over `shards` shards of `KEYS` keys each, its
    /// transactions `keys_per_txn` keys drawn from the first
    /// `keys_per_txn` keys (so a transaction of `shards` keys touches
    /// every shard), and the hosts to serve its requests on. Both
    /// protocols' drivers run coalesced, as PRISM-TX's adapter does;
    /// FaRM's has nothing to coalesce.
    struct Tx<P: TxProtocol> {
        adapter: Coalesced<Driver<TxFamily<P>, TxnGen, ()>>,
        servers: Vec<Arc<PrismServer>>,
    }

    fn txn_gen(keys_per_txn: usize) -> TxnGen {
        let keys = if keys_per_txn == 1 {
            KEYS
        } else {
            keys_per_txn as u64
        };
        TxnGen::new(KeyDist::uniform(keys), keys_per_txn, VALUE, SimRng::new(3))
    }

    fn prism_tx(shards: usize, keys_per_txn: usize) -> Tx<TxClient> {
        let cluster = TxCluster::new(shards, &TxConfig::paper(KEYS, VALUE as u64));
        Tx {
            adapter: PrismTxAdapter::new(cluster.open_client(), txn_gen(keys_per_txn)),
            servers: cluster.servers(),
        }
    }

    fn farm(shards: usize, keys_per_txn: usize) -> (FarmCluster, Tx<FarmClient>) {
        let cluster = FarmCluster::new(
            shards,
            &FarmConfig {
                keys_per_shard: KEYS,
                value_len: VALUE as u64,
            },
        );
        let tx = Tx {
            adapter: Coalesced::wrap(FarmAdapter::new(
                cluster.open_client(),
                txn_gen(keys_per_txn),
            )),
            servers: cluster.servers(),
        };
        (cluster, tx)
    }

    fn phase_of(out: &Outbound) -> u32 {
        untag(out.tag).1
    }

    impl<P: TxProtocol> Tx<P> {
        fn driver(&self) -> &Driver<TxFamily<P>, TxnGen, ()> {
            &self.adapter.inner
        }

        /// Serves one request and feeds its reply.
        fn leg(&mut self, out: &Outbound) -> AdapterStep {
            let reply = serve(&self.servers, out);
            self.adapter.on_reply(out.tag, reply)
        }

        /// Serves `sends` a phase at a time — background requests as
        /// they come, each reply fed in send order — until the driver
        /// sends a request of `phase`; returns that phase's sends.
        fn run_to(&mut self, mut sends: Vec<Outbound>, phase: u32) -> Vec<Outbound> {
            loop {
                if sends.iter().any(|o| !o.background && phase_of(o) == phase) {
                    return sends;
                }
                let mut next = Vec::new();
                for out in &sends {
                    if out.background {
                        serve(&self.servers, out);
                    } else {
                        next.extend(wait_sends("mid-attempt", self.leg(out)));
                    }
                }
                sends = next;
            }
        }

        /// Runs `sends` until the driver stops waiting.
        fn finish(&mut self, mut sends: Vec<Outbound>) -> AdapterStep {
            loop {
                let mut next = Vec::new();
                for out in &sends {
                    if out.background {
                        serve(&self.servers, out);
                        continue;
                    }
                    match self.leg(out) {
                        AdapterStep::Wait(more) => next.extend(more),
                        step => return step,
                    }
                }
                sends = next;
            }
        }

        fn start(&mut self) -> Vec<Outbound> {
            self.adapter.start(&mut SimRng::new(1))
        }
    }

    /// The requests of `sends`, without their tags.
    fn requests(sends: &[Outbound]) -> Vec<(usize, Request)> {
        sends.iter().map(|o| (o.server, o.req.clone())).collect()
    }

    const PH_TX_COMMIT: u32 = 2;
    const PH_FARM_LOCK: u32 = 2;
    const PH_FARM_UPDATE: u32 = 4;

    /// Branch: `Committed` — the operation completes, and PRISM-TX's free of the displaced version is held back by the
    /// batcher rather than sent.
    #[test]
    fn tx_commit_completes_the_operation() {
        fn check<P: TxProtocol>(what: &str, mut tx: Tx<P>) {
            for round in 0..3 {
                let sends = tx.start();
                match tx.finish(sends) {
                    AdapterStep::Done { sends, failed, .. } => {
                        assert!(!failed && sends.is_empty(), "{what}");
                    }
                    other => panic!("{what}: expected completion, got {other:?}"),
                }
                assert!(tx.driver().current.is_none(), "{what}");
                assert_eq!(tx.driver().seq, round + 1, "{what}: one attempt each");
            }
            assert_eq!(tx.driver().retries, 0, "{what}");
        }
        check("PRISM-TX", prism_tx(1, 1));
        check("FaRM", farm(1, 1).1);
    }

    fn assert_backoff(what: &str, step: &AdapterStep, want: SimDuration) {
        match step {
            AdapterStep::Backoff { sends, wait } => {
                assert!(sends.is_empty(), "{what}: {sends:?}");
                assert_eq!(*wait, want, "{what}");
            }
            other => panic!("{what}: expected a backoff, got {other:?}"),
        }
    }

    /// Branch: `Aborted` — the driver backs off with its protocol's
    /// jitter (PRISM-TX seeds it by client id, every FaRM client with
    /// one constant) and `resume` retries the same keys. PRISM-TX loses
    /// an execution reply; FaRM loses a lock reply, so the lock it may
    /// hold is in doubt and the abort's unlock releases it.
    #[test]
    fn tx_abort_backs_off_and_retries_the_same_keys_with_the_protocols_jitter() {
        let keys = txn_gen(1).next_txn().keys;

        let mut tx = prism_tx(1, 1);
        let seed = (tx.driver().family.client.cid() as u64) << 17 | 0x5A5A;
        let first = tx.start();
        let step = tx.adapter.on_reply(first[0].tag, timeout_reply());
        let want = tx_backoff(1, &mut SimRng::new(seed));
        assert_backoff("PRISM-TX", &step, want);
        assert_eq!(tx.driver().op, Some(TxnSpec { keys: keys.clone() }));
        assert_eq!(requests(&tx.adapter.resume()), requests(&first));
        assert_eq!((tx.driver().retries, tx.driver().seq), (1, 2));

        let (cluster, mut tx) = farm(1, 1);
        let first = tx.start();
        let lock = tx.run_to(first.clone(), PH_FARM_LOCK);
        serve(&tx.servers, &lock[0]);
        assert_eq!(cluster.held(), 1, "the lock landed");
        let unlock = wait_sends(
            "lock in doubt",
            tx.adapter.on_reply(lock[0].tag, timeout_reply()),
        );
        assert_eq!(unlock.len(), 1);
        let step = tx.leg(&unlock[0]);
        assert_backoff("FaRM", &step, tx_backoff(1, &mut SimRng::new(0xFA12)));
        assert_eq!(cluster.held(), 0, "the abort released it");
        assert_eq!(tx.driver().op, Some(TxnSpec { keys: keys.clone() }));
        assert_eq!(requests(&tx.adapter.resume()), requests(&first));
        assert_eq!((tx.driver().retries, tx.driver().seq), (1, 2));
    }

    /// Branch: `Failed` — a lost commit (PRISM-TX) or update (FaRM)
    /// reply is indeterminate: the operation ends failed, and the next
    /// operation starts clean.
    #[test]
    fn tx_lost_commit_reply_ends_the_operation_failed() {
        fn check<P: TxProtocol>(what: &str, mut tx: Tx<P>, last_phase: u32) {
            let sends = tx.start();
            let last = tx.run_to(sends, last_phase);
            serve(&tx.servers, &last[0]);
            let step = tx.adapter.on_reply(last[0].tag, timeout_reply());
            assert_done(what, &step, true);
            assert!(tx.driver().current.is_none(), "{what}");
            let sends = tx.start();
            assert_done(what, &tx.finish(sends), false);
        }
        check("PRISM-TX", prism_tx(1, 1), PH_TX_COMMIT);
        check("FaRM", farm(1, 1).1, PH_FARM_UPDATE);
    }

    /// Branch: a reply to an attempt that already ended emits nothing.
    /// A three-shard transaction's last phase: the first reply lands
    /// (PRISM-TX's free of the displaced version goes to the batcher,
    /// not the wire), the second is lost (the attempt fails), the third
    /// straggles in. And the driver's one "no attempt in flight" arm
    /// for KV, whose replies carry no attempt: a reply after `Done` or
    /// `abandon` emits at most its harvested free.
    #[test]
    fn tx_late_replies_to_a_finished_attempt_emit_nothing() {
        fn check<P: TxProtocol>(what: &str, mut tx: Tx<P>, last_phase: u32) -> Tx<P> {
            let sends = tx.start();
            let last = tx.run_to(sends, last_phase);
            assert_eq!(last.len(), 3, "{what}: one request per shard");
            assert!(wait_sends(what, tx.leg(&last[0])).is_empty(), "{what}");
            let step = tx.adapter.on_reply(last[1].tag, timeout_reply());
            assert_done(what, &step, true);
            assert!(wait_sends(what, tx.leg(&last[2])).is_empty(), "{what}");
            tx
        }
        let tx = check("PRISM-TX", prism_tx(3, 3), PH_TX_COMMIT);
        let held: usize = tx.adapter.frees.pending.values().map(Vec::len).sum();
        assert_eq!(held, 1, "the first commit reply's free, coalesced");
        let tx = check("FaRM", farm(3, 3).1, PH_FARM_UPDATE);
        assert!(tx.adapter.frees.pending.is_empty(), "FaRM frees nothing");

        let at_most_a_free = |what: &str, step: AdapterStep| {
            let sends = wait_sends(what, step);
            assert!(
                sends.len() <= 1 && sends.iter().all(is_single_free),
                "{what}"
            );
        };
        let mut kv = Kv::fixed(vec![(1, Some(value(1))), (1, Some(value(2)))]);
        let probe = kv.start();
        let install = wait_sends("probe answered", kv.round_trip(&probe));
        let reply = serve(&kv.servers, &install[0]);
        assert_done("KV PUT", &kv.reply(reply.clone()), false);
        let late = kv.reply(reply);
        at_most_a_free("KV reply after Done", late);
        let probe = kv.start();
        let install = wait_sends("probe answered", kv.round_trip(&probe));
        kv.tick();
        assert!(kv.driver.abandon().is_empty());
        let late = kv.reply(serve(&kv.servers, &install[0]));
        at_most_a_free("KV reply after abandon", late);
    }

    // -----------------------------------------------------------------
    // Coalescing
    // -----------------------------------------------------------------

    /// Emits, per reply: a foreground send, a free of the next address
    /// on server 1, and a background request that is not a free.
    struct Frees(u64);

    impl ProtoAdapter for Frees {
        fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
            Vec::new()
        }

        fn resume(&mut self) -> Vec<Outbound> {
            Vec::new()
        }

        fn on_reply(&mut self, _tag: u64, _reply: Reply) -> AdapterStep {
            self.0 += 1;
            AdapterStep::Wait(vec![
                Outbound::new(0, 5, Request::Rpc(vec![0x09]), false),
                Outbound::new(1, 0, free_request(self.0), true),
                Outbound::new(1, 0, Request::Rpc(vec![0x02]), true),
            ])
        }

        fn on_stale_reply(&mut self, _tag: u64, server: usize, _reply: Reply) -> Vec<Outbound> {
            harvested_free(server, Some(0xF00))
        }
    }

    /// The stage [`Coalesced`] applies: frees held back per server until
    /// the sixteenth, whose place the batch takes; everything else, and
    /// the order, untouched; harvested frees raw.
    #[test]
    fn coalesced_batches_frees_in_place_and_leaves_the_rest() {
        let mut adapter = Coalesced::wrap(Frees(0));
        let shape = |sends: &[Outbound]| -> Vec<(usize, bool, u8)> {
            sends
                .iter()
                .map(|o| match &o.req {
                    Request::Rpc(m) => (o.server, o.background, m[0]),
                    req => panic!("{req:?}"),
                })
                .collect()
        };
        for _ in 1..FreeBatcher::CAP {
            let sends = wait_sends("held back", adapter.on_reply(0, Reply::Rpc(Vec::new())));
            assert_eq!(shape(&sends), [(0, false, 0x09), (1, true, 0x02)]);
        }
        let sends = wait_sends("flush", adapter.on_reply(0, Reply::Rpc(Vec::new())));
        assert_eq!(
            shape(&sends),
            [(0, false, 0x09), (1, true, 0x04), (1, true, 0x02)]
        );
        let Request::Rpc(batch) = &sends[1].req else {
            unreachable!("shape checked");
        };
        let mut want = vec![0x04, 16, 0];
        for addr in 1..=16u64 {
            want.extend_from_slice(&addr.to_le_bytes());
        }
        assert_eq!(batch, &want);
        let harvest = adapter.on_stale_reply(0, 1, Reply::Rpc(Vec::new()));
        assert!(harvest.len() == 1 && is_single_free(&harvest[0]));
    }
}
