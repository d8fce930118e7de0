//! Per-system adapters: each wraps a protocol client behind the
//! closed-loop [`ProtoAdapter`] interface.
//!
//! PRISM-KV and PRISM-RS each have one *driver* ([`KvDriver`],
//! [`RsDriver`]) holding the whole reply-handling state machine: fence
//! handling, the retry budget, rerouting, straggler parking. The two
//! transaction protocols share one, [`TxDriver`], over the
//! [`TxProtocol`] contract. What varies between the runs that use a
//! KV or RS driver is supplied from outside it:
//!
//! * where the next logical operation comes from — an [`OpSource`];
//! * who hears how each operation ended — an [`OpObserver`] (`()` hears
//!   nothing; [`crate::chaos::Recorder`] writes a history);
//! * whether reclamation traffic is coalesced — [`Coalesced`] wraps any
//!   adapter and batches the frees it emits (PRISM-TX's too: it is the
//!   one reclamation batcher).
//!
//! The figure adapters ([`PrismKvAdapter`], [`PrismRsAdapter`]) and the
//! gates' history-recording ones ([`crate::chaos::ChaosKvAdapter`],
//! [`crate::chaos::ChaosRsAdapter`]) are aliases over the same drivers,
//! so a gate verdict is a verdict on the code that draws the figures.
//!
//! Tags route replies back to the right state machine:
//! `tag = seq << 32 | phase << 16 | index`, where `seq` identifies the
//! operation (machines with quorum semantics outlive their completion
//! point to process stragglers and emit reclamation traffic).

use std::collections::HashMap;

use prism_core::freelist::{free_batch_request, free_request, single_free};
use prism_core::msg::{Reply, Request};
use prism_core::OpStatus;
use prism_kv::pilaf::{PilafClient, PilafGetOp};
use prism_kv::prism_kv::{GetOp, PrismKvClient, PutOp};
use prism_kv::{hash::key_bytes, KvOutcome, KvStep};
use prism_rdma::hash::IntMap;
use prism_rs::abdlock::AbdLockClient;
use prism_rs::prism_rs::RsClient;
use prism_rs::{RsOutcome, RsProtocol, RsStep};
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_tx::farm::FarmClient;
use prism_tx::{TxClient, TxOutcome, TxProtocol, TxStep};
use prism_workload::{KeyDist, KvOp, TxnGen, YcsbConfig, YcsbGen};

use crate::cluster::{MapHandle, ShardMap};
use crate::netsim::{AdapterStep, Outbound, ProtoAdapter};

fn tag(seq: u64, phase: u32, idx: u32) -> u64 {
    (seq << 32) | ((phase as u64) << 16) | idx as u64
}

fn untag(t: u64) -> (u64, u32, u32) {
    (t >> 32, ((t >> 16) & 0xFFFF) as u32, (t & 0xFFFF) as u32)
}

/// Transport-retry policy shared by the KV and RS adapters: a lost
/// round trip (a synthesized timeout reply, [`Reply::Verb`]`(Err(..))`
/// from the fault layer; for RS, a failed quorum) reissues the
/// operation after a deterministic capped exponential backoff, up to
/// this many attempts, then gives it up. The transaction systems fold
/// transport loss into their existing abort paths.
const TRANSPORT_RETRY_BUDGET: u32 = 6;
const TRANSPORT_RETRY_BASE_NS: u64 = 8_000;
const TRANSPORT_RETRY_CAP_NS: u64 = 64_000;

/// The retry-budget verdict: one more attempt after a backoff, or — the
/// budget spent — the operation given up. `sends` rides either way.
fn retry_or_give_up(retries: &mut u32, sends: Vec<Outbound>) -> AdapterStep {
    if *retries >= TRANSPORT_RETRY_BUDGET {
        return AdapterStep::GiveUp { sends };
    }
    *retries += 1;
    let exp = (*retries - 1).min(6);
    let wait = (TRANSPORT_RETRY_BASE_NS << exp).min(TRANSPORT_RETRY_CAP_NS);
    AdapterStep::Retry {
        sends,
        wait: SimDuration::from_nanos(wait),
    }
}

/// One logical operation: the key (or block) and, for a write, the
/// value. A driver owns it from `start` until the operation ends, so
/// every reissue and reroute of a write carries the same bytes.
pub type LogicalOp = (u64, Option<Vec<u8>>);

/// Where a driver's next logical operation comes from.
pub trait OpSource {
    /// Draws the next operation. `rng` is the client actor's stream; a
    /// source with a stream of its own ignores it.
    fn draw(&mut self, rng: &mut SimRng) -> LogicalOp;
}

/// Who hears how a driver's operations end. Every method defaults to
/// nothing, and `()` is the observer that hears nothing.
pub trait OpObserver {
    /// The virtual clock, just before the call that reports an event.
    fn note_time(&mut self, _now: SimTime) {}
    /// `op` was invoked. An operation still open at this point was cut
    /// short by a client crash.
    fn invoked(&mut self, _op: &LogicalOp) {}
    /// The open operation completed; `read` is what a read returned
    /// (empty for an absent key), `None` for a write.
    fn completed(&mut self, _read: Option<&[u8]>) {}
    /// The open operation ended without an answer — given up, shed, or
    /// failed by the protocol: a write among these may or may not have
    /// taken effect.
    fn unresolved(&mut self) {}
}

impl OpObserver for () {}

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

/// The unbatched free of `addr` a harvest emits (0 = nothing to free).
fn harvested_free(server: usize, addr: u64) -> Vec<Outbound> {
    if addr == 0 {
        return Vec::new();
    }
    vec![Outbound::new(server, 0, free_request(addr), true)]
}

// ---------------------------------------------------------------------
// PRISM-KV (Figures 3-4)
// ---------------------------------------------------------------------

enum KvMachine {
    Get(GetOp),
    Put(PutOp),
}

/// Closed-loop client over PRISM-KV, optionally sharded: the one
/// PRISM-KV reply-handling state machine.
///
/// With one client and [`ShardMap::single`] this is the single-server
/// adapter. With N clients, every operation is routed to its key's home
/// shard before the state machine starts; the machine itself is
/// untouched (sharding is pure client-side routing).
pub struct KvDriver<W, O> {
    clients: Vec<PrismKvClient>,
    /// The map operations are routed by, and the cell a stale-epoch
    /// fence refetches it from.
    map: ShardMap,
    handle: MapHandle,
    /// Home shard of the in-flight op (routing is per-operation; a
    /// PRISM-KV op's whole chain stays on one shard).
    shard: usize,
    source: W,
    observer: O,
    current: Option<KvMachine>,
    /// The in-flight logical op, kept so a reroute can restart it from
    /// scratch with the value it was invoked with.
    op: Option<LogicalOp>,
    retries: u32,
}

impl<W: OpSource, O: OpObserver> KvDriver<W, O> {
    /// Creates a driver over one client per shard, in flat shard order.
    /// `route` is a fixed [`ShardMap`], or the cluster's [`MapHandle`]
    /// when the map can change under the run: then a request fenced with
    /// [`prism_rdma::RdmaError::StaleEpoch`] refetches the map and
    /// restarts at the key's new home, and `clients` must cover every
    /// shard the map can grow into (standby shards included).
    ///
    /// # Panics
    ///
    /// Panics if the map routes to more shards than there are clients.
    pub fn routed(
        clients: Vec<PrismKvClient>,
        route: impl Into<MapHandle>,
        source: W,
        observer: O,
    ) -> Self {
        let handle = route.into();
        let map = handle.snapshot();
        assert!(
            clients.len() >= map.shards(),
            "one client per shard the map can route to, in shard order"
        );
        KvDriver {
            clients,
            map,
            handle,
            shard: 0,
            source,
            observer,
            current: None,
            op: None,
            retries: 0,
        }
    }

    fn foreground(&self, req: Request) -> Outbound {
        Outbound {
            server: self.shard,
            tag: 0,
            req,
            background: false,
            epoch: self.map.epoch(),
        }
    }

    /// Routes the logical op through the current map and starts a fresh
    /// machine for it at its home shard.
    fn issue(&mut self) -> Vec<Outbound> {
        let (key, value) = self.op.as_ref().expect("op set");
        let key = key_bytes(*key);
        self.shard = self.map.shard_of(&key);
        let client = &self.clients[self.shard];
        let (machine, req) = match value {
            None => {
                let (m, r) = client.get(&key);
                (KvMachine::Get(m), r)
            }
            Some(value) => {
                let (m, r) = client.put(&key, value);
                (KvMachine::Put(m), r)
            }
        };
        self.current = Some(machine);
        vec![self.foreground(req)]
    }

    /// A lost or fenced round trip: retry within the budget, else drop
    /// the operation.
    fn retry(&mut self) -> AdapterStep {
        let step = retry_or_give_up(&mut self.retries, Vec::new());
        if matches!(step, AdapterStep::GiveUp { .. }) {
            self.current = None;
            self.op = None;
            self.observer.unresolved();
        }
        step
    }
}

impl<W: OpSource, O: OpObserver> ProtoAdapter for KvDriver<W, O> {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        let op = self.source.draw(rng);
        self.observer.invoked(&op);
        self.op = Some(op);
        self.retries = 0;
        self.issue()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        // Transport retry: re-arm the *same* machine rather than
        // starting a fresh one. A PUT whose install chain went
        // unanswered may already have published; blindly re-running it
        // could resurrect its value over a newer racing write, so the
        // machine's reissue path re-reads the slot and decides.
        let client = &self.clients[self.shard];
        let req = match self.current.as_mut() {
            Some(KvMachine::Get(m)) => m.reissue(client),
            Some(KvMachine::Put(m)) => m.reissue(client),
            None => return self.issue(),
        };
        vec![self.foreground(req)]
    }

    fn note_time(&mut self, now: SimTime) {
        self.observer.note_time(now);
    }

    fn on_reply(&mut self, _tag: u64, reply: Reply) -> AdapterStep {
        if let Some(inc) = reply.stale_incarnation() {
            // An amnesia-restarted shard fenced our pre-crash rkeys:
            // restamp them with its new incarnation (the rejoin replay
            // is server-side; the client only needs fresh capabilities)
            // and re-arm the same machine — the fenced request never
            // executed.
            self.clients[self.shard].refence(inc);
            return self.retry();
        }
        if let Some(epoch) = reply.stale_epoch() {
            // The server fenced our request under a newer shard-map
            // epoch, so it never executed: refetch the map, reroute the
            // key, and restart from a clean probe at the key's
            // (possibly new) home shard — the same logical operation,
            // the same value. If the fencing epoch is ahead of anything
            // we can fetch (a fixed map, or the publish has not landed
            // yet), treat it as a transport failure instead.
            self.handle.refresh(&mut self.map);
            self.current = None;
            if self.map.epoch() >= epoch {
                return AdapterStep::Wait(self.issue());
            }
            return self.retry();
        }
        if matches!(reply, Reply::Verb(Err(_))) {
            // Synthesized timeout from the fault layer (PRISM-KV chains
            // never produce verb errors on their own). The machine is
            // kept: resume() re-arms it in place.
            return self.retry();
        }
        let client = &self.clients[self.shard];
        let step = match self.current.as_mut().expect("op in flight") {
            KvMachine::Get(m) => m.on_reply(client, reply),
            KvMachine::Put(m) => m.on_reply(client, reply),
        };
        match step {
            KvStep::Send {
                request,
                background,
            } => {
                let mut sends = vec![self.foreground(request)];
                sends.extend(background.map(|b| Outbound::new(self.shard, 0, b, true)));
                AdapterStep::Wait(sends)
            }
            KvStep::Done {
                outcome,
                background,
            } => {
                self.current = None;
                match &outcome {
                    KvOutcome::Value(v) => {
                        self.observer.completed(Some(v.as_deref().unwrap_or(&[])))
                    }
                    KvOutcome::Written => self.observer.completed(None),
                    // Pool exhausted, retry budget spent: a failed
                    // PUT's chain may have partially executed.
                    KvOutcome::Failed(_) => self.observer.unresolved(),
                }
                AdapterStep::Done {
                    sends: background
                        .map(|b| vec![Outbound::new(self.shard, 0, b, true)])
                        .unwrap_or_default(),
                    client_compute: SimDuration::ZERO,
                    failed: matches!(outcome, KvOutcome::Failed(_)),
                }
            }
        }
    }

    fn on_stale_reply(&mut self, _tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        kv_harvest(server, reply)
    }

    fn hedge_eligible(&self, _tag: u64) -> bool {
        // Only GETs hedge: every leg of a GET machine (probe, resolve)
        // is an idempotent read, so racing two copies is safe. A PUT's
        // install chain allocates and CASes — duplicating it would
        // double-publish.
        matches!(self.current, Some(KvMachine::Get(_)))
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // Deadline shed: drop the op on the floor. KV machines hold at
        // most one request in flight and harvesting of raced replies is
        // stateless (`kv_harvest`), so there is nothing to park. A shed
        // PUT may have executed.
        self.current = None;
        self.op = None;
        self.retries = 0;
        self.observer.unresolved();
        Vec::new()
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
pub type PrismKvAdapter = Coalesced<KvDriver<YcsbGen, ()>>;

impl PrismKvAdapter {
    /// Creates the single-server adapter.
    pub fn new(client: PrismKvClient, config: YcsbConfig, rng: SimRng) -> Self {
        Self::sharded(vec![client], ShardMap::single(), config, rng)
    }

    /// Creates a routed adapter over one client per shard; `route` is a
    /// fixed map or a live handle (see [`KvDriver::routed`]).
    pub fn sharded(
        clients: Vec<PrismKvClient>,
        route: impl Into<MapHandle>,
        config: YcsbConfig,
        rng: SimRng,
    ) -> Self {
        let gen = YcsbGen::new(config, rng);
        Coalesced::wrap(KvDriver::routed(clients, route, gen, ()))
    }
}

/// Reclamation for a PRISM-KV reply that raced its own timeout: an
/// install chain is `[write, allocate, CAS, read-back]`, and when the
/// CAS lost, the read-back leg names the freshly allocated entry whose
/// only reference died with this reply — the machine reissued through
/// its resolve path and can never learn the address. Free it directly.
/// A won CAS leaves the buffer live in the slot, and probe/resolve
/// chains allocate nothing.
fn kv_harvest(server: usize, reply: Reply) -> Vec<Outbound> {
    let Ok(results) = reply.into_chain() else {
        return Vec::new();
    };
    if results.len() != 4 || !matches!(results[2].status, OpStatus::CasFailed) {
        return Vec::new();
    }
    match results[3].expect_data() {
        Ok(d) if d.len() == 8 => {
            harvested_free(server, u64::from_le_bytes(d.try_into().expect("8 bytes")))
        }
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Pilaf (Figures 3-4 baselines)
// ---------------------------------------------------------------------

/// Client-side CRC verification cost per Pilaf GET: the paper measures
/// ~2 µs of Pilaf's read latency as CRC work (§6.2).
pub const PILAF_CRC_COST: SimDuration = SimDuration::from_nanos(2_000);

enum PilafMachine {
    Get(PilafGetOp),
    Put,
}

/// Closed-loop YCSB client over Pilaf.
pub struct PilafAdapter {
    client: PilafClient,
    gen: YcsbGen,
    current: Option<PilafMachine>,
    /// The in-flight workload op, kept so a transport timeout can
    /// reissue it from scratch.
    op: Option<KvOp>,
    retries: u32,
}

impl PilafAdapter {
    /// Creates the adapter.
    pub fn new(client: PilafClient, config: YcsbConfig, rng: SimRng) -> Self {
        PilafAdapter {
            client,
            gen: YcsbGen::new(config, rng),
            current: None,
            op: None,
            retries: 0,
        }
    }

    fn issue(&mut self, op: KvOp) -> Vec<Outbound> {
        let key = key_bytes(op.key());
        let (machine, req) = match op {
            KvOp::Get(_) => {
                let (m, r) = self.client.get(&key);
                (PilafMachine::Get(m), r)
            }
            KvOp::Put(k) => {
                let value = self.gen.value_for(k);
                (PilafMachine::Put, self.client.put_request(&key, &value))
            }
        };
        self.current = Some(machine);
        vec![Outbound {
            server: 0,
            tag: 0,
            req,
            background: false,
            epoch: 0,
        }]
    }
}

impl ProtoAdapter for PilafAdapter {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        let op = self.gen.next_op();
        self.op = Some(op);
        self.retries = 0;
        self.issue(op)
    }

    fn resume(&mut self) -> Vec<Outbound> {
        let op = self.op.expect("op pending retry");
        self.issue(op)
    }

    fn on_reply(&mut self, _tag: u64, reply: Reply) -> AdapterStep {
        if matches!(reply, Reply::Verb(Err(_))) {
            // Synthesized timeout. Pilaf GETs are idempotent READs;
            // PUT RPCs reissued after a lost reply overwrite with the
            // same value.
            self.current = None;
            let step = retry_or_give_up(&mut self.retries, Vec::new());
            if matches!(step, AdapterStep::GiveUp { .. }) {
                self.op = None;
            }
            return step;
        }
        match self.current.take().expect("op in flight") {
            PilafMachine::Put => {
                let outcome = self.client.put_outcome(reply);
                AdapterStep::Done {
                    sends: Vec::new(),
                    client_compute: SimDuration::ZERO,
                    failed: matches!(outcome, KvOutcome::Failed(_)),
                }
            }
            PilafMachine::Get(mut m) => match m.on_reply(&self.client, reply) {
                KvStep::Send { request, .. } => {
                    self.current = Some(PilafMachine::Get(m));
                    AdapterStep::Wait(vec![Outbound {
                        server: 0,
                        tag: 0,
                        req: request,
                        background: false,
                        epoch: 0,
                    }])
                }
                KvStep::Done { outcome, .. } => AdapterStep::Done {
                    sends: Vec::new(),
                    client_compute: PILAF_CRC_COST,
                    failed: matches!(outcome, KvOutcome::Failed(_)),
                },
            },
        }
    }

    fn hedge_eligible(&self, _tag: u64) -> bool {
        // Pilaf GETs are pure one-sided READs (idempotent); PUT RPCs
        // mutate and must not race a copy of themselves.
        matches!(self.current, Some(PilafMachine::Get(_)))
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        self.current = None;
        self.op = None;
        self.retries = 0;
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// PRISM-RS (Figures 6-7)
// ---------------------------------------------------------------------

/// Closed-loop block-store client over a replicated-register protocol,
/// optionally sharded across replica groups: the one reply-handling
/// state machine for every [`RsProtocol`] (PRISM-RS and ABDLOCK).
///
/// With one client and [`ShardMap::single`] this is the 3-replica
/// adapter. With S clients, each block routes to its home *group* and
/// the quorum protocol runs inside that group unchanged. Flat server
/// indices are group-major (`group * replicas + replica`, the
/// [`crate::cluster::RsShards`] layout) and reply tags carry the flat
/// index, so a straggler of a completed op still resolves its group
/// after the client has moved on to a block elsewhere. Every attempt
/// runs under a fresh `seq`: a reissue after a failure, a fence or a
/// lock backoff alike.
pub struct RsDriver<P: RsProtocol, W, O> {
    clients: Vec<P>,
    /// The map blocks are routed by, and the cell a stale-epoch fence
    /// refetches it from.
    map: ShardMap,
    handle: MapHandle,
    /// Replicas per group (flat index stride).
    replicas: usize,
    /// Home group of the in-flight op.
    group: usize,
    source: W,
    observer: O,
    seq: u64,
    current: Option<P::Op>,
    /// Completed-but-outstanding machines by seq, each with the replies
    /// it is still owed; the reply tag's flat index names their group,
    /// so no group needs to be stored here.
    lingering: IntMap<u64, (P::Op, usize)>,
    outstanding: usize,
    /// The in-flight logical op, kept so a quorum failure can retry the
    /// whole operation under a fresh sequence number.
    op: Option<LogicalOp>,
    retries: u32,
}

impl<P: RsProtocol, W: OpSource, O: OpObserver> RsDriver<P, W, O> {
    /// Creates a driver over one client per replica group, in group
    /// order. `route` is a fixed [`ShardMap`], or the cluster's
    /// [`MapHandle`] when the map can change under the run: then an
    /// attempt fenced with [`prism_rdma::RdmaError::StaleEpoch`]
    /// refetches the map and is reissued against the block's new home
    /// group, and `clients` must cover every group the map can grow
    /// into (standby groups included).
    ///
    /// # Panics
    ///
    /// Panics if the map routes to more groups than there are clients,
    /// or the groups disagree on replica count.
    pub fn routed(clients: Vec<P>, route: impl Into<MapHandle>, source: W, observer: O) -> Self {
        let handle = route.into();
        let map = handle.snapshot();
        assert!(
            clients.len() >= map.shards(),
            "one client per replica group the map can route to, in group order"
        );
        let replicas = clients[0].n();
        assert!(
            clients.iter().all(|c| c.n() == replicas),
            "uniform replica count across groups"
        );
        RsDriver {
            clients,
            map,
            handle,
            replicas,
            group: 0,
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

    /// Starts a fresh machine for the logical op at its home group.
    fn issue(&mut self) -> Vec<Outbound> {
        self.seq += 1;
        self.outstanding = 0;
        let (block, value) = self.op.clone().expect("op set");
        self.group = self.map.shard_of_id(block);
        let client = &mut self.clients[self.group];
        let (op, step) = match value {
            Some(v) => client.put(block, v),
            None => client.get(block),
        };
        self.current = Some(op);
        self.absorb(step).0
    }

    /// Reissues `op` — same block and (for PUTs) same value, fresh
    /// sequence number, but the *same* machine: a PUT whose write phase
    /// already chose its tag must retry under that tag (see PRISM-RS's
    /// [`RsProtocol::reissue`]), or the retry could resurrect its value
    /// over a later write readers already observed. Stragglers of the
    /// abandoned attempt are parked under the old seq so their
    /// reclamation still lands. The block is routed afresh: a no-op
    /// unless a stale-epoch fence refreshed the map since the attempt
    /// started.
    fn reissue(&mut self, mut op: P::Op) -> Vec<Outbound> {
        if self.outstanding > 0 {
            self.lingering
                .insert(self.seq, (op.clone(), self.outstanding));
        }
        self.seq += 1;
        self.outstanding = 0;
        let block = self.op.as_ref().expect("op set").0;
        self.group = self.map.shard_of_id(block);
        let step = self.clients[self.group].reissue(&mut op);
        self.current = Some(op);
        self.absorb(step).0
    }

    /// Parks a machine the client is done with while replies to it are
    /// still owed: they resolve against it and their reclamation lands.
    fn park(&mut self, op: P::Op) {
        if self.outstanding > 0 {
            self.lingering.insert(self.seq, (op, self.outstanding));
        }
    }

    /// A failed attempt (quorum lost, or fenced past any map we can
    /// fetch): within the budget the machine is kept for the reissue
    /// and meanwhile absorbs this attempt's stragglers; past it the
    /// operation is given up.
    fn retry(&mut self, op: P::Op, sends: Vec<Outbound>) -> AdapterStep {
        let step = retry_or_give_up(&mut self.retries, sends);
        if matches!(step, AdapterStep::GiveUp { .. }) {
            self.park(op);
            self.observer.unresolved();
        } else {
            self.current = Some(op);
        }
        step
    }

    fn absorb(&mut self, step: RsStep) -> (Vec<Outbound>, Option<RsOutcome>) {
        let base = self.group * self.replicas;
        let mut sends = Vec::new();
        for (replica, phase, req) in step.send {
            self.outstanding += 1;
            sends.push(Outbound {
                server: base + replica,
                tag: tag(self.seq, phase, (base + replica) as u32),
                req,
                background: false,
                epoch: self.map.epoch(),
            });
        }
        for (replica, req) in step.background {
            sends.push(Outbound::new(base + replica, 0, req, true));
        }
        (sends, step.done)
    }
}

impl<P: RsProtocol, W: OpSource, O: OpObserver> ProtoAdapter for RsDriver<P, W, O> {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        let op = self.source.draw(rng);
        self.observer.invoked(&op);
        self.op = Some(op);
        self.retries = 0;
        self.issue()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        // Operation-level retry or the end of a lock backoff, on the
        // machine the attempt left.
        match self.current.take() {
            Some(op) => self.reissue(op),
            None => self.issue(),
        }
    }

    fn note_time(&mut self, now: SimTime) {
        self.observer.note_time(now);
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, idx) = untag(t);
        // The tag carries the flat server index; decompose it so a
        // straggler from a previous op still lands in its own group.
        let group = idx as usize / self.replicas;
        let replica = idx as usize % self.replicas;
        if let Some(inc) = reply.stale_incarnation() {
            // An amnesia-restarted replica fenced our pre-crash rkeys:
            // restamp them with its new incarnation so the operation-
            // level retry reaches it again (§7.2 rejoin is server-side;
            // the client only needs fresh capabilities).
            self.clients[group].refence(replica, inc);
        }
        if seq != self.seq || self.current.is_none() {
            // A reply to an attempt the client has moved on from (a
            // fence NACK among them: the machine counts it as a failed
            // leg): feed its parked machine for reclamation.
            let mut sends = Vec::new();
            let mut finished = false;
            if let Some((op, remaining)) = self.lingering.get_mut(&seq) {
                let step = self.clients[group].on_reply(op, phase, replica, reply);
                let base = group * self.replicas;
                for (r, req) in step.background {
                    sends.push(Outbound::new(base + r, 0, req, true));
                }
                *remaining -= 1;
                finished = *remaining == 0;
            }
            if finished {
                self.lingering.remove(&seq);
            }
            return AdapterStep::Wait(sends);
        }
        let mut op = self.current.take().expect("op in flight");
        self.outstanding -= 1;
        if let Some(epoch) = reply.stale_epoch() {
            // A replica fenced this attempt under a newer shard-map
            // epoch: the fenced leg never executed. Refetch the map and
            // reissue the same machine against the block's new home
            // group; a PUT that already chose its tag keeps it, so the
            // cross-group retry cannot resurrect its value over a later
            // write the new group accepted. If the fencing epoch is
            // ahead of anything we can fetch, fall back to an op-level
            // retry with backoff.
            self.handle.refresh(&mut self.map);
            if self.map.epoch() >= epoch {
                return AdapterStep::Wait(self.reissue(op));
            }
            return self.retry(op, Vec::new());
        }
        let step = self.clients[self.group].on_reply(&mut op, phase, replica, reply);
        let backoff = step.backoff_ns;
        let (sends, done) = self.absorb(step);
        match done {
            None => {
                self.current = Some(op);
                match backoff {
                    // A lock backoff keeps the machine and spends none of
                    // the transport retry budget.
                    Some(ns) => AdapterStep::Backoff {
                        sends,
                        wait: SimDuration::from_nanos(ns),
                    },
                    None => AdapterStep::Wait(sends),
                }
            }
            Some(RsOutcome::Failed(_)) => self.retry(op, sends),
            Some(outcome) => {
                self.park(op);
                self.observer.completed(match &outcome {
                    RsOutcome::Value(v) => Some(v.as_slice()),
                    _ => None,
                });
                AdapterStep::Done {
                    sends,
                    client_compute: SimDuration::ZERO,
                    failed: false,
                }
            }
        }
    }

    fn on_stale_reply(&mut self, _tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        rs_harvest(server, reply)
    }

    fn hedge_eligible(&self, t: u64) -> bool {
        // Every leg of a GET hedges where the protocol allows it
        // ([`RsProtocol::HEDGE_GETS`] says why PRISM-RS's write-back
        // may run twice). PUT legs allocate and CAS; only the reissue
        // path may duplicate them. The tag gate keeps a straggler's tag
        // from hedging after the op has moved on.
        P::HEDGE_GETS
            && untag(t).0 == self.seq
            && self.current.is_some()
            && matches!(self.op, Some((_, None)))
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // Deadline shed mid-quorum: park the machine exactly as a
        // reissue would, so stragglers of the abandoned attempt still
        // resolve against it and their reclamation traffic lands. A
        // shed PUT may have partially executed.
        if let Some(op) = self.current.take() {
            self.park(op);
        }
        self.outstanding = 0;
        self.op = None;
        self.retries = 0;
        self.observer.unresolved();
        Vec::new()
    }
}

/// The PRISM-RS and ABDLOCK figure workload (§7.4): a block from `dist`,
/// a write with probability `write_fraction`, its value stamped with a
/// fresh 64-bit nonce — three draws on the client actor's stream.
pub struct BlockMix {
    dist: KeyDist,
    block_size: usize,
    write_fraction: f64,
}

impl OpSource for BlockMix {
    fn draw(&mut self, rng: &mut SimRng) -> LogicalOp {
        let block = self.dist.sample(rng);
        let value = rng.gen_bool(self.write_fraction).then(|| {
            let mut value = vec![0u8; self.block_size];
            value[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            value
        });
        (block, value)
    }
}

/// Closed-loop block-store client over PRISM-RS (Figures 6–7): 50 %
/// reads / 50 % writes in the paper's runs, reclamation coalesced per
/// replica.
pub type PrismRsAdapter = Coalesced<RsDriver<RsClient, BlockMix, ()>>;

impl PrismRsAdapter {
    /// Creates the single-group adapter.
    pub fn new(client: RsClient, dist: KeyDist, block_size: usize, write_fraction: f64) -> Self {
        Self::sharded(
            vec![client],
            ShardMap::single(),
            dist,
            block_size,
            write_fraction,
        )
    }

    /// Creates a routed adapter over one client per replica group;
    /// `route` is a fixed map or a live handle (see
    /// [`RsDriver::routed`]).
    pub fn sharded(
        clients: Vec<RsClient>,
        route: impl Into<MapHandle>,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        let mix = BlockMix {
            dist,
            block_size,
            write_fraction,
        };
        Coalesced::wrap(RsDriver::routed(clients, route, mix, ()))
    }
}

/// Reclamation for a PRISM-RS write-phase reply that raced its own
/// timeout. The chain is `[write, allocate, CAS_GT, read-back]` and the
/// machine never saw this reply, so the free it would have emitted
/// (the write path of PRISM-RS's [`RsProtocol::on_reply`]) is produced
/// here instead: a lost CAS orphans the freshly allocated buffer; a won
/// CAS displaces the buffer previously installed in the metadata entry.
/// Read-phase chains allocate nothing, and ABDLOCK's verbs replies are
/// not chains.
fn rs_harvest(server: usize, reply: Reply) -> Vec<Outbound> {
    let Ok(results) = reply.into_chain() else {
        return Vec::new();
    };
    if results.len() != 4 {
        return Vec::new();
    }
    let addr = match &results[2].status {
        OpStatus::Ok if results[2].data.len() == 16 => {
            u64::from_le_bytes(results[2].data[8..16].try_into().expect("8 bytes"))
        }
        OpStatus::CasFailed => match results[3].expect_data() {
            Ok(d) if d.len() == 8 => u64::from_le_bytes(d.try_into().expect("8 bytes")),
            _ => 0,
        },
        _ => 0,
    };
    harvested_free(server, addr)
}

// ---------------------------------------------------------------------
// ABDLOCK (Figures 6-7 baseline)
// ---------------------------------------------------------------------

/// Closed-loop block-store client over the lock-based ABD baseline
/// (Figures 6–7): the same driver and workload as [`PrismRsAdapter`];
/// ABDLOCK sends no frees, so nothing is coalesced.
pub type AbdLockAdapter = RsDriver<AbdLockClient, BlockMix, ()>;

impl AbdLockAdapter {
    /// Creates the single-group adapter.
    pub fn new(
        client: AbdLockClient,
        dist: KeyDist,
        block_size: usize,
        write_fraction: f64,
    ) -> Self {
        let mix = BlockMix {
            dist,
            block_size,
            write_fraction,
        };
        RsDriver::routed(vec![client], ShardMap::single(), mix, ())
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

/// A transaction step's background requests, as sends owed no reply.
fn background(reqs: Vec<(usize, Request)>) -> impl Iterator<Item = Outbound> {
    reqs.into_iter()
        .map(|(shard, req)| Outbound::new(shard, 0, req, true))
}

/// Closed-loop YCSB-T client over a transaction protocol: each operation
/// is a short read-modify-write transaction retried (with backoff) until
/// it commits or fails (§8.3) — the one reply-handling loop for every
/// [`TxProtocol`].
///
/// An attempt that ends while replies to it are still owed (an abort or
/// a failure after a lost round trip) is parked under its `seq` until
/// those stragglers have arrived; a finished attempt of either protocol
/// answers them with nothing. Background traffic (PRISM-TX's buffer
/// frees and abort `C`-bumps; FaRM sends none) is emitted as is:
/// [`PrismTxAdapter`] coalesces it through [`Coalesced`].
pub struct TxDriver<P: TxProtocol> {
    client: P,
    gen: TxnGen,
    seq: u64,
    keys: Vec<u64>,
    current: Option<P::Op>,
    lingering: IntMap<u64, (P::Op, usize)>,
    outstanding: usize,
    aborts: u64,
    consecutive_aborts: u32,
    rng: SimRng,
}

impl<P: TxProtocol> TxDriver<P> {
    /// A driver whose abort backoff draws its jitter from `backoff_seed`.
    fn with_backoff_seed(client: P, gen: TxnGen, backoff_seed: u64) -> Self {
        TxDriver {
            client,
            gen,
            seq: 0,
            keys: Vec::new(),
            current: None,
            lingering: IntMap::default(),
            outstanding: 0,
            aborts: 0,
            consecutive_aborts: 0,
            rng: SimRng::new(backoff_seed),
        }
    }

    /// Total aborted attempts (diagnostics).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Begins an attempt over `self.keys`. The attempt owns the key list
    /// while it runs; an abort takes it back for the retry.
    fn begin_attempt(&mut self) -> Vec<Outbound> {
        self.seq += 1;
        self.outstanding = 0;
        let keys = std::mem::take(&mut self.keys);
        let writes: Vec<(u64, Vec<u8>)> =
            keys.iter().map(|&k| (k, self.gen.value_for(k))).collect();
        let (op, step) = self.client.begin(keys, writes);
        self.current = Some(op);
        self.absorb(step).0
    }

    /// Tags and counts the step's requests, then appends its background
    /// traffic.
    fn absorb(&mut self, step: TxStep) -> (Vec<Outbound>, Option<TxOutcome>) {
        let mut sends = Vec::with_capacity(step.send.len() + step.background.len());
        for (shard, phase, idx, req) in step.send {
            self.outstanding += 1;
            sends.push(Outbound::new(shard, tag(self.seq, phase, idx), req, false));
        }
        sends.extend(background(step.background));
        (sends, step.done)
    }

    /// Parks an attempt the client is done with while replies to it are
    /// still owed.
    fn park(&mut self, op: P::Op) {
        if self.outstanding > 0 {
            self.lingering.insert(self.seq, (op, self.outstanding));
        }
    }
}

impl<P: TxProtocol> ProtoAdapter for TxDriver<P> {
    fn start(&mut self, _rng: &mut SimRng) -> Vec<Outbound> {
        self.keys = self.gen.next_txn().keys;
        self.consecutive_aborts = 0;
        self.begin_attempt()
    }

    fn resume(&mut self) -> Vec<Outbound> {
        // Retry the same transaction after an abort backoff.
        self.begin_attempt()
    }

    fn on_reply(&mut self, t: u64, reply: Reply) -> AdapterStep {
        let (seq, phase, idx) = untag(t);
        if seq != self.seq || self.current.is_none() {
            let mut sends = Vec::new();
            if let Some((op, remaining)) = self.lingering.get_mut(&seq) {
                let step = self.client.on_reply(op, phase, idx, reply);
                *remaining -= 1;
                if *remaining == 0 {
                    self.lingering.remove(&seq);
                }
                sends.extend(background(step.background));
            }
            return AdapterStep::Wait(sends);
        }
        let mut op = self.current.take().expect("txn in flight");
        self.outstanding -= 1;
        let step = self.client.on_reply(&mut op, phase, idx, reply);
        let (sends, done) = self.absorb(step);
        let failed = match done {
            None => {
                self.current = Some(op);
                return AdapterStep::Wait(sends);
            }
            Some(TxOutcome::Aborted) => {
                self.aborts += 1;
                self.consecutive_aborts += 1;
                self.keys = P::take_read_keys(&mut op);
                self.park(op);
                // Flush reclamation traffic, back off, then retry the
                // same transaction with fresh reads; latency keeps
                // accumulating on the same closed-loop op.
                debug_assert!(sends.iter().all(|o| o.background));
                return AdapterStep::Backoff {
                    sends,
                    wait: tx_backoff(self.consecutive_aborts, &mut self.rng),
                };
            }
            Some(TxOutcome::Committed(_)) => false,
            Some(TxOutcome::Failed(_)) => true,
        };
        self.park(op);
        AdapterStep::Done {
            sends,
            client_compute: SimDuration::ZERO,
            failed,
        }
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        // Aborts retry through Backoff (never Retry), so the deadline
        // shed cannot fire today; parking keeps the straggler
        // bookkeeping exact if that ever changes.
        if let Some(op) = self.current.take() {
            self.park(op);
        }
        self.outstanding = 0;
        self.consecutive_aborts = 0;
        Vec::new()
    }
}

/// Closed-loop YCSB-T client over PRISM-TX (Figures 9–10), its buffer
/// frees coalesced.
pub type PrismTxAdapter = Coalesced<TxDriver<TxClient>>;

impl PrismTxAdapter {
    /// Creates the adapter; its backoff jitter is seeded by client id.
    pub fn new(client: TxClient, gen: TxnGen) -> Self {
        let seed = (client.cid() as u64) << 17 | 0x5A5A;
        Coalesced::wrap(TxDriver::with_backoff_seed(client, gen, seed))
    }
}

/// Closed-loop YCSB-T client over the FaRM baseline (Figures 9–10). FaRM
/// sends no frees, so nothing is coalesced.
pub type FarmAdapter = TxDriver<FarmClient>;

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
    use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
    use prism_rdma::RdmaError;
    use prism_rs::abdlock::{AbdLockCluster, AbdLockConfig};
    use prism_rs::prism_rs::RsConfig;
    use prism_tx::farm::{FarmCluster, FarmConfig};
    use prism_tx::prism_tx::{TxCluster, TxConfig};

    use super::*;
    use crate::chaos::{stamp, HistKind, HistOp, History, Recorder};
    use crate::cluster::{KvCluster, RsShards, System};
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
        driver: KvDriver<Script, Recorder>,
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
            let driver = KvDriver::routed(
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

    /// The server `out` is bound for loses its memory and restarts, so
    /// it fences the request: the rkeys are from its last incarnation.
    fn restarted_under(kv: &mut Kv, out: &Outbound) -> Reply {
        kv.cluster.amnesia_restart(out.server);
        let reply = serve(&kv.servers, out);
        assert!(reply.stale_incarnation().is_some(), "{reply:?}");
        reply
    }

    /// Branches: the three lost-round-trip arms of `KvDriver::on_reply`
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

    /// Branches: the stale-epoch arm of `KvDriver::on_reply` with a live
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
        driver: RsDriver<RsClient, Script, Recorder>,
        history: History,
        clock: u64,
    }

    impl Rs {
        fn new(script: Vec<LogicalOp>) -> Self {
            let shards =
                RsShards::with_active(4, 2, 3, &RsConfig::paper(KEYS, VALUE as u64), MAP_SEED);
            let history: History = Arc::new(Mutex::new(Vec::new()));
            let driver = RsDriver::routed(
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
            self.driver.lingering.get(&seq).map(|(_, owed)| *owed)
        }

        fn records(&self) -> Vec<HistOp> {
            self.history.lock().expect("history lock").clone()
        }
    }

    fn seq_and_phase(out: &Outbound) -> (u64, u32) {
        let (seq, phase, _) = untag(out.tag);
        (seq, phase)
    }

    /// Branches: a failed quorum under `RsDriver::on_reply` retries the
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

    /// Branches: the stale-epoch arm of `RsDriver::on_reply` — behind
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

    /// ABDLOCK on `RsDriver`: a held lock backs off (`Backoff`, never a
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
        let servers: Vec<Arc<PrismServer>> = (0..3)
            .map(|r| Arc::clone(cluster.replica(r).server()))
            .collect();
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
        adapter: Coalesced<TxDriver<P>>,
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
            servers: (0..shards)
                .map(|s| Arc::clone(cluster.shard(s).server()))
                .collect(),
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
            servers: (0..shards)
                .map(|s| Arc::clone(cluster.shard(s).server()))
                .collect(),
        };
        (cluster, tx)
    }

    fn phase_of(out: &Outbound) -> u32 {
        untag(out.tag).1
    }

    impl<P: TxProtocol> Tx<P> {
        fn driver(&self) -> &TxDriver<P> {
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

    /// Branch: `Committed` — the operation completes, nothing lingers,
    /// and PRISM-TX's free of the displaced version is held back by the
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
                assert!(tx.driver().current.is_none() && tx.driver().lingering.is_empty());
                assert_eq!(tx.driver().seq, round + 1, "{what}: one attempt each");
            }
            assert_eq!(tx.driver().aborts(), 0, "{what}");
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
        let seed = (tx.driver().client.cid() as u64) << 17 | 0x5A5A;
        let first = tx.start();
        let step = tx.adapter.on_reply(first[0].tag, timeout_reply());
        let want = tx_backoff(1, &mut SimRng::new(seed));
        assert_backoff("PRISM-TX", &step, want);
        assert_eq!(tx.driver().keys, keys);
        assert_eq!(requests(&tx.adapter.resume()), requests(&first));
        assert_eq!((tx.driver().aborts(), tx.driver().seq), (1, 2));

        let (cluster, mut tx) = farm(1, 1);
        let first = tx.start();
        let lock = tx.run_to(first.clone(), PH_FARM_LOCK);
        serve(&tx.servers, &lock[0]);
        assert_eq!(cluster.held_locks(), 1, "the lock landed");
        let unlock = wait_sends(
            "lock in doubt",
            tx.adapter.on_reply(lock[0].tag, timeout_reply()),
        );
        assert_eq!(unlock.len(), 1);
        let step = tx.leg(&unlock[0]);
        assert_backoff("FaRM", &step, tx_backoff(1, &mut SimRng::new(0xFA12)));
        assert_eq!(cluster.held_locks(), 0, "the abort released it");
        assert_eq!(tx.driver().keys, keys);
        assert_eq!(requests(&tx.adapter.resume()), requests(&first));
        assert_eq!((tx.driver().aborts(), tx.driver().seq), (1, 2));
    }

    /// Branch: `Failed` — a lost commit (PRISM-TX) or update (FaRM)
    /// reply is indeterminate: the operation ends failed, nothing
    /// lingers, and the next operation starts clean.
    #[test]
    fn tx_lost_commit_reply_ends_the_operation_failed() {
        fn check<P: TxProtocol>(what: &str, mut tx: Tx<P>, last_phase: u32) {
            let sends = tx.start();
            let last = tx.run_to(sends, last_phase);
            serve(&tx.servers, &last[0]);
            let step = tx.adapter.on_reply(last[0].tag, timeout_reply());
            assert_done(what, &step, true);
            assert!(tx.driver().current.is_none() && tx.driver().lingering.is_empty());
            let sends = tx.start();
            assert_done(what, &tx.finish(sends), false);
        }
        check("PRISM-TX", prism_tx(1, 1), PH_TX_COMMIT);
        check("FaRM", farm(1, 1).1, PH_FARM_UPDATE);
    }

    /// Branches: an attempt that ends while replies are owed is parked
    /// under its seq, and the late replies drain it without emitting
    /// anything. A three-shard transaction's last phase: the first reply
    /// lands (PRISM-TX's free of the displaced version goes to the
    /// batcher, not the wire), the second is lost (the attempt fails),
    /// the third straggles in.
    #[test]
    fn tx_parked_attempt_is_drained_by_its_late_replies() {
        fn check<P: TxProtocol>(what: &str, mut tx: Tx<P>, last_phase: u32) -> Tx<P> {
            let sends = tx.start();
            let last = tx.run_to(sends, last_phase);
            assert_eq!(last.len(), 3, "{what}: one request per shard");
            assert!(wait_sends(what, tx.leg(&last[0])).is_empty(), "{what}");
            let step = tx.adapter.on_reply(last[1].tag, timeout_reply());
            assert_done(what, &step, true);
            assert_eq!(
                tx.driver().lingering.get(&1).map(|(_, owed)| *owed),
                Some(1)
            );
            assert!(wait_sends(what, tx.leg(&last[2])).is_empty(), "{what}");
            assert!(tx.driver().lingering.is_empty(), "{what}");
            tx
        }
        let tx = check("PRISM-TX", prism_tx(3, 3), PH_TX_COMMIT);
        let held: usize = tx.adapter.frees.pending.values().map(Vec::len).sum();
        assert_eq!(held, 1, "the first commit reply's free, coalesced");
        let tx = check("FaRM", farm(3, 3).1, PH_FARM_UPDATE);
        assert!(tx.adapter.frees.pending.is_empty(), "FaRM frees nothing");
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
            harvested_free(server, 0xF00)
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
