//! Every call the benchmark makes into the repo's crates lives in this
//! file, so a later API change touches one place. The workloads
//! (`workloads.rs`) are written against the wrappers and re-exports
//! here; nothing else in the package names a `prism_*` crate.
//!
//! The layers are measured from outside, through public functions only:
//! `execute_local`, `Request::encode_epoch`/`decode_epoch`,
//! `Reply::encode`/`decode`, `run_closed_loop_with`, `run_open_loop`,
//! `check_history`, and wrappers over the public `Actor<M>` and
//! `ProtoAdapter` traits.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prism_core::integrity::IntegrityStats;
use prism_core::msg::{execute_local, Reply, Request};
use prism_core::PrismServer;
use prism_harness::adapters::{PrismKvAdapter, PrismTxAdapter};
use prism_harness::chaos::{check_history, ChaosRsAdapter, HistKind, HistOp};
use prism_harness::kv_exp::preload_prism;
use prism_harness::netsim::{
    run_closed_loop_with, AdapterStep, ClientActor, Outbound, ProtoAdapter, RecoveryHooks,
    RunResult, ServerActor, SimMsg, VerbPath,
};
use prism_harness::openloop::{
    run_open_loop, AdapterFactory, OpenLoopActor, OpenLoopConfig, OpenLoopResult, CONNECTION_BUDGET,
};
use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{GetOp, PrismKvClient, PrismKvConfig, PrismKvServer, PutOp};
use prism_kv::KvStep;
use prism_rdma::Rkey;
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_simnet::engine::{Actor, ActorId, Context, Simulation};
use prism_simnet::fault::{ChaosSpec, FaultPlan, TailPolicy};
use prism_simnet::latency::CostModel;
use prism_simnet::metrics::{Histogram, Metrics};
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_store::Record;
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::openloop::ArrivalSpec;
use prism_workload::ycsb::{YcsbConfig, YcsbGen};
use prism_workload::{KeyDist, TxnGen};

use crate::trace::{Probe, Span, Tracer};

pub use prism_kv::KvOutcome;
pub use prism_workload::ycsb::KvOp;

/// The seeded operation stream [`ycsb_stream`] returns.
pub type YcsbStream = YcsbGen;

// ---------------------------------------------------------------------
// Live mode: PRISM-KV behind the framed loopback
// ---------------------------------------------------------------------

/// What one class of live op (GET or PUT) put on the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveCounters {
    pub ops: u64,
    /// Requests that waited for a reply.
    pub round_trips: u64,
    /// Fire-and-forget requests (buffer reclamation).
    pub background: u64,
    /// Encoded request plus reply bytes.
    pub frame_bytes: u64,
    /// PRISM primitives executed across all requests.
    pub chain_ops: u64,
}

/// The GET and PUT machines share an `on_reply` shape but no trait in
/// `prism_kv`; this lets one loop drive both.
trait KvMachine {
    fn feed(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep;
}

impl KvMachine for GetOp {
    fn feed(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        self.on_reply(c, reply)
    }
}

impl KvMachine for PutOp {
    fn feed(&mut self, c: &PrismKvClient, reply: Reply) -> KvStep {
        self.on_reply(c, reply)
    }
}

/// A live PRISM-KV store with one connected client.
pub struct LiveKv {
    kv: PrismKvServer,
    client: PrismKvClient,
    n_keys: u64,
    pub get: LiveCounters,
    pub put: LiveCounters,
}

/// Log size of a live store's durable tier.
pub struct StoreStats {
    pub log_bytes: u64,
    pub segments: u64,
}

/// Host cost of the one-sided verbs on a live store's own arena.
pub struct RdmaProbe {
    pub read_512_ns: f64,
    pub write_512_ns: f64,
    pub cas64_ns: f64,
}

impl LiveKv {
    /// Builds the store at the paper's configuration and preloads every
    /// key (the YCSB load phase), so GETs always hit.
    pub fn build(n_keys: u64, value_len: usize) -> Self {
        let kv = PrismKvServer::new(&PrismKvConfig::paper(n_keys, value_len));
        preload_prism(&kv, n_keys, value_len);
        let client = kv.open_client();
        LiveKv {
            kv,
            client,
            n_keys,
            get: LiveCounters::default(),
            put: LiveCounters::default(),
        }
    }

    /// One framed request that waits for its reply: `encode_epoch →
    /// decode_epoch → execute_local → Reply::encode → Reply::decode`.
    fn round_trip<P: Probe>(
        p: &mut P,
        server: &PrismServer,
        req: &Request,
        execute: Span,
        c: &mut LiveCounters,
    ) -> Result<Reply, String> {
        let t0 = p.now();
        let frame = req.encode_epoch(0).map_err(|e| e.to_string())?;
        let t1 = p.now();
        let (_epoch, decoded) = Request::decode_epoch(&frame).map_err(|e| e.to_string())?;
        let t2 = p.now();
        let reply = execute_local(server, &decoded);
        let t3 = p.now();
        let reply_frame = reply.encode().map_err(|e| e.to_string())?;
        let t4 = p.now();
        let out = Reply::decode(&reply_frame).map_err(|e| e.to_string())?;
        let t5 = p.now();
        p.leaf(Span::WireReqEncode, t0, t1);
        p.leaf(Span::WireReqDecode, t1, t2);
        p.leaf(execute, t2, t3);
        p.leaf(Span::WireReplyEncode, t3, t4);
        p.leaf(Span::WireReplyDecode, t4, t5);
        c.round_trips += 1;
        c.frame_bytes += (frame.len() + reply_frame.len()) as u64;
        c.chain_ops += decoded.chain_ops();
        Ok(out)
    }

    /// One framed fire-and-forget request: executed, reply discarded
    /// unencoded (nothing travels back).
    fn background<P: Probe>(
        p: &mut P,
        server: &PrismServer,
        req: &Request,
        c: &mut LiveCounters,
    ) -> Result<(), String> {
        let t0 = p.now();
        let frame = req.encode_epoch(0).map_err(|e| e.to_string())?;
        let t1 = p.now();
        let (_epoch, decoded) = Request::decode_epoch(&frame).map_err(|e| e.to_string())?;
        let t2 = p.now();
        black_box(execute_local(server, &decoded));
        let t3 = p.now();
        p.leaf(Span::WireReqEncode, t0, t1);
        p.leaf(Span::WireReqDecode, t1, t2);
        p.leaf(Span::CoreExecuteBackground, t2, t3);
        c.background += 1;
        c.frame_bytes += frame.len() as u64;
        c.chain_ops += decoded.chain_ops();
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn drive<P: Probe>(
        p: &mut P,
        server: &PrismServer,
        client: &PrismKvClient,
        mut op: impl KvMachine,
        first: Request,
        execute: Span,
        on_reply: Span,
        c: &mut LiveCounters,
    ) -> Result<KvOutcome, String> {
        c.ops += 1;
        let mut reply = Self::round_trip(p, server, &first, execute, c)?;
        loop {
            let t0 = p.now();
            let step = op.feed(client, reply);
            let t1 = p.now();
            p.leaf(on_reply, t0, t1);
            match step {
                KvStep::Send {
                    request,
                    background,
                } => {
                    if let Some(b) = background {
                        Self::background(p, server, &b, c)?;
                    }
                    reply = Self::round_trip(p, server, &request, execute, c)?;
                }
                KvStep::Done {
                    outcome,
                    background,
                } => {
                    if let Some(b) = background {
                        Self::background(p, server, &b, c)?;
                    }
                    return Ok(outcome);
                }
            }
        }
    }

    /// One GET through the framed path. `Err` is a frame that failed to
    /// round-trip, which on a loopback is a wire-codec bug.
    pub fn get<P: Probe>(&mut self, p: &mut P, key: u64) -> Result<KvOutcome, String> {
        let t0 = p.now();
        let (op, first) = self.client.get(&key_bytes(key));
        let t1 = p.now();
        p.leaf(Span::KvGetBuild, t0, t1);
        Self::drive(
            p,
            self.kv.server(),
            &self.client,
            op,
            first,
            Span::CoreExecuteGet,
            Span::KvGetOnReply,
            &mut self.get,
        )
    }

    /// One PUT through the framed path.
    pub fn put<P: Probe>(
        &mut self,
        p: &mut P,
        key: u64,
        value: &[u8],
    ) -> Result<KvOutcome, String> {
        let t0 = p.now();
        let (op, first) = self.client.put(&key_bytes(key), value);
        let t1 = p.now();
        p.leaf(Span::KvPutBuild, t0, t1);
        Self::drive(
            p,
            self.kv.server(),
            &self.client,
            op,
            first,
            Span::CoreExecutePut,
            Span::KvPutOnReply,
            &mut self.put,
        )
    }

    /// Crashes the store with amnesia and recovers it from its segment
    /// log. The unsynced tail of every log file is torn off first, so
    /// what survives is what `barrier()` made durable and nothing else.
    /// Returns the records replay reinstalled; the client reconnects
    /// under the new incarnation.
    pub fn crash_and_replay(&mut self, seed: u64) -> u64 {
        self.kv.disk().tear_tail(&mut SimRng::new(seed));
        let before = self.kv.durable_stats().replayed();
        self.kv.amnesia_restart();
        self.client = self.kv.open_client();
        self.kv.durable_stats().replayed() - before
    }

    pub fn store_stats(&self) -> StoreStats {
        let disk = self.kv.disk();
        let names = disk.list("kv/seg-");
        StoreStats {
            log_bytes: names.iter().filter_map(|n| disk.len(n)).sum::<usize>() as u64,
            segments: names.len() as u64,
        }
    }

    /// Mean ns of `n` `append` + `barrier` pairs on this store's log at
    /// its present length. Probe records carry keys past the table, so
    /// a replay ignores them.
    pub fn probe_store_append(&self, n: u64, value_len: usize) -> f64 {
        let store = self.kv.store();
        let rec = Record {
            epoch: 0,
            inc: 0,
            key: self.n_keys,
            payload: vec![0xA5; value_len + 16],
        };
        let t0 = Instant::now();
        for _ in 0..n {
            store.append(black_box(&rec));
            store.barrier();
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    }

    /// Times the one-sided verbs through `server.nic()` at the entries
    /// of `keys` (drawn by the caller from the workload's own key
    /// distribution). The WRITE stores back the bytes just read and the
    /// CAS swaps a slot word for itself, so the store is left intact.
    pub fn probe_rdma(&self, keys: &[u64]) -> Option<RdmaProbe> {
        let view = self.client.view();
        let nic = self.kv.server().nic();
        let rkey = Rkey(view.data_rkey);
        let len = 512.min(view.max_entry_len as u64);
        let mut targets = Vec::with_capacity(keys.len());
        for &k in keys {
            let slot = view.slot_addr(k);
            let word = nic.read(rkey, slot, 8).ok()?;
            let ptr = u64::from_le_bytes(word.try_into().ok()?);
            targets.push((slot, ptr));
        }
        let n = targets.len().max(1) as f64;
        let t0 = Instant::now();
        let mut images = Vec::with_capacity(targets.len());
        for &(_, ptr) in &targets {
            images.push(nic.read(rkey, ptr, len).ok()?);
        }
        let t1 = Instant::now();
        for (&(_, ptr), image) in targets.iter().zip(&images) {
            nic.write(rkey, ptr, image).ok()?;
        }
        let t2 = Instant::now();
        for &(slot, ptr) in &targets {
            black_box(nic.cas64(rkey, slot, ptr, ptr).ok()?);
        }
        let t3 = Instant::now();
        Some(RdmaProbe {
            read_512_ns: (t1 - t0).as_nanos() as f64 / n,
            write_512_ns: (t2 - t1).as_nanos() as f64 / n,
            cas64_ns: (t3 - t2).as_nanos() as f64 / n,
        })
    }
}

/// A seeded YCSB stream: `read_fraction` GETs, the rest PUTs, keys
/// Zipf-`theta` over `n_keys` (`theta == 0` is uniform).
pub fn ycsb_stream(
    n_keys: u64,
    theta: f64,
    read_fraction: f64,
    value_len: usize,
    seed: u64,
) -> YcsbStream {
    YcsbGen::new(
        YcsbConfig {
            dist: KeyDist::zipf(n_keys, theta),
            read_fraction,
            value_len,
        },
        SimRng::new(seed),
    )
}

// ---------------------------------------------------------------------
// Sim mode: traced wrappers over the public actor and adapter traits
// ---------------------------------------------------------------------

/// The traced run's recorder plus the counts taken at the same
/// boundaries, shared by every wrapper of one process (the simulation
/// is single-threaded by construction).
#[derive(Default)]
pub struct SimTrace {
    pub tracer: Tracer,
    /// Messages the DES kernel delivered to actors.
    pub events: u64,
    pub server_msgs: u64,
    pub client_msgs: u64,
    pub adapter_calls: u64,
    /// Requests adapters handed to their transport.
    pub outbound: u64,
}

pub type SharedTrace = Rc<RefCell<SimTrace>>;

/// Runs `f` inside a span on the shared recorder. The borrow is not
/// held across `f`, so spans nest (an adapter call inside a client
/// actor inside `des.run`).
pub fn in_span<R>(trace: &SharedTrace, span: Span, f: impl FnOnce() -> R) -> R {
    {
        let mut t = trace.borrow_mut();
        let now = t.tracer.now();
        t.tracer.open(span, now);
    }
    let out = f();
    let mut t = trace.borrow_mut();
    let now = t.tracer.now();
    t.tracer.close(now);
    out
}

/// An actor with a span around each callback. It forwards everything
/// and draws no randomness, so the simulation is unperturbed.
struct TracedActor<A> {
    inner: A,
    span: Span,
    trace: SharedTrace,
}

impl<A: Actor<SimMsg>> Actor<SimMsg> for TracedActor<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, SimMsg>) {
        in_span(&self.trace, self.span, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, msg: SimMsg, ctx: &mut Context<'_, SimMsg>) {
        {
            let mut t = self.trace.borrow_mut();
            t.events += 1;
            if self.span == Span::ServerActor {
                t.server_msgs += 1;
            } else {
                t.client_msgs += 1;
            }
            // No request id is visible from outside the actors, so the
            // delivery index stands in as the op id of a sim span.
            let op = t.events;
            t.tracer.set_op(op);
            let now = t.tracer.now();
            t.tracer.open(self.span, now);
        }
        self.inner.on_message(msg, ctx);
        let mut t = self.trace.borrow_mut();
        let now = t.tracer.now();
        t.tracer.close(now);
    }
}

/// A protocol adapter with a span around each call.
struct TracedAdapter {
    inner: Box<dyn ProtoAdapter>,
    trace: SharedTrace,
}

impl TracedAdapter {
    fn call<R>(&mut self, f: impl FnOnce(&mut dyn ProtoAdapter) -> R, sent: fn(&R) -> usize) -> R {
        let inner = &mut *self.inner;
        let out = in_span(&self.trace, Span::AdapterCall, || f(inner));
        let mut t = self.trace.borrow_mut();
        t.adapter_calls += 1;
        t.outbound += sent(&out) as u64;
        out
    }
}

fn step_sends(step: &AdapterStep) -> usize {
    match step {
        AdapterStep::Wait(sends)
        | AdapterStep::Done { sends, .. }
        | AdapterStep::Backoff { sends, .. }
        | AdapterStep::Retry { sends, .. }
        | AdapterStep::GiveUp { sends } => sends.len(),
    }
}

impl ProtoAdapter for TracedAdapter {
    fn start(&mut self, rng: &mut SimRng) -> Vec<Outbound> {
        self.call(|a| a.start(rng), Vec::len)
    }

    fn resume(&mut self) -> Vec<Outbound> {
        self.call(|a| a.resume(), Vec::len)
    }

    fn on_reply(&mut self, tag: u64, reply: Reply) -> AdapterStep {
        self.call(|a| a.on_reply(tag, reply), step_sends)
    }

    // A clock note precedes every other call; it is forwarded unspanned
    // so one adapter call costs one span, not two.
    fn note_time(&mut self, now: SimTime) {
        self.inner.note_time(now);
    }

    fn on_stale_reply(&mut self, tag: u64, server: usize, reply: Reply) -> Vec<Outbound> {
        self.call(|a| a.on_stale_reply(tag, server, reply), Vec::len)
    }

    fn hedge_eligible(&self, tag: u64) -> bool {
        self.inner.hedge_eligible(tag)
    }

    fn abandon(&mut self) -> Vec<Outbound> {
        self.call(|a| a.abandon(), Vec::len)
    }
}

fn traced_adapter(
    trace: &SharedTrace,
    make: impl FnOnce() -> Box<dyn ProtoAdapter>,
) -> Box<dyn ProtoAdapter> {
    let inner = in_span(trace, Span::AdapterBuild, make);
    Box::new(TracedAdapter {
        inner,
        trace: Rc::clone(trace),
    })
}

fn traced_servers(
    sim: &mut Simulation<SimMsg>,
    servers: &[Arc<PrismServer>],
    faults: &FaultPlan,
    hooks: &RecoveryHooks,
    trace: &SharedTrace,
) -> Vec<ActorId> {
    servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            sim.add_actor(Box::new(TracedActor {
                inner: ServerActor::new(
                    Arc::clone(s),
                    CostModel::testbed(),
                    VerbPath::Nic,
                    i,
                    faults.clone(),
                    hooks.clone(),
                ),
                span: Span::ServerActor,
                trace: Rc::clone(trace),
            }))
        })
        .collect()
}

/// Warm-up, counter reset, measurement: the run phase shared by the
/// closed- and open-loop drivers, with `des.run` around each `run_for`.
fn traced_run(
    sim: &mut Simulation<SimMsg>,
    warmup: SimDuration,
    measure: SimDuration,
    hooks: &RecoveryHooks,
    trace: &SharedTrace,
) {
    in_span(trace, Span::DesRun, || sim.run_for(warmup));
    sim.metrics_mut().reset();
    if let Some(integrity) = &hooks.integrity {
        integrity.reset();
    }
    if let Some(durable) = &hooks.durable {
        durable.reset();
    }
    in_span(trace, Span::DesRun, || sim.run_for(measure));
}

/// `run_closed_loop_with`, rebuilt from the public constructors with a
/// traced wrapper around each actor and adapter. Same registration
/// order, seeds and phases, so its [`RunResult`] equals the untraced
/// one bit for bit — which the workloads check on every traced run.
#[allow(clippy::too_many_arguments)]
fn closed_loop_traced(
    servers: &[Arc<PrismServer>],
    n_clients: usize,
    mk_adapter: &mut dyn FnMut(usize) -> Box<dyn ProtoAdapter>,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
    faults: &FaultPlan,
    hooks: &RecoveryHooks,
    trace: &SharedTrace,
) -> RunResult {
    let mut sim = in_span(trace, Span::SimBuild, || {
        faults.validate(servers.len(), n_clients);
        let mut sim: Simulation<SimMsg> = Simulation::new(seed);
        let server_ids = traced_servers(&mut sim, servers, faults, hooks, trace);
        for i in 0..n_clients {
            let adapter = traced_adapter(trace, || mk_adapter(i));
            sim.add_actor(Box::new(TracedActor {
                inner: ClientActor::new(
                    adapter,
                    server_ids.clone(),
                    CostModel::testbed(),
                    SimRng::new(seed ^ ((i as u64 + 1) << 20)),
                    i,
                    faults.clone(),
                ),
                span: Span::ClientActor,
                trace: Rc::clone(trace),
            }));
        }
        sim
    });
    traced_run(&mut sim, warmup, measure, hooks, trace);
    in_span(trace, Span::ResultExtract, || {
        closed_loop_result(sim.metrics(), n_clients, measure, hooks)
    })
}

/// The [`RunResult`] `run_closed_loop_with` derives from a finished
/// simulation's counters, field for field.
fn closed_loop_result(
    metrics: &Metrics,
    clients: usize,
    measure: SimDuration,
    hooks: &RecoveryHooks,
) -> RunResult {
    let (val_detected, val_repaired, val_aborted) = hooks
        .integrity
        .as_ref()
        .map_or((0, 0, 0), |s| (s.detected(), s.repaired(), s.aborted()));
    let (replayed, delta_resynced, segments_truncated) =
        hooks.durable.as_ref().map_or((0, 0, 0), |d| {
            (d.replayed(), d.delta_resynced(), d.segments_truncated())
        });
    let (mean_us, p99_us) = metrics
        .histogram("lat")
        .map_or((0.0, 0.0), |h| (h.mean_micros(), h.quantile_micros(0.99)));
    let c = |name| metrics.counter(name);
    RunResult {
        clients,
        tput_ops: c("ops") as f64 / measure.as_micros_f64() * 1e6,
        mean_us,
        p99_us,
        failed: c("failed"),
        backoffs: c("backoffs"),
        drops: c("fault_drops"),
        dups: c("fault_dups"),
        timeouts: c("timeouts"),
        retries: c("retries"),
        crash_drops: c("fault_crash_drops"),
        giveups: c("giveups"),
        fenced: c("fault_fenced"),
        epoch_fenced: c("epoch_fenced"),
        stale_harvested: c("stale_harvested"),
        restarts: c("fault_restarts"),
        client_restarts: c("fault_client_restarts"),
        corruptions_injected: c("fault_corrupt_injected"),
        corruptions_detected: c("fault_corrupt_detected") + val_detected,
        corruptions_repaired: c("fault_corrupt_repaired") + val_repaired,
        aborted_corrupt: c("fault_corrupt_aborted") + val_aborted,
        replayed,
        delta_resynced,
        segments_truncated,
        disk_tears: c("fault_disk_tears"),
        hedges: c("hedges"),
        hedge_wins: c("hedge_wins"),
        shed: c("shed"),
        busy_nacks: c("busy_nacks"),
        slowdown_windows: c("fault_slowdown_hits"),
    }
}

/// `run_open_loop`, rebuilt the same way (see [`closed_loop_traced`]).
fn open_loop_traced(
    servers: &[Arc<PrismServer>],
    cfg: &OpenLoopConfig,
    factory: AdapterFactory,
    trace: &SharedTrace,
) -> OpenLoopResult {
    let hooks = RecoveryHooks::default();
    let mut sim = in_span(trace, Span::SimBuild, || {
        cfg.faults.validate(servers.len(), cfg.actors);
        let mut sim: Simulation<SimMsg> = Simulation::new(cfg.seed);
        let server_ids = traced_servers(&mut sim, servers, &cfg.faults, &hooks, trace);
        let traced_factory: AdapterFactory = {
            let trace = Rc::clone(trace);
            Rc::new(RefCell::new(move |slot: usize| {
                traced_adapter(&trace, || (factory.borrow_mut())(slot))
            }))
        };
        let inflight = if cfg.max_inflight == 0 {
            cfg.logical_clients
        } else {
            cfg.logical_clients.min(cfg.max_inflight)
        }
        .max(cfg.actors);
        let per = inflight / cfg.actors;
        let extra = inflight % cfg.actors;
        let mut slot_base = 0;
        for i in 0..cfg.actors {
            let max_slots = per + usize::from(i < extra);
            sim.add_actor(Box::new(TracedActor {
                inner: OpenLoopActor::new(
                    cfg.arrivals.build(i, cfg.actors, cfg.seed),
                    Rc::clone(&traced_factory),
                    max_slots,
                    slot_base,
                    server_ids.clone(),
                    CostModel::testbed(),
                    SimRng::new(cfg.seed ^ ((i as u64 + 1) << 20)),
                    i,
                    cfg.faults.clone(),
                ),
                span: Span::ClientActor,
                trace: Rc::clone(trace),
            }));
            slot_base += max_slots;
        }
        sim
    });
    traced_run(&mut sim, cfg.warmup, cfg.measure, &hooks, trace);
    in_span(trace, Span::ResultExtract, || {
        let metrics = sim.metrics();
        let completed = metrics.counter("ops");
        let (mean_us, p50_us, p99_us, p999_us, max_us) =
            metrics
                .histogram("lat")
                .map_or((0.0, 0.0, 0.0, 0.0, 0.0), |h| {
                    (
                        h.mean_micros(),
                        h.quantile_micros(0.50),
                        h.quantile_micros(0.99),
                        h.quantile_micros(0.999),
                        h.max_micros(),
                    )
                });
        let c = |name| metrics.counter(name);
        OpenLoopResult {
            actors: cfg.actors,
            logical_clients: cfg.logical_clients,
            completed,
            tput_ops: completed as f64 / cfg.measure.as_micros_f64() * 1e6,
            mean_us,
            p50_us,
            p99_us,
            p999_us,
            max_us,
            failed: c("failed"),
            timeouts: c("timeouts"),
            retries: c("retries"),
            backoffs: c("backoffs"),
            giveups: c("giveups"),
            backlogged: c("ol_backlogged"),
            drops: c("fault_drops"),
            shed: c("shed"),
            busy_nacks: c("busy_nacks"),
        }
    })
}

/// Simulated-clock outcome of one closed- or open-loop point, in the
/// shape the workloads report. `bits` folds every field of the repo's
/// own result struct (through its `Debug` form, so a field added later
/// is covered without a change here) and is what the determinism and
/// traced-equals-untraced checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    pub completed: u64,
    pub failed: u64,
    pub tput_mops: f64,
    pub mean_us: f64,
    pub p99_us: f64,
    pub timeouts: u64,
    pub retries: u64,
    pub backoffs: u64,
    pub giveups: u64,
    pub backlogged: u64,
    pub stale_harvested: u64,
    pub busy_nacks: u64,
    pub restarts: u64,
    pub replayed: u64,
    pub delta_resynced: u64,
    pub corruptions_detected: u64,
    pub bits: u64,
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis: the fold's starting value.
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn closed_point(r: &RunResult, measure: SimDuration) -> SimPoint {
    SimPoint {
        completed: (r.tput_ops * measure.as_micros_f64() / 1e6).round() as u64,
        // `failed` already includes give-ups and shed ops.
        failed: r.failed,
        tput_mops: r.tput_ops / 1e6,
        mean_us: r.mean_us,
        p99_us: r.p99_us,
        timeouts: r.timeouts,
        retries: r.retries,
        backoffs: r.backoffs,
        giveups: r.giveups,
        backlogged: 0,
        stale_harvested: r.stale_harvested,
        busy_nacks: r.busy_nacks,
        restarts: r.restarts,
        replayed: r.replayed,
        delta_resynced: r.delta_resynced,
        corruptions_detected: r.corruptions_detected,
        bits: fold_bytes(FOLD_SEED, format!("{r:?}").as_bytes()),
    }
}

fn open_point(r: &OpenLoopResult) -> SimPoint {
    SimPoint {
        completed: r.completed,
        failed: r.failed,
        tput_mops: r.tput_ops / 1e6,
        mean_us: r.mean_us,
        p99_us: r.p99_us,
        timeouts: r.timeouts,
        retries: r.retries,
        backoffs: r.backoffs,
        giveups: r.giveups,
        backlogged: r.backlogged,
        stale_harvested: 0,
        busy_nacks: r.busy_nacks,
        restarts: 0,
        replayed: 0,
        delta_resynced: 0,
        corruptions_detected: 0,
        bits: fold_bytes(FOLD_SEED, format!("{r:?}").as_bytes()),
    }
}

// ---------------------------------------------------------------------
// sim_tx_closed: PRISM-TX under closed-loop YCSB-T
// ---------------------------------------------------------------------

/// Sizes of one `sim_tx_closed` run.
#[derive(Debug, Clone, Copy)]
pub struct TxClosedSpec {
    pub n_keys: u64,
    pub value_len: usize,
    pub clients: usize,
    pub zipf_theta: f64,
    pub warmup_us: u64,
    pub measure_us: u64,
}

/// A single-shard PRISM-TX cluster, provisioned as `tx_exp` does.
/// Built fresh for every run: a cluster reused across closed-loop runs
/// wedges on the prepares its previous clients abandoned.
pub fn tx_build(spec: &TxClosedSpec) -> TxCluster {
    let mut config = TxConfig::paper(spec.n_keys, spec.value_len as u64);
    config.spare_buffers += 32 * (spec.clients as u64 + 16);
    TxCluster::new(1, &config)
}

/// One closed-loop run on a pristine fabric (`FaultPlan::default()`:
/// the fault layer is bypassed). Traced when `trace` is given.
pub fn tx_run(
    cluster: &TxCluster,
    spec: &TxClosedSpec,
    seed: u64,
    trace: Option<&SharedTrace>,
) -> SimPoint {
    let servers = vec![Arc::clone(cluster.shard(0).server())];
    let mut mk_adapter = |i: usize| {
        let gen = TxnGen::new(
            KeyDist::zipf(spec.n_keys, spec.zipf_theta),
            1,
            spec.value_len,
            SimRng::new(seed ^ ((i as u64 + 1) * 31)),
        );
        Box::new(PrismTxAdapter::new(cluster.open_client(), gen)) as Box<dyn ProtoAdapter>
    };
    let warmup = SimDuration::micros(spec.warmup_us);
    let measure = SimDuration::micros(spec.measure_us);
    let faults = FaultPlan::default();
    let hooks = RecoveryHooks::default();
    let r = match trace {
        None => run_closed_loop_with(
            &servers,
            &CostModel::testbed(),
            VerbPath::Nic,
            spec.clients,
            &mut mk_adapter,
            warmup,
            measure,
            seed,
            &faults,
            &hooks,
        ),
        Some(trace) => closed_loop_traced(
            &servers,
            spec.clients,
            &mut mk_adapter,
            warmup,
            measure,
            seed,
            &faults,
            &hooks,
            trace,
        ),
    };
    closed_point(&r, measure)
}

// ---------------------------------------------------------------------
// sim_kv_open_1m: PRISM-KV under an open-loop Poisson sweep
// ---------------------------------------------------------------------

/// Sizes of one `sim_kv_open_1m` sweep.
#[derive(Debug, Clone)]
pub struct KvOpenSpec {
    pub n_keys: u64,
    pub value_len: usize,
    pub logical_clients: usize,
    pub actors: usize,
    pub rates_mops: Vec<f64>,
    pub warmup_us: u64,
    pub measure_us: u64,
}

/// The store of an open-loop sweep, preloaded, with spares for the
/// slots that can be live at once (as `kv_exp::open_loop` sizes it).
pub fn kv_open_build(spec: &KvOpenSpec) -> Rc<PrismKvServer> {
    let mut config = PrismKvConfig::paper(spec.n_keys, spec.value_len);
    let live_slots = spec.logical_clients.min(CONNECTION_BUDGET) as u64;
    for class in &mut config.classes {
        class.count += 32 * (live_slots + 16);
    }
    let kv = Rc::new(PrismKvServer::new(&config));
    preload_prism(&kv, spec.n_keys, spec.value_len);
    kv
}

/// One offered-rate point (`k`-th of the sweep) on the shared store,
/// 100 % GET uniform; connections are hung up afterwards so the next
/// point reopens from the recycled pool, as `sweep_rates` does.
pub fn kv_open_point(
    kv: &Rc<PrismKvServer>,
    spec: &KvOpenSpec,
    k: usize,
    seed: u64,
    trace: Option<&SharedTrace>,
) -> SimPoint {
    let servers = vec![Arc::clone(kv.server())];
    let ycsb = YcsbConfig {
        dist: KeyDist::uniform(spec.n_keys),
        read_fraction: 1.0,
        value_len: spec.value_len,
    };
    let store = Rc::clone(kv);
    let factory: AdapterFactory = Rc::new(RefCell::new(move |i: usize| {
        Box::new(PrismKvAdapter::new(
            store.open_client(),
            ycsb.clone(),
            SimRng::new(seed ^ ((i as u64 + 1) * 7919)),
        )) as Box<dyn ProtoAdapter>
    }));
    let cfg = OpenLoopConfig {
        arrivals: ArrivalSpec::Poisson {
            rate_per_sec: spec.rates_mops[k] * 1e6,
        },
        logical_clients: spec.logical_clients,
        max_inflight: CONNECTION_BUDGET,
        actors: spec.actors,
        warmup: SimDuration::micros(spec.warmup_us),
        measure: SimDuration::micros(spec.measure_us),
        seed: seed ^ ((k as u64 + 1) << 40),
        faults: FaultPlan::default(),
    };
    let r = match trace {
        None => run_open_loop(
            &servers,
            &CostModel::testbed(),
            VerbPath::Nic,
            &cfg,
            factory,
            &RecoveryHooks::default(),
        ),
        Some(trace) => open_loop_traced(&servers, &cfg, factory, trace),
    };
    for s in &servers {
        s.close_all_connections();
    }
    open_point(&r)
}

// ---------------------------------------------------------------------
// sim_rs_chaos: gate-scale adversity on a replicated register
// ---------------------------------------------------------------------

const CHAOS_BLOCKS: u64 = 8;
const CHAOS_VALUE: usize = 64;
const CHAOS_CLIENTS: usize = 6;
const CHAOS_WARMUP: SimDuration = SimDuration::from_nanos(400_000);
const CHAOS_MEASURE: SimDuration = SimDuration::from_nanos(2_400_000);
const CHAOS_HORIZON: SimDuration = SimDuration::from_nanos(2_800_000);

/// The `ChaosSpec` of `tests/chaos_gate.rs::rs_chaos`: amnesia crashes,
/// a client crash, a partition, loss, duplication, jitter, flips on
/// both legs, torn writes, disk tears and at-rest rot.
fn chaos_spec() -> ChaosSpec {
    ChaosSpec {
        servers: 3,
        clients: CHAOS_CLIENTS,
        horizon: CHAOS_HORIZON,
        server_crashes: 2,
        amnesia_fraction: 1.0,
        client_crashes: 1,
        partitions: 1,
        drop_prob: 0.01,
        dup_prob: 0.005,
        jitter_ns: 1_000,
        flip_req_prob: 0.01,
        flip_reply_prob: 0.01,
        torn_write_prob: 0.05,
        disk_torn_prob: 0.9,
        disk_rot_events: 2,
        slowdowns: 0,
        slowdown_factor: 0,
        reply_partitions: 0,
        flaps: 0,
        tail: TailPolicy::default(),
    }
}

/// The seeded fault schedule of one chaos episode.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::chaos(seed, &chaos_spec());
    plan.timeout = SimDuration::micros(60);
    plan
}

/// What one chaos episode produced.
pub struct Episode {
    pub point: SimPoint,
    /// Operations the clients invoked (the recorded history's length).
    pub invoked: u64,
    /// Of those, operations that completed.
    pub completed: u64,
    pub rejoins: u64,
    /// `Err` names the first non-linearizable register.
    pub linearizable: Result<(), String>,
    /// Host ns spent in `check_history`.
    pub check_ns: u64,
}

fn fold_history(history: &[HistOp]) -> u64 {
    let mut h = FOLD_SEED;
    for op in history {
        let (kind, nonce) = match op.kind {
            HistKind::Get { nonce } => (0u64, nonce),
            HistKind::Put { nonce } => (1u64, nonce),
        };
        for word in [
            op.client as u64,
            op.key,
            op.invoke.as_nanos(),
            op.complete.map_or(u64::MAX, SimTime::as_nanos),
            kind,
            nonce,
        ] {
            h = fold_bytes(h, &word.to_le_bytes());
        }
    }
    h
}

/// One episode as the chaos gate runs it: a fresh 3-replica cluster,
/// six closed-loop clients recording a history, the gate's recovery
/// hooks, then the Wing–Gong check on the recorded history.
pub fn chaos_episode(seed: u64, plan: &FaultPlan, trace: Option<&SharedTrace>) -> Episode {
    let build = || {
        let cluster = Arc::new(RsCluster::new(
            3,
            &RsConfig::paper(CHAOS_BLOCKS, CHAOS_VALUE as u64),
        ));
        let servers: Vec<_> = (0..3)
            .map(|i| Arc::clone(cluster.replica(i).server()))
            .collect();
        let integrity = Arc::new(IntegrityStats::new());
        let hooks = RecoveryHooks {
            on_restart: Some({
                let cluster = Arc::clone(&cluster);
                Arc::new(move |i| {
                    cluster.amnesia_restart(i);
                })
            }),
            sweep: None,
            integrity: Some(Arc::clone(&integrity)),
            control: None,
            disk_tear: Some({
                let cluster = Arc::clone(&cluster);
                Arc::new(move |i, rng| {
                    cluster.replica(i).disk().tear_tail(rng);
                })
            }),
            disk_rot: Some({
                let cluster = Arc::clone(&cluster);
                Arc::new(move |i, rng, bits| {
                    cluster.replica(i).disk().rot(rng, bits);
                })
            }),
            durable: Some(Arc::clone(cluster.durable_stats())),
        };
        (cluster, servers, integrity, hooks)
    };
    let (cluster, servers, integrity, hooks) = match trace {
        None => build(),
        Some(trace) => in_span(trace, Span::EpisodeBuild, build),
    };
    let history = Arc::new(Mutex::new(Vec::new()));
    let mut mk_adapter = |i: usize| {
        Box::new(ChaosRsAdapter::new(
            cluster.open_client().with_integrity(Arc::clone(&integrity)),
            i,
            CHAOS_BLOCKS,
            CHAOS_VALUE,
            0.5,
            Arc::clone(&history),
        )) as Box<dyn ProtoAdapter>
    };
    let r = match trace {
        None => run_closed_loop_with(
            &servers,
            &CostModel::testbed(),
            VerbPath::Nic,
            CHAOS_CLIENTS,
            &mut mk_adapter,
            CHAOS_WARMUP,
            CHAOS_MEASURE,
            seed,
            plan,
            &hooks,
        ),
        Some(trace) => closed_loop_traced(
            &servers,
            CHAOS_CLIENTS,
            &mut mk_adapter,
            CHAOS_WARMUP,
            CHAOS_MEASURE,
            seed,
            plan,
            &hooks,
            trace,
        ),
    };
    let history = std::mem::take(&mut *history.lock().expect("history lock"));
    let t0 = Instant::now();
    let check = || check_history(&history);
    let linearizable = match trace {
        None => check(),
        Some(trace) => in_span(trace, Span::CheckHistory, check),
    };
    let check_ns = t0.elapsed().as_nanos() as u64;
    let mut point = closed_point(&r, CHAOS_MEASURE);
    point.bits = fold_bytes(point.bits, &fold_history(&history).to_le_bytes());
    point.bits = fold_bytes(point.bits, &cluster.rejoins().to_le_bytes());
    point.bits = fold_bytes(point.bits, &cluster.resyncs().to_le_bytes());
    Episode {
        point,
        invoked: history.len() as u64,
        completed: history.iter().filter(|op| op.complete.is_some()).count() as u64,
        rejoins: cluster.rejoins(),
        linearizable,
        check_ns,
    }
}

// ---------------------------------------------------------------------
// simnet microprobes
// ---------------------------------------------------------------------

/// Host cost of the simulator-substrate calls every actor callback
/// makes, in ns per call.
pub struct SimnetProbe {
    pub metrics_add_ns: f64,
    pub hist_record_ns: f64,
    pub fault_query_ns_noop: f64,
    pub fault_query_ns_chaos: f64,
    pub fault_plan_clone_ns: f64,
}

fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The window queries a server and a client make per request.
fn fault_queries(plan: &FaultPlan, i: u64) -> u64 {
    let at = SimTime::from_nanos(i * 37 % CHAOS_HORIZON.as_nanos());
    let (server, client) = ((i % 3) as usize, (i % CHAOS_CLIENTS as u64) as usize);
    plan.crashed(server, at) as u64
        + plan.slowdown_factor(server, at)
        + plan.is_noop() as u64
        + plan.partitioned(client, server, at) as u64
        + plan.client_crashed(client, at) as u64
}

pub fn probe_simnet(seed: u64) -> SimnetProbe {
    const ITERS: u64 = 200_000;
    let mut metrics = Metrics::new();
    let mut hist = Histogram::new();
    let noop = FaultPlan::default();
    let chaos = chaos_plan(seed);
    SimnetProbe {
        metrics_add_ns: ns_per_iter(ITERS, |_| black_box(&mut metrics).add("ops", 1)),
        hist_record_ns: ns_per_iter(ITERS, |i| {
            black_box(&mut hist).record(SimDuration::from_nanos(5_000 + i % 4_096))
        }),
        fault_query_ns_noop: ns_per_iter(ITERS, |i| {
            black_box(fault_queries(black_box(&noop), i));
        }),
        fault_query_ns_chaos: ns_per_iter(ITERS, |i| {
            black_box(fault_queries(black_box(&chaos), i));
        }),
        fault_plan_clone_ns: ns_per_iter(ITERS / 10, |_| {
            black_box(black_box(&chaos).clone());
        }),
    }
}
