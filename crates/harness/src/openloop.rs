//! Open-loop load engine: aggregate actors multiplexing many logical
//! clients, with coordinated-omission-free latency recording.
//!
//! The closed-loop drivers in [`crate::netsim`] model one actor per
//! client, each issuing its next operation only after the previous
//! reply lands. That is the right model for the paper's
//! throughput-latency figures, but it cannot ask the latency-under-load
//! question honestly: a stalled server throttles a closed-loop client's
//! offered load, so the stall suppresses exactly the samples that would
//! have recorded it (*coordinated omission*), and one simulator actor
//! per client caps the population long before the million-client scale
//! the arrival math needs.
//!
//! This module fixes both:
//!
//! * **Open-loop arrivals.** A seeded [`ArrivalSpec`] (Poisson or
//!   trace replay, from [`prism_workload::openloop`]) fixes request
//!   arrival instants independently of service times. Latency is
//!   measured from the *intended* arrival instant: when every logical
//!   client is in flight, a new arrival queues its intended time, and
//!   the operation it eventually becomes still charges the full wait.
//! * **Aggregate actors.** One [`OpenLoopActor`] multiplexes up to
//!   `logical_clients / actors` concurrently outstanding logical
//!   clients as *slots* — lazily instantiated protocol adapters — so a
//!   run sustains 10⁵–10⁶ logical clients with a handful of simulator
//!   actors and an event count proportional to traffic, not population.
//!
//! Protocol adapters are reused verbatim: a slot drives the same
//! [`ProtoAdapter`] state machines the closed-loop drivers use, against
//! unmodified server actors, through the same client transport
//! (`netsim::transport`) — so the full fault fabric (timeouts, drops,
//! partitions, jitter, in-flight corruption, server crash windows) and
//! the tail policy (adaptive timeouts, hedged reads, shedding) apply
//! per send exactly as for a closed-loop client. The one exclusion is
//! *client* crash windows: a logical client has no process of its own
//! inside an aggregate, so plans with client restart windows are
//! rejected up front.
//!
//! Adapters tag replies with tags of their own choosing, unique only
//! within one adapter (and they use the full 64-bit space), so the
//! aggregate translates: every send gets a fresh per-actor wire tag,
//! and a routing map carries `wire tag → (slot, adapter tag)` until the
//! reply or its timeout consumes it. Determinism is preserved end to
//! end — same seed, same arrival schedule, same replies, bit-identical
//! [`OpenLoopResult`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use prism_core::msg::Reply;
use prism_core::PrismServer;
use prism_rdma::hash::IntMap;
use prism_simnet::engine::{Actor, ActorId, Context, Simulation};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::metrics::Metrics;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_workload::openloop::{ArrivalSpec, Arrivals};

use crate::cluster::System;
use crate::figure::settle;
use crate::netsim::run::{boxed, spawn_servers, warm_then_measure, BoxServer};
use crate::netsim::transport::{
    timeout_reply, OpState, ReplyVerdict, Settled, TimerVerdict, Transport,
};
use crate::netsim::{Outbound, ProtoAdapter, RecoveryHooks, SimMsg, VerbPath};

/// Shared lazily-invoked adapter factory: slot `i` (globally numbered
/// across aggregates) gets `factory(i)` the first time it is needed.
/// `Rc<RefCell<…>>` because every aggregate actor of a run shares one
/// factory, and the simulation is single-threaded by construction.
pub type AdapterFactory = Rc<RefCell<dyn FnMut(usize) -> Box<dyn ProtoAdapter>>>;

/// Parameters of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// The global arrival process, partitioned across aggregates.
    pub arrivals: ArrivalSpec,
    /// Total logical clients (the in-flight concurrency cap, spread
    /// across aggregates). Arrivals beyond the cap queue their intended
    /// times instead of being dropped or delayed silently.
    pub logical_clients: usize,
    /// Optional tighter cap on concurrently in-flight operations
    /// (`0` = no extra cap). Protocol clients hold a per-connection
    /// on-NIC scratch slot, and the paper's 256 KB scratch region
    /// bounds one server to 4096 connections (§4.2) — so an experiment
    /// multiplexing 10⁵⁺ logical clients caps its live slots at the
    /// connection budget and lets the backlog charge the wait, exactly
    /// as a real client host multiplexes user sessions over a bounded
    /// connection pool.
    pub max_inflight: usize,
    /// Aggregate simulator actors multiplexing the logical clients.
    pub actors: usize,
    /// Warm-up (runs the arrival process, metrics discarded).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Run seed: arrival schedules, adapter RNG streams, fault streams.
    pub seed: u64,
    /// Fault plan (client crash windows are rejected; everything else
    /// applies as in the closed-loop drivers).
    pub faults: FaultPlan,
}

impl OpenLoopConfig {
    /// A small fixed-seed smoke configuration: Poisson arrivals at
    /// `rate_per_sec`, 256 logical clients on 4 aggregates, 100 µs
    /// warm-up, 2 ms measurement.
    pub fn smoke(rate_per_sec: f64, seed: u64) -> Self {
        OpenLoopConfig {
            arrivals: ArrivalSpec::Poisson { rate_per_sec },
            logical_clients: 256,
            max_inflight: 0,
            actors: 4,
            warmup: SimDuration::micros(100),
            measure: SimDuration::millis(2),
            seed,
            faults: FaultPlan::default(),
        }
    }
}

/// What one open-loop run measured. `PartialEq` is deliberate: the
/// determinism gate compares whole results across replays bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopResult {
    /// Aggregate actors.
    pub actors: usize,
    /// Logical-client concurrency cap.
    pub logical_clients: usize,
    /// Operations completed successfully inside the window.
    pub completed: u64,
    /// Completed operations per second.
    pub tput_ops: f64,
    /// Mean latency from intended arrival, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th percentile latency, µs.
    pub p999_us: f64,
    /// Maximum latency, µs.
    pub max_us: f64,
    /// Failed/aborted operations.
    pub failed: u64,
    /// Request timeouts that synthesized error replies.
    pub timeouts: u64,
    /// Adapter-level retries.
    pub retries: u64,
    /// Backoff events.
    pub backoffs: u64,
    /// Operations abandoned after exhausting their retry budget.
    pub giveups: u64,
    /// Arrivals that found every slot busy and queued their intended
    /// time (the open-loop overload signal).
    pub backlogged: u64,
    /// Messages the fault plan dropped.
    pub drops: u64,
    /// Operations abandoned against their retry-deadline budget
    /// (overload shedding; counted in `failed` too).
    pub shed: u64,
    /// Requests the servers refused at admission (typed `Busy` NACKs,
    /// counted at issuance so dropped NACK replies still count).
    pub busy_nacks: u64,
}

/// One multiplexed logical client currently (or lately) in flight.
struct Slot {
    adapter: Box<dyn ProtoAdapter>,
    /// The operation in flight, clocked from its *intended* arrival.
    op: OpState,
}

/// Wire-tag multiplexing. Adapters tag sends with tags of their own
/// choosing, unique only within one adapter and using the full 64-bit
/// space, so the aggregate cannot namespace them: it names every send
/// with a fresh per-actor wire tag and routes replies back.
#[derive(Default)]
struct WireTags {
    next: u64,
    /// Wire tag → (slot, adapter tag), until the reply (real or
    /// synthesized) that settles the send consumes it.
    routes: IntMap<u64, (u32, u64)>,
    /// Routes parked when the transport stops waiting for a copy of a
    /// send that may still be answered — the copy timed out, or the
    /// other copy won their hedge race — so the straggler, if it lands,
    /// can still be harvested by the adapter that sent the request.
    /// Entries for requests the fault plan dropped outright are never
    /// consumed; growth is bounded by the timeout and hedge counts.
    orphans: IntMap<u64, (u32, u64)>,
}

impl WireTags {
    /// Names one of `slot`'s sends on the wire, recording the route
    /// home for sends that expect a reply.
    fn issue(&mut self, slot: u32, out: &Outbound) -> u64 {
        let tag = self.next;
        self.next += 1;
        if !out.background {
            self.routes.insert(tag, (slot, out.tag));
        }
        tag
    }

    /// Keeps `tag`'s route for a straggler still in flight.
    fn park(&mut self, tag: u64) {
        if let Some(&route) = self.routes.get(&tag) {
            self.orphans.insert(tag, route);
        }
    }
}

/// An aggregate open-loop actor: owns this partition's arrival stream
/// and a pool of logical-client slots. Everything between a slot's
/// adapter and the wire is the shared transport (so the full fault
/// fabric and tail policy — hedging included — apply per send exactly
/// as for a closed-loop client); what this actor adds is arrivals, the
/// slot pool, the backlog, and wire-tag multiplexing.
pub struct OpenLoopActor {
    arrivals: Arrivals,
    factory: AdapterFactory,
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Concurrency cap for this aggregate (slots are created lazily up
    /// to it, so the high-water mark, not the cap, costs memory).
    max_slots: usize,
    /// Global slot-number base, so factories see distinct indices
    /// across aggregates.
    slot_base: usize,
    /// Intended arrival instants waiting for a slot, oldest first.
    backlog: VecDeque<SimTime>,
    rng: SimRng,
    /// One transport for the whole aggregate: its slots share the
    /// aggregate's fault-plan identity, attempt counter, and RTT
    /// estimator.
    transport: Transport,
    tags: WireTags,
}

impl OpenLoopActor {
    /// Creates one aggregate. `slot_base` numbers this aggregate's
    /// slots globally for the factory; `index` is the aggregate's
    /// client index under the fault plan.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        arrivals: Arrivals,
        factory: AdapterFactory,
        max_slots: usize,
        slot_base: usize,
        servers: Vec<ActorId>,
        model: CostModel,
        rng: SimRng,
        index: usize,
        faults: FaultPlan,
    ) -> Self {
        OpenLoopActor {
            arrivals,
            factory,
            slots: Vec::new(),
            free: Vec::new(),
            max_slots,
            slot_base,
            backlog: VecDeque::new(),
            rng,
            transport: Transport::new(servers, &model, index, faults),
            tags: WireTags::default(),
        }
    }

    fn schedule_next_arrival(&mut self, ctx: &mut Context<'_, SimMsg>) {
        if let Some(ns) = self.arrivals.next_arrival() {
            let me = ctx.self_id();
            ctx.send_at(me, SimTime::from_nanos(ns), SimMsg::Arrival);
        }
    }

    /// A free slot, recycling first, then instantiating up to the cap.
    fn acquire_slot(&mut self) -> Option<u32> {
        if let Some(s) = self.free.pop() {
            return Some(s);
        }
        if self.slots.len() < self.max_slots {
            let id = self.slots.len();
            let adapter = (self.factory.borrow_mut())(self.slot_base + id);
            let op = OpState::begin(SimTime::ZERO, SimTime::ZERO);
            self.slots.push(Slot { adapter, op });
            return Some(id as u32);
        }
        None
    }

    /// Starts (`intended` given) or resumes the operation on `slot`. A
    /// started op's latency clock runs from `intended`.
    fn drive(&mut self, slot: u32, intended: Option<SimTime>, ctx: &mut Context<'_, SimMsg>) {
        let s = &mut self.slots[slot as usize];
        if let Some(intended) = intended {
            s.op = OpState::begin(intended, ctx.now());
        }
        let tags = &mut self.tags;
        self.transport.drive(
            &mut *s.adapter,
            intended.map(|_| &mut self.rng),
            &mut |out: &Outbound| tags.issue(slot, out),
            ctx,
        );
    }

    /// The operation on `slot` is over: recycle the slot, draining the
    /// backlog first — a queued arrival starts *now* but keeps its
    /// original intended time, which is what makes the recorded latency
    /// coordination-free.
    fn release_slot(&mut self, slot: u32, ctx: &mut Context<'_, SimMsg>) {
        match self.backlog.pop_front() {
            Some(intended) => self.drive(slot, Some(intended), ctx),
            None => self.free.push(slot),
        }
    }

    /// Routes a reply (real or synthesized) to its slot's adapter and
    /// schedules what the lifecycle says comes next.
    fn feed(&mut self, wire_tag: u64, reply: Reply, ctx: &mut Context<'_, SimMsg>) {
        let Some((slot, inner)) = self.tags.routes.remove(&wire_tag) else {
            // Every live reply is fed exactly once, so its route is
            // always here.
            return;
        };
        let s = &mut self.slots[slot as usize];
        let tags = &mut self.tags;
        let mut wire = |out: &Outbound| tags.issue(slot, out);
        let adapter = &mut *s.adapter;
        let settled = self
            .transport
            .feed_reply(&mut s.op, adapter, inner, reply, &mut wire, ctx);
        let (at, resume) = match settled {
            Settled::Continue => return,
            Settled::ResumeAfter(wait) => (ctx.now() + wait, true),
            Settled::Ended(at) if at == ctx.now() => return self.release_slot(slot, ctx),
            // Trailing client compute: the slot stays busy until then.
            Settled::Ended(at) => (at, false),
        };
        let me = ctx.self_id();
        ctx.send_at(me, at, SimMsg::OlKick { slot, resume });
    }
}

impl Actor<SimMsg> for OpenLoopActor {
    fn on_start(&mut self, ctx: &mut Context<'_, SimMsg>) {
        self.schedule_next_arrival(ctx);
    }

    fn on_message(&mut self, msg: SimMsg, ctx: &mut Context<'_, SimMsg>) {
        match msg {
            SimMsg::Arrival => {
                let now = ctx.now();
                match self.acquire_slot() {
                    Some(slot) => self.drive(slot, Some(now), ctx),
                    None => {
                        // Every logical client is in flight: queue the
                        // intended instant. The eventual operation's
                        // latency clock starts here, not when a slot
                        // frees up.
                        self.backlog.push_back(now);
                        ctx.metrics().add("ol_backlogged", 1);
                    }
                }
                self.schedule_next_arrival(ctx);
            }
            SimMsg::OlKick { slot, resume: true } => self.drive(slot, None, ctx),
            // Trailing client compute finished; the latency was
            // recorded when the adapter reported Done.
            SimMsg::OlKick {
                slot,
                resume: false,
            } => self.release_slot(slot, ctx),
            SimMsg::Reply {
                tag,
                attempt,
                server,
                inc,
                reply,
            } => match self.transport.classify_reply(
                tag,
                attempt,
                server,
                inc,
                ctx.now(),
                ctx.metrics(),
            ) {
                ReplyVerdict::Live { straggler } => {
                    if straggler {
                        // The slower copy of a hedge race will need the
                        // route this reply is about to consume.
                        self.tags.park(tag);
                    }
                    self.feed(tag, reply, ctx);
                }
                ReplyVerdict::Stale => {
                    // Hand the straggler to the adapter that sent it —
                    // if its route was parked — so server-side
                    // resources named in the reply (an orphaned spare
                    // buffer, a displaced block) can be reclaimed
                    // instead of leaking.
                    if let Some((slot, inner)) = self.tags.orphans.remove(&tag) {
                        let s = &mut self.slots[slot as usize];
                        s.adapter.note_time(ctx.now());
                        let tags = &mut self.tags;
                        let mut wire = |out: &Outbound| tags.issue(slot, out);
                        let adapter = &mut *s.adapter;
                        self.transport
                            .harvest(adapter, inner, server, reply, &mut wire, ctx);
                    }
                }
                ReplyVerdict::Duplicate | ReplyVerdict::Fenced | ReplyVerdict::Dropped => {}
            },
            SimMsg::Timeout { tag, attempt } => {
                let verdict = self.transport.classify_timer(tag, attempt, ctx.metrics());
                if verdict != TimerVerdict::StaleTimer {
                    // Whichever copy just timed out may still straggle
                    // in: park the route (`feed` consumes it) so that
                    // reply, if it eventually lands, is harvested.
                    self.tags.park(tag);
                }
                if verdict == TimerVerdict::Expired {
                    self.feed(tag, timeout_reply(), ctx);
                }
            }
            SimMsg::Hedge { tag, attempt } => self.transport.on_hedge_timer(tag, attempt, ctx),
            _ => unreachable!("open-loop aggregates receive only replies and their own timers"),
        }
    }
}

/// Slots that can actually be live at once: the logical-client
/// population clamped by the in-flight cap (`0` = no extra cap).
fn live_slots(logical_clients: usize, max_inflight: usize) -> usize {
    if max_inflight == 0 {
        logical_clients
    } else {
        logical_clients.min(max_inflight)
    }
}

/// Runs one open-loop experiment over the given servers: builds the
/// aggregates, partitions the arrival process, runs warm-up then the
/// measurement window, and extracts the CO-free latency distribution.
///
/// # Panics
///
/// Panics if the config is degenerate (zero actors, fewer logical
/// clients than actors) or the fault plan contains client crash
/// windows, which aggregates cannot model.
pub fn run_open_loop(
    servers: &[Arc<PrismServer>],
    model: &CostModel,
    verb_path: VerbPath,
    cfg: &OpenLoopConfig,
    factory: AdapterFactory,
    hooks: &RecoveryHooks,
) -> OpenLoopResult {
    open_loop(servers, model, verb_path, cfg, factory, hooks, boxed).0
}

/// [`run_open_loop`], also returning everything the run counted.
fn open_loop(
    servers: &[Arc<PrismServer>],
    model: &CostModel,
    verb_path: VerbPath,
    cfg: &OpenLoopConfig,
    factory: AdapterFactory,
    hooks: &RecoveryHooks,
    box_server: BoxServer,
) -> (OpenLoopResult, Metrics) {
    assert!(cfg.actors > 0, "open-loop run needs at least one aggregate");
    assert!(
        cfg.logical_clients >= cfg.actors,
        "fewer logical clients ({}) than aggregates ({})",
        cfg.logical_clients,
        cfg.actors
    );
    cfg.faults.validate(servers.len(), cfg.actors);
    for a in 0..cfg.actors {
        assert!(
            cfg.faults.client_restarts(a).is_empty(),
            "open-loop aggregates do not model client crash windows"
        );
    }
    let mut sim: Simulation<SimMsg> = Simulation::new(cfg.seed);
    let server_ids = spawn_servers(
        &mut sim,
        servers,
        model,
        verb_path,
        &cfg.faults,
        hooks,
        box_server,
    );
    let inflight = live_slots(cfg.logical_clients, cfg.max_inflight).max(cfg.actors);
    let per = inflight / cfg.actors;
    let extra = inflight % cfg.actors;
    let mut slot_base = 0;
    for i in 0..cfg.actors {
        let max_slots = per + usize::from(i < extra);
        let arrivals = cfg.arrivals.build(i, cfg.actors, cfg.seed);
        let rng = SimRng::new(cfg.seed ^ ((i as u64 + 1) << 20));
        sim.add_actor(Box::new(OpenLoopActor::new(
            arrivals,
            Rc::clone(&factory),
            max_slots,
            slot_base,
            server_ids.clone(),
            model.clone(),
            rng,
            i,
            cfg.faults.clone(),
        )));
        slot_base += max_slots;
    }
    warm_then_measure(&mut sim, cfg.warmup, cfg.measure, hooks);
    let metrics = sim.metrics();
    let ops = metrics.counter("ops");
    let (mean, p50, p99, p999, max) = metrics
        .histogram("lat")
        .map(|h| {
            (
                h.mean_micros(),
                h.quantile_micros(0.50),
                h.quantile_micros(0.99),
                h.quantile_micros(0.999),
                h.max_micros(),
            )
        })
        .unwrap_or((0.0, 0.0, 0.0, 0.0, 0.0));
    let result = OpenLoopResult {
        actors: cfg.actors,
        logical_clients: cfg.logical_clients,
        completed: ops,
        tput_ops: ops as f64 / cfg.measure.as_micros_f64() * 1e6,
        mean_us: mean,
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
        max_us: max,
        failed: metrics.counter("failed"),
        timeouts: metrics.counter("timeouts"),
        retries: metrics.counter("retries"),
        backoffs: metrics.counter("backoffs"),
        giveups: metrics.counter("giveups"),
        backlogged: metrics.counter("ol_backlogged"),
        drops: metrics.counter("fault_drops"),
        shed: metrics.counter("shed"),
        busy_nacks: metrics.counter("busy_nacks"),
    };
    (result, sim.into_metrics())
}

/// Per-server connection budget the experiment sweeps respect when
/// capping in-flight slots: the 256 KB on-NIC scratch region holds 4096
/// connections at 64 B each (§4.2); a margin is left for preload and
/// bookkeeping connections the experiments open outside the engine.
pub const CONNECTION_BUDGET: usize = 3_500;

/// Knobs for the per-system latency-under-load sweeps the experiment
/// modules expose alongside their closed-loop figures.
#[derive(Debug, Clone)]
pub struct OpenLoopKnobs {
    /// Offered arrival rates to sweep (requests per simulated second).
    pub rates_per_sec: Vec<f64>,
    /// Logical-client concurrency cap.
    pub logical_clients: usize,
    /// In-flight cap (see [`OpenLoopConfig::max_inflight`]). The
    /// experiment sweeps clamp this to the paper's per-server on-NIC
    /// connection budget.
    pub max_inflight: usize,
    /// Aggregate actors.
    pub actors: usize,
    /// Warm-up per point.
    pub warmup: SimDuration,
    /// Measurement per point.
    pub measure: SimDuration,
}

impl OpenLoopKnobs {
    /// Full-scale sweep: 10⁵ logical clients, rates climbing past the
    /// single-server saturation point (the 100 Gbps link serializes
    /// ~24 M 512-byte replies per second) so the curve's knee is
    /// visible.
    pub fn paper() -> Self {
        OpenLoopKnobs {
            rates_per_sec: vec![1e6, 4e6, 8e6, 16e6, 22e6, 26e6],
            logical_clients: 100_000,
            max_inflight: CONNECTION_BUDGET,
            actors: 16,
            warmup: SimDuration::millis(1),
            measure: SimDuration::millis(10),
        }
    }

    /// Slots that can actually be live at once: the logical-client
    /// population clamped by the in-flight cap. Experiment sweeps size
    /// server-side spare provisioning (and thus adapter connections)
    /// from this, not from the population.
    pub fn live_slots(&self) -> usize {
        live_slots(self.logical_clients, self.max_inflight)
    }

    /// Reduced sweep for smoke tests.
    pub fn quick() -> Self {
        OpenLoopKnobs {
            rates_per_sec: vec![1e5, 5e5],
            logical_clients: 4_096,
            max_inflight: CONNECTION_BUDGET,
            actors: 4,
            warmup: SimDuration::micros(200),
            measure: SimDuration::millis(2),
        }
    }
}

/// Sweeps `run_open_loop` over the knobs' arrival rates against ONE
/// system, on the testbed model and a pristine fabric: one
/// [`OpenLoopResult`] per rate, reseeding each point from the base seed
/// and the rate index. Each point starts on the settled system: what
/// the last window froze held is released ([`System::settle`]), what it
/// stranded goes back to the pools ([`System::reclaim`]), and nothing
/// may stay held or break the pools' law.
///
/// The whole sweep reuses the caller's system: each point can lazily
/// open up to the in-flight cap's worth of connections, and the on-NIC
/// connection table recycles slots on close, so between points the
/// sweep simply hangs up every connection
/// ([`PrismServer::close_all_connections`]) and the next point's
/// adapters (from the same `factory`) reopen from the recycled pool.
/// Generation tags fence any reply still addressed to a hung-up
/// connection. Before slot recycling this required a cold-started
/// system per point — a six-point sweep at the 3 500-connection cap
/// would otherwise exhaust the 4096-slot scratch region mid-sweep.
pub fn sweep_rates(
    system: &dyn System,
    knobs: &OpenLoopKnobs,
    seed: u64,
    factory: AdapterFactory,
) -> Vec<(f64, OpenLoopResult)> {
    let model = CostModel::testbed();
    let servers = system.servers();
    knobs
        .rates_per_sec
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let cfg = OpenLoopConfig {
                arrivals: ArrivalSpec::Poisson { rate_per_sec: rate },
                logical_clients: knobs.logical_clients,
                max_inflight: knobs.max_inflight,
                actors: knobs.actors,
                warmup: knobs.warmup,
                measure: knobs.measure,
                seed: seed ^ ((k as u64 + 1) << 40),
                faults: FaultPlan::default(),
            };
            settle(system);
            let point = run_open_loop(
                &servers,
                &model,
                VerbPath::Nic,
                &cfg,
                Rc::clone(&factory),
                &RecoveryHooks::default(),
            );
            for s in &servers {
                s.close_all_connections();
            }
            (rate, point)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::test_support::{read_adapter, test_server};

    fn read_factory(addr: u64, rkey: u32) -> AdapterFactory {
        Rc::new(RefCell::new(move |_i: usize| {
            // Full-width tags must round-trip.
            read_adapter(addr, rkey, true, u64::MAX - 1)
        }))
    }

    /// Lets a test keep hold of an aggregate the simulation owns.
    struct Shared(Rc<RefCell<OpenLoopActor>>);

    impl Actor<SimMsg> for Shared {
        fn on_start(&mut self, ctx: &mut Context<'_, SimMsg>) {
            self.0.borrow_mut().on_start(ctx);
        }
        fn on_message(&mut self, msg: SimMsg, ctx: &mut Context<'_, SimMsg>) {
            self.0.borrow_mut().on_message(msg, ctx);
        }
    }

    #[test]
    fn open_loop_point_is_bit_identical_without_lookahead() {
        // The open-loop half of the proof that lookahead is host-only
        // (the closed-loop half is in `netsim::run`): one Poisson point
        // of uniform PRISM-KV GETs and PUTs past the knee, so arrivals
        // backlog, run with the server actor as it is and with the hook
        // withheld.
        use crate::adapters::{batching_spares, PrismKvAdapter};
        use crate::kv_exp::preload_prism;
        use crate::netsim::test_support::unhinted;
        use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
        use prism_workload::ycsb::YcsbConfig;
        use prism_workload::KeyDist;
        const KEYS: u64 = 256;
        const VALUE: usize = 128;
        let cfg = OpenLoopConfig::smoke(30e6, 23);
        let run = |box_server: BoxServer| {
            let mut kv_cfg = PrismKvConfig::paper(KEYS, VALUE);
            for class in &mut kv_cfg.classes {
                class.count += batching_spares(cfg.logical_clients);
            }
            let kv = Rc::new(PrismKvServer::new(&kv_cfg));
            preload_prism(&kv, KEYS, VALUE);
            let servers = [Arc::clone(kv.server())];
            let ycsb = YcsbConfig {
                dist: KeyDist::uniform(KEYS),
                read_fraction: 0.9,
                value_len: VALUE,
            };
            let factory: AdapterFactory = Rc::new(RefCell::new(move |i: usize| {
                Box::new(PrismKvAdapter::new(
                    kv.open_client(),
                    ycsb.clone(),
                    SimRng::new(23 ^ ((i as u64 + 1) * 7919)),
                )) as Box<dyn ProtoAdapter>
            }));
            open_loop(
                &servers,
                &CostModel::testbed(),
                VerbPath::Nic,
                &cfg,
                factory,
                &RecoveryHooks::default(),
                box_server,
            )
        };
        let (hinted, hinted_metrics) = run(boxed);
        let (plain, plain_metrics) = run(unhinted);
        assert!(hinted.completed > 1_000, "{hinted:?}");
        assert!(hinted.backlogged > 0, "the point must sit past the knee");
        // Debug prints every field, and an f64 in the shortest form
        // that reads back to the same bits.
        assert_eq!(format!("{hinted:?}"), format!("{plain:?}"));
        for (a, b) in [
            (hinted.tput_ops, plain.tput_ops),
            (hinted.mean_us, plain.mean_us),
            (hinted.p50_us, plain.p50_us),
            (hinted.p99_us, plain.p99_us),
            (hinted.p999_us, plain.p999_us),
            (hinted.max_us, plain.max_us),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(hinted_metrics, plain_metrics);
    }

    #[test]
    fn open_loop_reads_hedge_under_a_straggler_and_harvest_the_losers() {
        use crate::netsim::test_support::faulty_read;
        use prism_simnet::fault::TailPolicy;
        const ARRIVALS: usize = 2_000;
        let model = CostModel::testbed();
        // The server turns into an 8x straggler 2 ms in, after the RTT
        // window has learned the healthy p99, so from then on reads
        // outlive their hedge delay. Jitter lets a primary that will
        // arrive still lose to its copy; light loss gives copies races
        // to win outright.
        let faults = FaultPlan::seeded(17)
            .with_loss(0.02, 0.0)
            .with_jitter(8_000)
            .with_timeout(SimDuration::micros(60))
            .with_slowdown(
                0,
                SimTime::from_nanos(2_000_000),
                SimTime::from_nanos(u64::MAX),
                8,
            )
            .with_tail_policy(TailPolicy {
                hedge: true,
                adaptive_timeout: true,
                ..TailPolicy::default()
            });
        let run = || {
            let (s, addr, rkey) = test_server();
            let mut sim: Simulation<SimMsg> = Simulation::new(17);
            let hooks = RecoveryHooks::default();
            let ids = spawn_servers(
                &mut sim,
                &[s],
                &model,
                VerbPath::Nic,
                &faults,
                &hooks,
                boxed,
            );
            let spec = ArrivalSpec::Trace {
                gaps: vec![5_000; ARRIVALS],
            };
            let factory: AdapterFactory = Rc::new(RefCell::new(move |_i: usize| {
                faulty_read(addr, rkey, 2, true)
            }));
            let actor = Rc::new(RefCell::new(OpenLoopActor::new(
                spec.build(0, 1, 17),
                factory,
                64,
                0,
                ids,
                model.clone(),
                SimRng::new(17),
                0,
                faults.clone(),
            )));
            sim.add_actor(Box::new(Shared(Rc::clone(&actor))));
            sim.run();
            // Quiescence: every arrival became an op that ended, every
            // slot went back to the free list, and no route is left
            // waiting for a reply.
            let a = actor.borrow();
            assert_eq!(a.free.len(), a.slots.len(), "a slot never came back");
            assert!(a.backlog.is_empty() && a.tags.routes.is_empty());
            drop(a);
            let counters: Vec<(String, u64)> = sim
                .metrics()
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            (counters, sim.into_metrics())
        };
        let (counters, m) = run();
        assert_eq!(
            m.counter("ops") + m.counter("failed"),
            ARRIVALS as u64,
            "every arrival must end exactly once"
        );
        assert!(m.counter("fault_slowdown_hits") > 0);
        assert!(m.counter("hedges") > 0, "no hedge fired: {counters:?}");
        assert!(m.counter("hedge_wins") > 0, "no copy won: {counters:?}");
        assert!(
            m.counter("stale_harvested") > 0,
            "losing copies must be harvested through their parked routes: {counters:?}"
        );
        assert_eq!(counters, run().0, "same seed must replay bit-exactly");
    }

    #[test]
    fn open_loop_completes_offered_load_when_unsaturated() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let cfg = OpenLoopConfig::smoke(200_000.0, 7);
        let r = run_open_loop(
            &[s],
            &model,
            VerbPath::Nic,
            &cfg,
            read_factory(addr, rkey),
            &RecoveryHooks::default(),
        );
        // 200k ops/s over 2 ms ≈ 400 completions; Poisson noise and
        // edge effects stay well inside ±50 %.
        assert!(
            r.completed > 200 && r.completed < 800,
            "completed {} of ~400 expected",
            r.completed
        );
        assert_eq!(r.failed, 0);
        // Unloaded latency is the unloaded RTT, far from the arrival
        // gaps: no backlog should form.
        assert_eq!(r.backlogged, 0, "unsaturated run must not backlog");
        assert!(r.tput_ops > 0.0 && r.mean_us > 0.0 && r.p99_us >= r.p50_us);
    }

    #[test]
    fn open_loop_replay_is_bit_exact() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        for seed in [7, 1806242025] {
            let cfg = OpenLoopConfig::smoke(300_000.0, seed);
            let a = run_open_loop(
                &[Arc::clone(&s)],
                &model,
                VerbPath::Nic,
                &cfg,
                read_factory(addr, rkey),
                &RecoveryHooks::default(),
            );
            let b = run_open_loop(
                &[Arc::clone(&s)],
                &model,
                VerbPath::Nic,
                &cfg,
                read_factory(addr, rkey),
                &RecoveryHooks::default(),
            );
            assert_eq!(a, b, "same seed must replay bit-exactly");
            assert!(a.completed > 0);
        }
    }

    #[test]
    fn saturated_run_backlogs_and_charges_queueing_to_latency() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        // 2 logical clients at an arrival rate far beyond what they can
        // carry: almost every arrival queues, and the queueing delay
        // dominates the recorded (intended-to-completion) latency.
        let cfg = OpenLoopConfig {
            arrivals: ArrivalSpec::Poisson {
                rate_per_sec: 1_000_000.0,
            },
            logical_clients: 2,
            max_inflight: 0,
            actors: 1,
            warmup: SimDuration::micros(100),
            measure: SimDuration::millis(1),
            seed: 11,
            faults: FaultPlan::default(),
        };
        let r = run_open_loop(
            &[s],
            &model,
            VerbPath::Nic,
            &cfg,
            read_factory(addr, rkey),
            &RecoveryHooks::default(),
        );
        assert!(r.backlogged > 0, "overload must backlog");
        // The unloaded RTT is a few µs; with the queue growing all
        // window, mean CO-free latency must blow far past it.
        assert!(
            r.mean_us > 50.0,
            "queueing delay not charged: mean {} µs",
            r.mean_us
        );
    }

    #[test]
    fn max_inflight_caps_live_slots_and_backlogs_the_rest() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let mut cfg = OpenLoopConfig::smoke(2_000_000.0, 9);
        cfg.max_inflight = 8;
        let r = run_open_loop(
            &[s],
            &model,
            VerbPath::Nic,
            &cfg,
            read_factory(addr, rkey),
            &RecoveryHooks::default(),
        );
        // 2 M ops/s against 8 slots of ~5.5 µs service: the pool is
        // pinned at the cap and the excess arrivals must queue.
        assert!(r.backlogged > 0, "capped run must backlog");
        assert!(r.completed > 0);
        assert!(
            r.mean_us > 50.0,
            "queueing behind the in-flight cap not charged: mean {} µs",
            r.mean_us
        );
    }

    #[test]
    #[should_panic(expected = "client crash windows")]
    fn client_crash_plans_are_rejected() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let mut cfg = OpenLoopConfig::smoke(100_000.0, 3);
        cfg.faults = FaultPlan {
            client_crashes: vec![prism_simnet::fault::ClientCrashWindow {
                client: 0,
                from: SimTime::from_nanos(0),
                until: SimTime::from_nanos(1),
            }],
            timeout: SimDuration::millis(1),
            ..FaultPlan::default()
        };
        let _ = run_open_loop(
            &[s],
            &model,
            VerbPath::Nic,
            &cfg,
            read_factory(addr, rkey),
            &RecoveryHooks::default(),
        );
    }
}
