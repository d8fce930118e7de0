//! Running an experiment: build the server actors, warm up, measure,
//! and read the results out of the metrics sink. The set-up and
//! warm-up/measure steps are shared with [`crate::openloop`].

use std::sync::Arc;

use prism_core::PrismServer;
use prism_simnet::engine::{Actor, ActorId, Simulation};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::metrics::Metrics;
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;

use super::{ClientActor, ProtoAdapter, RecoveryHooks, ServerActor, SimMsg, VerbPath};

/// One point of a throughput-latency curve.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Closed-loop clients.
    pub clients: usize,
    /// Completed operations per second during the measurement window.
    pub tput_ops: f64,
    /// Mean operation latency in microseconds.
    pub mean_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
    /// Failed/aborted operation count (retries are internal to ops).
    pub failed: u64,
    /// Backoff events (lock conflicts, transaction aborts).
    pub backoffs: u64,
    /// Messages the fault plan dropped (both legs, incl. partitions).
    pub drops: u64,
    /// Replies the fault plan duplicated.
    pub dups: u64,
    /// Request timeouts that synthesized an error reply.
    pub timeouts: u64,
    /// Adapter-level retries after lost round trips.
    pub retries: u64,
    /// Requests silently dropped inside a server crash window.
    pub crash_drops: u64,
    /// Operations abandoned after exhausting the transport retry
    /// budget (also counted in `failed`).
    pub giveups: u64,
    /// Pre-crash replies rejected by incarnation fencing.
    pub fenced: u64,
    /// Requests NACKed by shard-map epoch fencing (stale-routed after
    /// a live reshard).
    pub epoch_fenced: u64,
    /// Straggler replies offered to [`ProtoAdapter::on_stale_reply`]
    /// for resource reclamation (each exactly once).
    pub stale_harvested: u64,
    /// Server amnesia restarts executed.
    pub restarts: u64,
    /// Client crash-window restarts executed.
    pub client_restarts: u64,
    /// Corruptions the fault fabric injected: in-flight bit flips
    /// (either leg), torn multi-line writes, and at-rest rot events.
    pub corruptions_injected: u64,
    /// Corruptions detected: frame-level CRC failures (every injected
    /// flip, by construction) plus value-layer checksum mismatches
    /// observed by the protocol clients' `IntegrityStats`.
    pub corruptions_detected: u64,
    /// Corruption incidents that ended in a clean recovery: the op
    /// retried past the damage, a quorum masked it, or an overwrite
    /// healed it.
    pub corruptions_repaired: u64,
    /// Corruption incidents that ended in a clean typed failure — an
    /// abort, never a silently wrong answer.
    pub aborted_corrupt: u64,
    /// Records recovered from local segment logs by amnesia replays
    /// (via [`RecoveryHooks::durable`]).
    pub replayed: u64,
    /// Blocks fetched from peers during delta resync — only those newer
    /// than the replayed high-water mark. With intact logs this is a
    /// small fraction of what a full resync would have moved.
    pub delta_resynced: u64,
    /// Segment tails truncated at a torn or rotted frame during replay.
    pub segments_truncated: u64,
    /// Amnesia-window closes at which the fault fabric tore the
    /// server's unsynced log tail.
    pub disk_tears: u64,
    /// Hedge copies issued for tail-eligible reads under the plan's
    /// tail policy.
    pub hedges: u64,
    /// Operations settled by the hedge copy arriving first (the
    /// primary became a harvested straggler).
    pub hedge_wins: u64,
    /// Operations shed by the deadline-aware retry budget instead of
    /// retried (also counted in `failed`).
    pub shed: u64,
    /// Requests refused by server-side admission control with a typed
    /// `Busy` NACK (overload protection).
    pub busy_nacks: u64,
    /// Requests whose server-side processing was stretched by an
    /// active gray-failure slowdown window.
    pub slowdown_windows: u64,
}

/// How a runner hands a server actor to the simulation. The public
/// runners pass [`boxed`]; the tests that prove lookahead is host-only
/// pass a wrapper that withholds [`Actor::lookahead`] and compare.
pub(crate) type BoxServer = fn(ServerActor) -> Box<dyn Actor<SimMsg>>;

/// The server actor as it is.
pub(crate) fn boxed(server: ServerActor) -> Box<dyn Actor<SimMsg>> {
    Box::new(server)
}

/// Registers one [`ServerActor`] per server, in index order, ahead of
/// any client (actor registration order is part of the schedule).
pub(crate) fn spawn_servers(
    sim: &mut Simulation<SimMsg>,
    servers: &[Arc<PrismServer>],
    model: &CostModel,
    verb_path: VerbPath,
    faults: &FaultPlan,
    hooks: &RecoveryHooks,
    box_server: BoxServer,
) -> Vec<ActorId> {
    servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            sim.add_actor(box_server(ServerActor::new(
                Arc::clone(s),
                model.clone(),
                verb_path,
                i,
                faults.clone(),
                hooks.clone(),
            )))
        })
        .collect()
}

/// Runs `warmup`, discards what it recorded — simulator metrics plus the
/// value-layer integrity and durable-recovery counters the hooks share
/// with the run's protocol clients, so all three cover the same window
/// — then runs `measure`.
pub(crate) fn warm_then_measure(
    sim: &mut Simulation<SimMsg>,
    warmup: SimDuration,
    measure: SimDuration,
    hooks: &RecoveryHooks,
) {
    sim.run_for(warmup);
    sim.metrics_mut().reset();
    if let Some(integrity) = &hooks.integrity {
        integrity.reset();
    }
    if let Some(durable) = &hooks.durable {
        durable.reset();
    }
    sim.run_for(measure);
}

/// Runs a closed-loop experiment: `n_clients` clients over the given
/// servers, `warmup` then `measure` of virtual time, under `faults`
/// (pass [`FaultPlan::default`] for a pristine fabric — the schedule is
/// then bit-identical to a build without the fault layer).
#[allow(clippy::too_many_arguments)]
pub fn run_closed_loop(
    servers: &[Arc<PrismServer>],
    model: &CostModel,
    verb_path: VerbPath,
    n_clients: usize,
    mk_adapter: &mut dyn FnMut(usize) -> Box<dyn ProtoAdapter>,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
    faults: &FaultPlan,
) -> RunResult {
    run_closed_loop_with(
        servers,
        model,
        verb_path,
        n_clients,
        mk_adapter,
        warmup,
        measure,
        seed,
        faults,
        &RecoveryHooks::default(),
    )
}

/// [`run_closed_loop`] with recovery hooks: amnesia-rejoin and periodic
/// sweep callbacks installed on every server actor.
#[allow(clippy::too_many_arguments)]
pub fn run_closed_loop_with(
    servers: &[Arc<PrismServer>],
    model: &CostModel,
    verb_path: VerbPath,
    n_clients: usize,
    mk_adapter: &mut dyn FnMut(usize) -> Box<dyn ProtoAdapter>,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
    faults: &FaultPlan,
    hooks: &RecoveryHooks,
) -> RunResult {
    closed_loop(
        servers, model, verb_path, n_clients, mk_adapter, warmup, measure, seed, faults, hooks,
        boxed,
    )
    .0
}

/// [`run_closed_loop_with`], also returning everything the run counted.
#[allow(clippy::too_many_arguments)]
pub(crate) fn closed_loop(
    servers: &[Arc<PrismServer>],
    model: &CostModel,
    verb_path: VerbPath,
    n_clients: usize,
    mk_adapter: &mut dyn FnMut(usize) -> Box<dyn ProtoAdapter>,
    warmup: SimDuration,
    measure: SimDuration,
    seed: u64,
    faults: &FaultPlan,
    hooks: &RecoveryHooks,
    box_server: BoxServer,
) -> (RunResult, Metrics) {
    // Reject plans naming hosts outside the run's topology before any
    // virtual time elapses.
    faults.validate(servers.len(), n_clients);
    let mut sim: Simulation<SimMsg> = Simulation::new(seed);
    let server_ids = spawn_servers(
        &mut sim, servers, model, verb_path, faults, hooks, box_server,
    );
    for i in 0..n_clients {
        let adapter = mk_adapter(i);
        let rng = SimRng::new(seed ^ ((i as u64 + 1) << 20));
        sim.add_actor(Box::new(ClientActor::new(
            adapter,
            server_ids.clone(),
            model.clone(),
            rng,
            i,
            faults.clone(),
        )));
    }
    warm_then_measure(&mut sim, warmup, measure, hooks);
    let metrics = sim.metrics();
    let (val_detected, val_repaired, val_aborted) = hooks
        .integrity
        .as_ref()
        .map(|s| (s.detected(), s.repaired(), s.aborted()))
        .unwrap_or((0, 0, 0));
    let (replayed, delta_resynced, segments_truncated) = hooks
        .durable
        .as_ref()
        .map(|d| (d.replayed(), d.delta_resynced(), d.segments_truncated()))
        .unwrap_or((0, 0, 0));
    let ops = metrics.counter("ops");
    let (mean, p99) = metrics
        .histogram("lat")
        .map(|h| (h.mean_micros(), h.quantile_micros(0.99)))
        .unwrap_or((0.0, 0.0));
    let result = RunResult {
        clients: n_clients,
        tput_ops: ops as f64 / measure.as_micros_f64() * 1e6,
        mean_us: mean,
        p99_us: p99,
        failed: metrics.counter("failed"),
        backoffs: metrics.counter("backoffs"),
        drops: metrics.counter("fault_drops"),
        dups: metrics.counter("fault_dups"),
        timeouts: metrics.counter("timeouts"),
        retries: metrics.counter("retries"),
        crash_drops: metrics.counter("fault_crash_drops"),
        giveups: metrics.counter("giveups"),
        fenced: metrics.counter("fault_fenced"),
        epoch_fenced: metrics.counter("epoch_fenced"),
        stale_harvested: metrics.counter("stale_harvested"),
        restarts: metrics.counter("fault_restarts"),
        client_restarts: metrics.counter("fault_client_restarts"),
        corruptions_injected: metrics.counter("fault_corrupt_injected"),
        corruptions_detected: metrics.counter("fault_corrupt_detected") + val_detected,
        corruptions_repaired: metrics.counter("fault_corrupt_repaired") + val_repaired,
        aborted_corrupt: metrics.counter("fault_corrupt_aborted") + val_aborted,
        replayed,
        delta_resynced,
        segments_truncated,
        disk_tears: metrics.counter("fault_disk_tears"),
        hedges: metrics.counter("hedges"),
        hedge_wins: metrics.counter("hedge_wins"),
        shed: metrics.counter("shed"),
        busy_nacks: metrics.counter("busy_nacks"),
        slowdown_windows: metrics.counter("fault_slowdown_hits"),
    };
    (result, sim.into_metrics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::test_support::{faulty_read, read_adapter, test_server, unhinted};
    use prism_simnet::time::SimTime;

    #[test]
    fn kv_chaos_run_is_bit_identical_without_lookahead() {
        // Lookahead is host-only: the same PRISM-KV GET/PUT run under a
        // chaos plan with an amnesia window (loss, flips, torn writes, a
        // log replay) must count, time and record exactly the same with
        // the server actors shown every request at send time as with
        // the hook withheld. Each side builds its own store, since a
        // run mutates it.
        use crate::chaos::ChaosKvAdapter;
        use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
        use prism_simnet::fault::{ChaosSpec, TailPolicy};
        use std::sync::Mutex;
        const KEYS: u64 = 8;
        const VALUE: usize = 64;
        let spec = ChaosSpec {
            servers: 1,
            clients: 4,
            horizon: SimDuration::from_nanos(2_800_000),
            server_crashes: 1,
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
            disk_rot_events: 0,
            slowdowns: 0,
            slowdown_factor: 0,
            reply_partitions: 0,
            flaps: 0,
            tail: TailPolicy::default(),
        };
        let mut plan = FaultPlan::chaos(0xC4A0_0002, &spec);
        plan.timeout = SimDuration::micros(60);
        let run = |box_server: BoxServer| {
            let kv = Arc::new(PrismKvServer::new(&PrismKvConfig::paper(KEYS, VALUE)));
            let history = Arc::new(Mutex::new(Vec::new()));
            let hooks = RecoveryHooks {
                on_restart: Some({
                    let kv = Arc::clone(&kv);
                    Arc::new(move |_i| {
                        kv.amnesia_restart();
                    })
                }),
                durable: Some(Arc::clone(kv.durable_stats())),
                ..RecoveryHooks::default()
            };
            let (result, metrics) = closed_loop(
                &[Arc::clone(kv.server())],
                &CostModel::testbed(),
                VerbPath::Nic,
                spec.clients,
                &mut |i| {
                    Box::new(ChaosKvAdapter::new(
                        kv.open_client(),
                        i,
                        KEYS,
                        VALUE,
                        0.5,
                        Arc::clone(&history),
                    ))
                },
                SimDuration::from_nanos(400_000),
                SimDuration::from_nanos(2_400_000),
                0xC4A0_0002,
                &plan,
                &hooks,
                box_server,
            );
            let history = history.lock().expect("history lock").clone();
            (result, metrics, history)
        };
        let (hinted, hinted_metrics, hinted_history) = run(boxed);
        let (plain, plain_metrics, plain_history) = run(unhinted);
        assert!(hinted.restarts > 0, "no amnesia window fired: {hinted:?}");
        assert!(hinted.replayed > 0, "the restart replayed no log");
        assert!(hinted.tput_ops > 0.0 && !hinted_history.is_empty());
        // Debug prints every field, and an f64 in the shortest form
        // that reads back to the same bits.
        assert_eq!(format!("{hinted:?}"), format!("{plain:?}"));
        for (a, b) in [
            (hinted.tput_ops, plain.tput_ops),
            (hinted.mean_us, plain.mean_us),
            (hinted.p99_us, plain.p99_us),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(hinted_metrics, plain_metrics);
        assert_eq!(hinted_history, plain_history);
    }

    #[test]
    fn unloaded_verb_latency_matches_closed_form() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let r = run_closed_loop(
            &[s],
            &model,
            VerbPath::Nic,
            1,
            &mut |_| read_adapter(addr, rkey, false, 0),
            SimDuration::millis(1),
            SimDuration::millis(5),
            1,
            &FaultPlan::default(),
        );
        let expected = model.rdma_onesided_rtt(512).as_micros_f64();
        // The DES adds request-side serialization the closed form omits;
        // allow a small tolerance.
        assert!(
            (r.mean_us - expected).abs() < 0.15,
            "DES {} vs closed form {}",
            r.mean_us,
            expected
        );
    }

    #[test]
    fn unloaded_chain_latency_matches_prism_sw() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let r = run_closed_loop(
            &[s],
            &model,
            VerbPath::Nic,
            1,
            &mut |_| read_adapter(addr, rkey, true, 0),
            SimDuration::millis(1),
            SimDuration::millis(5),
            1,
            &FaultPlan::default(),
        );
        let expected = model
            .primitive_latency(
                prism_simnet::latency::Platform::PrismSw,
                prism_simnet::latency::Primitive::Read,
            )
            .as_micros_f64();
        assert!(
            (r.mean_us - expected).abs() < 0.3,
            "DES {} vs closed form {}",
            r.mean_us,
            expected
        );
    }

    #[test]
    fn throughput_saturates_with_clients() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let mut last = 0.0;
        let mut results = Vec::new();
        for &n in &[1usize, 8, 64] {
            let r = run_closed_loop(
                std::slice::from_ref(&s),
                &model,
                VerbPath::Nic,
                n,
                &mut |_| read_adapter(addr, rkey, false, 0),
                SimDuration::millis(1),
                SimDuration::millis(5),
                7,
                &FaultPlan::default(),
            );
            results.push(r);
            assert!(r.tput_ops > last, "throughput should rise with clients");
            last = r.tput_ops;
        }
        // Latency grows once the link saturates.
        assert!(results[2].mean_us > results[0].mean_us);
        // 512-byte reads over a 40 Gb/s link: ceiling ≈ 8-9 Mops.
        assert!(
            results[2].tput_ops < 10_000_000.0,
            "tput {} exceeds link ceiling",
            results[2].tput_ops
        );
    }

    #[test]
    #[should_panic(expected = "names server 7")]
    fn run_rejects_plans_naming_absent_servers() {
        let (s, addr, rkey) = test_server();
        let model = CostModel::testbed();
        let faults = FaultPlan::seeded(1).with_crash(7, SimTime::ZERO, SimTime::from_nanos(1_000));
        run_closed_loop(
            &[s],
            &model,
            VerbPath::Nic,
            1,
            &mut |_| faulty_read(addr, rkey, 2, false),
            SimDuration::millis(1),
            SimDuration::millis(1),
            1,
            &faults,
        );
    }
}
