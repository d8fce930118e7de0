//! The four workloads. Each `rep` builds a fresh system from a seed
//! (timed as set-up), does a fixed amount of work (the timed work),
//! checks its outputs, and returns what it measured. A run repeats reps
//! until its `--seconds` are used and reports medians, so the work per
//! rep is frozen while the number of reps follows the clock.
//!
//! Written against `calls.rs` only; no `prism_*` crate is named here.

use std::time::Instant;

use crate::calls::{
    self, Episode, KvOp, KvOpenSpec, KvOutcome, LiveCounters, LiveKv, SharedTrace, SimPoint,
    SimTrace, TxClosedSpec,
};
use crate::host;
use crate::spec::Workload;
use crate::stats;
use crate::trace::{Off, Probe, Span, Tracer};

/// Sizes of `live_kv_ycsb_a`.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    pub n_keys: u64,
    pub value_len: usize,
    pub zipf_theta: f64,
    pub warmup_ops: u64,
    pub ops: u64,
    /// Keys the rdma probes touch, `append`+`barrier` pairs the store
    /// probe makes.
    pub probe_iters: u64,
}

/// Sizes of `sim_rs_chaos`.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    pub episodes: u64,
    /// Episodes run untimed first, so lazy set-up and allocator growth
    /// are paid before the clock starts.
    pub warmup_episodes: u64,
}

/// The frozen sizes of every workload.
#[derive(Debug, Clone)]
pub struct Scale {
    pub live: LiveSpec,
    pub tx: TxClosedSpec,
    pub open: KvOpenSpec,
    /// Index into `open.rates_mops` of the point whose latency is
    /// reported (6 Mops: loaded, below the ~8.2 Mops knee).
    pub open_latency_point: usize,
    pub chaos: ChaosSpec,
}

impl Scale {
    /// The benchmark's own sizes. Where a fresh system is cheap to
    /// build (`sim_tx_closed`, `sim_rs_chaos`) a rep is kept short, so
    /// a 10 s run holds a dozen or more and its medians shrug off a
    /// burst of interference; where set-up costs seconds
    /// (`live_kv_ycsb_a`, `sim_kv_open_1m`) a run holds four or five.
    pub fn full() -> Self {
        Scale {
            live: LiveSpec {
                n_keys: 262_144,
                value_len: 512,
                zipf_theta: 0.99,
                warmup_ops: 20_000,
                ops: 200_000,
                probe_iters: 1_000,
            },
            tx: TxClosedSpec {
                n_keys: 262_144,
                value_len: 512,
                clients: 64,
                zipf_theta: 0.8,
                warmup_us: 2_000,
                measure_us: 50_000,
            },
            open: KvOpenSpec {
                n_keys: 262_144,
                value_len: 512,
                logical_clients: 1_000_000,
                actors: 16,
                rates_mops: vec![4.0, 6.0, 8.0, 10.0],
                warmup_us: 1_000,
                measure_us: 50_000,
            },
            open_latency_point: 1,
            chaos: ChaosSpec {
                episodes: 50,
                warmup_episodes: 10,
            },
        }
    }

    /// About a hundredth of the work, for the package's own tests.
    pub fn smoke() -> Self {
        Scale {
            live: LiveSpec {
                n_keys: 2_048,
                value_len: 512,
                zipf_theta: 0.99,
                warmup_ops: 200,
                ops: 1_500,
                probe_iters: 32,
            },
            tx: TxClosedSpec {
                n_keys: 8_192,
                value_len: 512,
                clients: 16,
                zipf_theta: 0.8,
                warmup_us: 200,
                measure_us: 1_500,
            },
            open: KvOpenSpec {
                n_keys: 2_048,
                value_len: 512,
                logical_clients: 1_000_000,
                actors: 16,
                rates_mops: vec![4.0, 6.0, 8.0, 10.0],
                warmup_us: 100,
                measure_us: 500,
            },
            open_latency_point: 1,
            chaos: ChaosSpec {
                episodes: 3,
                warmup_episodes: 1,
            },
        }
    }
}

/// What one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub timed_s: f64,
    /// CPU time over the timed work; `None` off Linux.
    pub cpu_ns: Option<u64>,
    /// Ops completed inside the timed work.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures: wrong answers, not slow ones.
    pub errors: Vec<String>,
    /// Fold of every simulated result of the rep; reps of one run must
    /// agree on it exactly. Zero on the live workload.
    pub sim_bits: u64,
    /// Per-layer values this rep measured by counting or timing.
    pub layer: Vec<(&'static str, f64)>,
    /// Sample counts and the like, for the rep's progress line.
    pub note: String,
}

/// Times `work` on both host clocks.
fn timed<R>(work: impl FnOnce() -> R) -> (R, f64, Option<u64>) {
    let cpu0 = host::cpu_ns();
    let t0 = Instant::now();
    let out = work();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_ns().zip(cpu0).map(|(a, b)| a - b);
    (out, wall, cpu)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one rep of `workload`, traced when `trace` is given.
pub fn rep(workload: Workload, scale: &Scale, seed: u64, trace: Option<&SharedTrace>) -> Rep {
    match workload {
        Workload::LiveKvYcsbA => match trace {
            None => live_rep(&scale.live, seed, &mut Off),
            Some(t) => live_rep(&scale.live, seed, &mut t.borrow_mut().tracer),
        },
        Workload::SimTxClosed => tx_rep(&scale.tx, seed, trace),
        Workload::SimKvOpen1m => open_rep(scale, seed, trace),
        Workload::SimRsChaos => chaos_rep(&scale.chaos, seed, trace),
    }
}

// ---------------------------------------------------------------------
// live_kv_ycsb_a
// ---------------------------------------------------------------------

/// Per-op host latencies of the timed ops, in issue order.
#[derive(Default)]
struct Latencies {
    get_ns: Vec<u32>,
    put_ns: Vec<u32>,
}

/// Whether `value` is the `(key, nonce)` pattern the generator writes.
fn value_matches(value: &[u8], len: usize, key: u64, nonce: u64) -> bool {
    let mut pattern = [0u8; 16];
    pattern[..8].copy_from_slice(&key.to_le_bytes());
    pattern[8..].copy_from_slice(&nonce.to_le_bytes());
    value.len() == len && value.chunks(16).all(|c| c == &pattern[..c.len()])
}

fn check_get(outcome: &KvOutcome, len: usize, key: u64, nonce: u64) -> Result<(), String> {
    match outcome {
        KvOutcome::Value(Some(v)) if value_matches(v, len, key, nonce) => Ok(()),
        other => Err(format!(
            "GET key {key}: expected the value with nonce {nonce:#x}, got {}",
            match other {
                KvOutcome::Value(Some(v)) => format!("{} other bytes", v.len()),
                KvOutcome::Value(None) => "no value".to_string(),
                KvOutcome::Written => "a write acknowledgement".to_string(),
                KvOutcome::Failed(why) => format!("failure: {why}"),
            }
        )),
    }
}

struct LiveRun<'a> {
    spec: &'a LiveSpec,
    kv: LiveKv,
    gen: calls::YcsbStream,
    /// Nonce of the last acknowledged PUT per key (0 = the preload).
    shadow: Vec<u64>,
    failed: u64,
    errors: Vec<String>,
}

impl LiveRun<'_> {
    /// One generated op through the framed path, checked against the
    /// shadow table. One span tree per op: generator → kv build → wire
    /// → core → wire → kv reply → check.
    fn one_op<P: Probe>(&mut self, p: &mut P, id: u64, lat: Option<&mut Latencies>) {
        p.set_op(id);
        let g0 = p.now();
        let op = self.gen.next_op();
        let value = match op {
            KvOp::Get(_) => None,
            KvOp::Put(k) => Some(self.gen.value_for(k)),
        };
        let g1 = p.now();
        p.open(
            if value.is_some() {
                Span::OpPut
            } else {
                Span::OpGet
            },
            g0,
        );
        p.leaf(Span::WorkloadGen, g0, g1);
        let key = op.key();
        let t0 = Instant::now();
        let outcome = match &value {
            None => self.kv.get(p, key),
            Some(v) => self.kv.put(p, key, v),
        };
        let ns = t0.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let c0 = p.now();
        let verdict = match (outcome, &value) {
            (Err(wire), _) => Err(format!("frame did not round-trip: {wire}")),
            (Ok(outcome), None) => check_get(
                &outcome,
                self.spec.value_len,
                key,
                self.shadow[key as usize],
            ),
            (Ok(KvOutcome::Written), Some(v)) => {
                self.shadow[key as usize] =
                    u64::from_le_bytes(v[8..16].try_into().expect("values are >= 16 bytes"));
                Ok(())
            }
            (Ok(other), Some(_)) => Err(format!("PUT key {key}: {other:?}")),
        };
        if let Err(e) = verdict {
            self.failed += 1;
            self.errors.push(e);
        }
        if let Some(lat) = lat {
            match value {
                None => lat.get_ns.push(ns),
                Some(_) => lat.put_ns.push(ns),
            }
        }
        let c1 = p.now();
        p.leaf(Span::BenchCheck, c0, c1);
        p.close(c1);
    }
}

fn mean(values: &[u32]) -> f64 {
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len().max(1) as f64
}

fn live_rep<P: Probe>(spec: &LiveSpec, seed: u64, p: &mut P) -> Rep {
    assert!(spec.value_len >= 16, "values carry a (key, nonce) pattern");
    let t_setup = Instant::now();
    let mut run = LiveRun {
        spec,
        kv: LiveKv::build(spec.n_keys, spec.value_len),
        gen: calls::ycsb_stream(spec.n_keys, spec.zipf_theta, 0.5, spec.value_len, seed),
        shadow: vec![0; spec.n_keys as usize],
        failed: 0,
        errors: Vec::new(),
    };
    for _ in 0..spec.warmup_ops {
        run.one_op(&mut Off, 0, None);
    }
    let warmup_puts = run.kv.put.ops;
    run.kv.get = LiveCounters::default();
    run.kv.put = LiveCounters::default();
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut lat = Latencies::default();
    let ((), timed_s, cpu_ns) = timed(|| {
        for id in 0..spec.ops {
            run.one_op(p, id, Some(&mut lat));
        }
    });
    let (get, put) = (run.kv.get, run.kv.put);

    // Durability: crash with amnesia, replay from flushed bytes only,
    // then every key must read back its last acknowledged value.
    let stats = run.kv.store_stats();
    let user_bytes = (spec.n_keys + warmup_puts + put.ops) * spec.value_len as u64;
    let t_replay = Instant::now();
    let replayed = run.kv.crash_and_replay(seed);
    let replay_s = t_replay.elapsed().as_secs_f64();
    let mut unreadable = 0u64;
    for key in 0..spec.n_keys {
        let got = run.kv.get(&mut Off, key);
        let ok = got
            .map_err(|e| e.to_string())
            .and_then(|o| check_get(&o, spec.value_len, key, run.shadow[key as usize]));
        if let Err(e) = ok {
            unreadable += 1;
            if unreadable <= 3 {
                run.errors.push(format!("after replay: {e}"));
            }
        }
    }
    if unreadable > 0 {
        run.errors
            .push(format!("{unreadable} keys unreadable after replay"));
    }

    lat.get_ns.sort_unstable();
    let put_in_order = lat.put_ns.clone();
    lat.put_ns.sort_unstable();
    let tenth = (put_in_order.len() / 10).max(1);
    let growth = mean(&put_in_order[put_in_order.len() - tenth..]) / mean(&put_in_order[..tenth]);
    let pct = |sorted: &[u32], q| stats::percentile(sorted, q).unwrap_or(0.0);
    // The highest percentile with at least ten samples beyond it.
    let top = |sorted: &[u32]| match stats::highest_percentile(sorted.len()) {
        Some(q) => format!("p{}={:.0}ns", q * 100.0, pct(sorted, q)),
        None => "too few samples for a percentile".to_string(),
    };
    let note = format!(
        "gets={} ({}) puts={} ({})",
        lat.get_ns.len(),
        top(&lat.get_ns),
        lat.put_ns.len(),
        top(&lat.put_ns)
    );
    let requests = get.round_trips + get.background + put.round_trips + put.background;
    let mut layer = vec![
        ("kv.get_ns_p50", pct(&lat.get_ns, 0.5)),
        ("kv.put_ns_p50", pct(&lat.put_ns, 0.5)),
        ("kv.get_ns_p99", pct(&lat.get_ns, 0.99)),
        ("kv.put_ns_p99", pct(&lat.put_ns, 0.99)),
        ("kv.put_cost_growth", growth),
        ("kv.round_trips_per_get", ratio(get.round_trips, get.ops)),
        ("kv.round_trips_per_put", ratio(put.round_trips, put.ops)),
        ("kv.background_reqs_per_put", ratio(put.background, put.ops)),
        (
            "wire.frame_bytes_per_op",
            ratio(get.frame_bytes + put.frame_bytes, spec.ops),
        ),
        (
            "core.chain_ops_per_req",
            ratio(get.chain_ops + put.chain_ops, requests),
        ),
        ("core.requests_per_op", ratio(requests, spec.ops)),
        (
            "store.log_bytes_per_user_byte",
            ratio(stats.log_bytes, user_bytes),
        ),
        ("store.segments", stats.segments as f64),
        ("store.replay_s", replay_s),
        ("store.replayed_records", replayed as f64),
    ];
    if P::ON {
        // Probes on the run's own store at its final state, at entries
        // drawn from the workload's key distribution.
        let keys: Vec<u64> = (0..spec.probe_iters)
            .map(|_| run.gen.next_op().key())
            .collect();
        match run.kv.probe_rdma(&keys) {
            Some(probe) => layer.extend([
                ("rdma.read_512_ns", probe.read_512_ns),
                ("rdma.write_512_ns", probe.write_512_ns),
                ("rdma.cas64_ns", probe.cas64_ns),
            ]),
            None => run
                .errors
                .push("rdma probe: a verb on a live entry failed".to_string()),
        }
        layer.push((
            "store.append_barrier_ns",
            run.kv.probe_store_append(spec.probe_iters, spec.value_len),
        ));
    }
    Rep {
        setup_s,
        timed_s,
        cpu_ns,
        ops: spec.ops - run.failed.min(spec.ops),
        attempted: spec.warmup_ops + spec.ops + spec.n_keys,
        failed: run.failed + unreadable,
        errors: run.errors,
        sim_bits: 0,
        layer,
        note,
    }
}

// ---------------------------------------------------------------------
// sim workloads
// ---------------------------------------------------------------------

/// The per-layer values every sim workload reads off its simulated
/// results: exact for a seed.
fn sim_layers(points: &[&SimPoint], layer: &mut Vec<(&'static str, f64)>) {
    let sum = |f: fn(&SimPoint) -> u64| points.iter().map(|p| f(p)).sum::<u64>();
    let ops = sum(|p| p.completed);
    layer.extend([
        ("transport.timeouts_per_op", ratio(sum(|p| p.timeouts), ops)),
        ("transport.retries_per_op", ratio(sum(|p| p.retries), ops)),
        ("transport.backoffs_per_op", ratio(sum(|p| p.backoffs), ops)),
        ("transport.giveups", sum(|p| p.giveups) as f64),
        ("transport.backlogged", sum(|p| p.backlogged) as f64),
        (
            "transport.stale_harvested",
            sum(|p| p.stale_harvested) as f64,
        ),
        ("transport.busy_nacks", sum(|p| p.busy_nacks) as f64),
    ]);
}

/// The fingerprint metric: the low 48 bits of the fold, which an `f64`
/// holds exactly.
fn fingerprint(bits: u64) -> f64 {
    (bits & ((1 << 48) - 1)) as f64
}

fn tx_rep(spec: &TxClosedSpec, seed: u64, trace: Option<&SharedTrace>) -> Rep {
    let t_setup = Instant::now();
    let cluster = calls::tx_build(spec);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let (point, timed_s, cpu_ns) = timed(|| calls::tx_run(&cluster, spec, seed, trace));
    let mut layer = vec![
        ("sim.tput_mops", point.tput_mops),
        ("sim.mean_us", point.mean_us),
        ("sim.p99_us", point.p99_us),
        ("sim.fingerprint", fingerprint(point.bits)),
    ];
    sim_layers(&[&point], &mut layer);
    Rep {
        setup_s,
        timed_s,
        cpu_ns,
        ops: point.completed,
        attempted: point.completed + point.failed,
        failed: point.failed,
        errors: Vec::new(),
        sim_bits: point.bits,
        layer,
        note: format!("sim p99 over {} latency samples", point.completed),
    }
}

/// Highest swept rate that met the latency limit (sim p99 ≤ 20 µs)
/// without a backlog; 0 when none did.
fn rate_at_slo(rates_mops: &[f64], points: &[SimPoint]) -> f64 {
    rates_mops
        .iter()
        .zip(points)
        .filter(|(_, p)| p.p99_us <= 20.0 && p.backlogged == 0 && p.failed == 0)
        .map(|(r, _)| *r)
        .fold(0.0, f64::max)
}

fn open_rep(scale: &Scale, seed: u64, trace: Option<&SharedTrace>) -> Rep {
    let spec = &scale.open;
    let t_setup = Instant::now();
    let kv = calls::kv_open_build(spec);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let (points, timed_s, cpu_ns) = timed(|| {
        (0..spec.rates_mops.len())
            .map(|k| calls::kv_open_point(&kv, spec, k, seed, trace))
            .collect::<Vec<_>>()
    });
    let bits = points.iter().fold(calls::FOLD_SEED, |h, p| {
        calls::fold_bytes(h, &p.bits.to_le_bytes())
    });
    let at = &points[scale.open_latency_point];
    let saturated = points.last().expect("the sweep has points");
    let mut layer = vec![
        ("sim.tput_mops", saturated.tput_mops),
        ("sim.mean_us", at.mean_us),
        ("sim.p99_us", at.p99_us),
        (
            "sim.rate_at_slo_mops",
            rate_at_slo(&spec.rates_mops, &points),
        ),
        ("sim.fingerprint", fingerprint(bits)),
    ];
    sim_layers(&points.iter().collect::<Vec<_>>(), &mut layer);
    let completed = points.iter().map(|p| p.completed).sum();
    let failed = points.iter().map(|p| p.failed).sum();
    Rep {
        setup_s,
        timed_s,
        cpu_ns,
        ops: completed,
        attempted: completed + failed,
        failed,
        errors: Vec::new(),
        sim_bits: bits,
        layer,
        note: format!(
            "sim p99 at {} Mops over {} latency samples",
            spec.rates_mops[scale.open_latency_point], at.completed
        ),
    }
}

fn chaos_rep(spec: &ChaosSpec, seed: u64, trace: Option<&SharedTrace>) -> Rep {
    let t_setup = Instant::now();
    let plans: Vec<_> = (0..spec.episodes)
        .map(|i| calls::chaos_plan(seed + i))
        .collect();
    for (i, plan) in (0..spec.warmup_episodes).zip(&plans) {
        calls::chaos_episode(seed + i, plan, None);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    let (episodes, timed_s, cpu_ns) = timed(|| {
        plans
            .iter()
            .enumerate()
            .map(|(i, plan)| calls::chaos_episode(seed + i as u64, plan, trace))
            .collect::<Vec<Episode>>()
    });

    let mut errors = Vec::new();
    for (i, e) in episodes.iter().enumerate() {
        if let Err(why) = &e.linearizable {
            errors.push(format!("episode seed {}: {why}", seed + i as u64));
        }
    }
    let points: Vec<&SimPoint> = episodes.iter().map(|e| &e.point).collect();
    let sum = |f: fn(&SimPoint) -> u64| points.iter().map(|p| f(p)).sum::<u64>();
    let (restarts, replayed, detected) = (
        sum(|p| p.restarts),
        sum(|p| p.replayed),
        sum(|p| p.corruptions_detected),
    );
    if restarts == 0 || replayed == 0 || detected == 0 {
        errors.push(format!(
            "the adversity never bit: restarts={restarts} replayed={replayed} \
             corruptions_detected={detected}"
        ));
    }
    let measured = sum(|p| p.completed);
    let weighted_mean_us = points
        .iter()
        .map(|p| p.mean_us * p.completed as f64)
        .sum::<f64>()
        / measured.max(1) as f64;
    let invoked: u64 = episodes.iter().map(|e| e.invoked).sum();
    let completed: u64 = episodes.iter().map(|e| e.completed).sum();
    let bits = points.iter().fold(calls::FOLD_SEED, |h, p| {
        calls::fold_bytes(h, &p.bits.to_le_bytes())
    });
    let mut layer = vec![
        (
            "sim.tput_mops",
            points.iter().map(|p| p.tput_mops).sum::<f64>() / points.len().max(1) as f64,
        ),
        ("sim.mean_us", weighted_mean_us),
        ("sim.fingerprint", fingerprint(bits)),
        ("recovery.restarts", restarts as f64),
        (
            "recovery.rejoins",
            episodes.iter().map(|e| e.rejoins).sum::<u64>() as f64,
        ),
        ("recovery.replayed", replayed as f64),
        ("recovery.delta_resynced", sum(|p| p.delta_resynced) as f64),
        ("recovery.corruptions_detected", detected as f64),
        (
            "harness.check_history_ns_per_op",
            ratio(episodes.iter().map(|e| e.check_ns).sum(), invoked),
        ),
        ("harness.episodes_per_s", spec.episodes as f64 / timed_s),
    ];
    sim_layers(&points, &mut layer);
    let failed = sum(|p| p.failed) + errors.len() as u64;
    Rep {
        setup_s,
        timed_s,
        cpu_ns,
        ops: completed,
        attempted: invoked,
        failed,
        errors,
        sim_bits: bits,
        layer,
        note: format!("{} episodes, all checked", spec.episodes),
    }
}

// ---------------------------------------------------------------------
// What the traced reps add
// ---------------------------------------------------------------------

fn per_call(t: &Tracer, span: Span) -> f64 {
    let a = t.agg(span);
    ratio(a.total_ns, a.count)
}

/// Per-layer values read off the recorder after the traced reps:
/// per-call costs on the live workload, shares of the timed wall on the
/// sim workloads, and the recorder's own overhead and residual.
pub fn traced_layers(
    workload: Workload,
    trace: &SimTrace,
    traced: &[Rep],
    untraced: &[Rep],
    seed: u64,
) -> Vec<(&'static str, f64)> {
    let t = &trace.tracer;
    let wall_ns = traced.iter().map(|r| r.timed_s).sum::<f64>() * 1e9;
    let median_s = |reps: &[Rep]| {
        stats::median(&reps.iter().map(|r| r.timed_s).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let (traced_s, untraced_s) = (median_s(traced), median_s(untraced));
    let share = |ns: u64| {
        if wall_ns > 0.0 {
            ns as f64 / wall_ns
        } else {
            0.0
        }
    };
    let mut out = vec![
        (
            "trace.overhead_frac",
            if untraced_s > 0.0 {
                traced_s / untraced_s - 1.0
            } else {
                0.0
            },
        ),
        ("trace.residual_frac", 1.0 - share(t.self_total_ns())),
    ];
    if workload == Workload::LiveKvYcsbA {
        out.extend([
            ("workload.gen_ns_per_op", per_call(t, Span::WorkloadGen)),
            ("kv.get_build_ns", per_call(t, Span::KvGetBuild)),
            ("kv.get_on_reply_ns", per_call(t, Span::KvGetOnReply)),
            ("kv.put_build_ns", per_call(t, Span::KvPutBuild)),
            ("kv.put_on_reply_ns", per_call(t, Span::KvPutOnReply)),
            ("wire.req_encode_ns", per_call(t, Span::WireReqEncode)),
            ("wire.req_decode_ns", per_call(t, Span::WireReqDecode)),
            ("wire.reply_encode_ns", per_call(t, Span::WireReplyEncode)),
            ("wire.reply_decode_ns", per_call(t, Span::WireReplyDecode)),
            ("core.execute_ns_get_req", per_call(t, Span::CoreExecuteGet)),
            ("core.execute_ns_put_req", per_call(t, Span::CoreExecutePut)),
        ]);
        return out;
    }
    let probe = calls::probe_simnet(seed);
    let ops: u64 = traced.iter().map(|r| r.ops).sum();
    let self_ns = |span| t.agg(span).self_ns;
    let kernel = self_ns(Span::DesRun);
    let adapters = self_ns(Span::AdapterCall) + self_ns(Span::AdapterBuild);
    let events_per_rep = ratio(trace.events, traced.len() as u64);
    out.extend([
        ("des.events", events_per_rep),
        ("des.events_per_op", ratio(trace.events, ops)),
        (
            "des.events_per_s",
            if untraced_s > 0.0 {
                events_per_rep / untraced_s
            } else {
                0.0
            },
        ),
        ("des.kernel_ns_per_event", ratio(kernel, trace.events)),
        ("des.kernel_share", share(kernel)),
        ("simnet.metrics_add_ns", probe.metrics_add_ns),
        ("simnet.hist_record_ns", probe.hist_record_ns),
        ("simnet.fault_query_ns_noop", probe.fault_query_ns_noop),
        ("simnet.fault_query_ns_chaos", probe.fault_query_ns_chaos),
        ("simnet.fault_plan_clone_ns", probe.fault_plan_clone_ns),
        (
            "harness.server_actor_ns_per_msg",
            ratio(self_ns(Span::ServerActor), trace.server_msgs),
        ),
        (
            "harness.server_actor_share",
            share(self_ns(Span::ServerActor)),
        ),
        (
            "harness.client_actor_ns_per_msg",
            ratio(self_ns(Span::ClientActor), trace.client_msgs),
        ),
        (
            "harness.client_actor_share",
            share(self_ns(Span::ClientActor)),
        ),
        (
            "harness.check_history_share",
            share(self_ns(Span::CheckHistory)),
        ),
        (
            "harness.episode_build_share",
            share(self_ns(Span::EpisodeBuild) + self_ns(Span::SimBuild)),
        ),
        (
            "proto.adapter_ns_per_call",
            ratio(self_ns(Span::AdapterCall), trace.adapter_calls),
        ),
        ("proto.adapter_share", share(adapters)),
        ("proto.calls_per_op", ratio(trace.adapter_calls, ops)),
        ("proto.outbound_per_op", ratio(trace.outbound, ops)),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_pattern_check() {
        let mut v = Vec::new();
        for _ in 0..3 {
            v.extend_from_slice(&7u64.to_le_bytes());
            v.extend_from_slice(&9u64.to_le_bytes());
        }
        v.truncate(40);
        assert!(value_matches(&v, 40, 7, 9));
        assert!(!value_matches(&v, 40, 7, 8));
        assert!(!value_matches(&v, 48, 7, 9));
        v[33] ^= 1;
        assert!(!value_matches(&v, 40, 7, 9));
        assert!(check_get(&KvOutcome::Value(None), 40, 7, 9).is_err());
    }

    #[test]
    fn slo_rate_is_the_highest_clean_point() {
        let point = |p99_us, backlogged| SimPoint {
            completed: 1,
            failed: 0,
            tput_mops: 0.0,
            mean_us: 0.0,
            p99_us,
            timeouts: 0,
            retries: 0,
            backoffs: 0,
            giveups: 0,
            backlogged,
            stale_harvested: 0,
            busy_nacks: 0,
            restarts: 0,
            replayed: 0,
            delta_resynced: 0,
            corruptions_detected: 0,
            bits: 0,
        };
        let rates = [4.0, 6.0, 8.0, 10.0];
        let points = [
            point(6.0, 0),
            point(7.0, 0),
            point(15.0, 0),
            point(900.0, 5),
        ];
        assert_eq!(rate_at_slo(&rates, &points), 8.0);
        let points = [
            point(6.0, 0),
            point(25.0, 0),
            point(15.0, 3),
            point(900.0, 5),
        ];
        assert_eq!(rate_at_slo(&rates, &points), 4.0);
        assert_eq!(rate_at_slo(&rates, &[point(99.0, 0)]), 0.0);
    }
}
