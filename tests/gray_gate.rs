//! Gray-failure gate: the fourth CI gate, for faults that degrade
//! without failing cleanly. Seeded straggler windows stretch one
//! server's processing, asymmetric partitions eat only the reply leg,
//! and flapping links cycle up and down — while the tail-tolerance
//! stack (adaptive timeouts from a windowed RTT quantile, hedged reads
//! whose losers are harvested through the stale-reply path, server-side
//! admission control with typed `Busy` NACKs, and deadline-aware retry
//! budgets that shed load) has to turn those gray faults back into
//! bounded tails without ever weakening correctness. The gate demands
//! proof on all three axes: histories stay linearizable under the gray
//! mix (hedged and unhedged), the hedged p99 under one straggling shard
//! stays within a fixed multiple of the healthy baseline and strictly
//! beats the unhedged run, goodput at twice the saturation knee holds
//! within 10% of the knee, and every scenario replays bit-exactly under
//! the same seed.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use prism_core::PrismServer;
use prism_harness::chaos::{chaos_plan, check_history, Outcome, Scenario, Topology};
use prism_harness::netsim::{run_closed_loop, ProtoAdapter, RecoveryHooks, VerbPath};
use prism_harness::openloop::{run_open_loop, AdapterFactory, OpenLoopConfig, OpenLoopResult};
use prism_rdma::region::AccessFlags;
use prism_simnet::fault::{ChaosSpec, FaultPlan, TailPolicy};
use prism_simnet::latency::CostModel;
use prism_simnet::time::SimDuration;
use prism_workload::ArrivalSpec;

mod support;
use support::{
    assert_golden, fault_line, history_key, metrics_key, open_loop_key, run_key, seed_or,
    RetryingRead,
};

const WARMUP: SimDuration = SimDuration::from_nanos(400_000);
const MEASURE: SimDuration = SimDuration::from_nanos(2_400_000);
const HORIZON: SimDuration = SimDuration::from_nanos(2_800_000);

/// The shared gray scenario over `topology`: seeded straggler windows,
/// one reply-leg partition, one flapping link, crashes with amnesia,
/// plus background loss/dup/jitter, half the operations writes.
/// Corruption and disk faults stay off — they have their own gates — so
/// every anomaly here is a gray one.
fn gray_scenario(
    seed: u64,
    topology: Topology,
    clients: usize,
    crashes: usize,
    tail: TailPolicy,
) -> Scenario {
    let spec = ChaosSpec {
        server_crashes: crashes,
        amnesia_fraction: 1.0,
        client_crashes: 1,
        partitions: 1,
        drop_prob: 0.01,
        dup_prob: 0.005,
        jitter_ns: 1_000,
        slowdowns: 2,
        slowdown_factor: 4,
        reply_partitions: 1,
        flaps: 1,
        tail,
        ..ChaosSpec::quiet(topology.servers(), clients, HORIZON)
    };
    Scenario {
        topology,
        clients,
        write_fraction: 0.5,
        plan: chaos_plan(seed, &spec),
        warmup: WARMUP,
        measure: MEASURE,
        grow: None,
    }
}

// ---------------------------------------------------------------------
// Sharded PRISM-KV under the gray mix — hedging disabled
// ---------------------------------------------------------------------

fn kv_gray_chaos(seed: u64) -> Outcome {
    let two_shards = Topology::Kv {
        provisioned: 2,
        active: 2,
    };
    gray_scenario(seed, two_shards, 4, 1, TailPolicy::default()).run(seed)
}

/// Correctness first, policy off: stragglers, a reply-leg partition, a
/// flapping link, and an amnesia crash — with hedging and shedding
/// disabled — must leave per-key linearizability intact. A server that
/// executed a PUT whose reply vanished on the severed return leg is the
/// canonical gray trap: the client retries, and the history checker
/// must still find one serialization of both attempts.
#[test]
fn kv_sharded_gray_chaos_stays_linearizable() {
    let seed = seed_or(0x64A9_0001);
    let out = kv_gray_chaos(seed);
    let (r, history) = (out.result, out.history);
    fault_line("kv-gray", &r);
    assert!(r.tput_ops > 0.0, "no progress under the gray mix: {r:?}");
    assert!(
        r.slowdown_windows > 0,
        "the straggler windows were scheduled but never bit: {r:?}"
    );
    assert!(
        r.drops > 0,
        "the reply-leg partition and flap never dropped anything: {r:?}"
    );
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    assert_eq!(r.hedges, 0, "policy off: nothing may hedge");
    assert_eq!(r.shed, 0, "policy off: nothing may shed");
    assert!(!history.is_empty(), "history must be recorded");
    check_history(&history).expect("gray KV history must be linearizable per key");
    // Golden row (default seed only), captured on the commit before the
    // history-recording adapters became the figure adapters' drivers:
    // every counter and every recorded operation.
    if seed == 0x64A9_0001 {
        assert_golden(
            "kv_gray_chaos",
            &[run_key(&r), history_key(&history)],
            &[0x06c4_9202_7aad_b8d5, 0x54bb_e4a3_1a28_9278],
        );
    }

    let again = kv_gray_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(
        history, again.history,
        "recorded histories must be bit-exact"
    );
}

// ---------------------------------------------------------------------
// Sharded PRISM-RS under the gray mix — full tail policy armed
// ---------------------------------------------------------------------

fn rs_gray_chaos(seed: u64) -> Outcome {
    let two_groups = Topology::Rs {
        provisioned: 2,
        active: 2,
        replicas: 3,
    };
    // Hedging + adaptive timeouts armed on top of the same gray mix:
    // quorum GETs hedge after the tracked p99, losers are harvested for
    // their allocations when they straggle in, and the histories those
    // racing copies produce must still pass Wing–Gong.
    let tail = TailPolicy {
        adaptive_timeout: true,
        hedge: true,
        admission_ns: 0,
        retry_deadline: SimDuration::ZERO,
    };
    gray_scenario(seed, two_groups, 6, 2, tail).run(seed)
}

/// The hedged-correctness gate: the same gray mix over a 2-group RS
/// cluster with hedged quorum reads and adaptive timeouts armed. Racing
/// hedge copies must not manufacture anomalies — every losing copy
/// lands in the stale-reply harvest (no buffer leaks), and the
/// cross-group history stays linearizable.
#[test]
fn rs_sharded_gray_chaos_stays_linearizable_with_hedging() {
    let seed = seed_or(0x64A9_0002);
    let out = rs_gray_chaos(seed);
    let (r, history, rejoins, resyncs) = (out.result, out.history, out.rejoins, out.resyncs);
    fault_line("rs-gray", &r);
    assert!(r.tput_ops > 0.0, "no progress under the gray mix: {r:?}");
    assert!(
        r.slowdown_windows > 0,
        "the straggler windows were scheduled but never bit: {r:?}"
    );
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    assert!(
        rejoins > 0,
        "restarted replicas must rejoin (rejoins={rejoins})"
    );
    assert!(
        r.hedges > 0,
        "hedging was armed under stragglers but never fired: {r:?}"
    );
    assert!(!history.is_empty(), "history must be recorded");
    check_history(&history).expect("hedged gray RS history must be linearizable");
    // Golden row (default seed only), as for `kv_gray_chaos`.
    if seed == 0x64A9_0002 {
        assert_golden(
            "rs_gray_chaos",
            &[run_key(&r), history_key(&history), rejoins, resyncs],
            &[0x98f7_3765_367f_bc3a, 0x1207_30ba_e22d_518d, 2, 6],
        );
    }

    let again = rs_gray_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(
        history, again.history,
        "recorded histories must be bit-exact"
    );
    assert_eq!(rejoins, again.rejoins);
}

// ---------------------------------------------------------------------
// Hedged tail under one straggling shard
// ---------------------------------------------------------------------

/// One run of the two-shard KV tail experiment, the scenario
/// `fig_hedge` draws BENCH_06 from: `slow` stretches shard 1's
/// processing by 4x for the whole run; `tail` arms the client policy. A
/// GET whose request or reply vanished toward the slow shard either
/// waits out the full fixed timeout (unhedged) or is covered by a copy
/// issued after the tracked p99 (hedged).
fn tail_run(seed: u64, slow: bool, tail: TailPolicy) -> Outcome {
    let factor = if slow { 4 } else { 1 };
    Scenario::straggler(seed, factor, tail, WARMUP, MEASURE).run(seed)
}

/// The tail-tolerance regression of record: with one shard straggling
/// at 4x, the hedged p99 must stay within a fixed multiple of the
/// healthy (no-straggler) baseline and strictly beat the unhedged run,
/// whose tail is pinned to the fixed timeout. Both comparisons use the
/// same seed, loss rate, and workload; only the straggler window and
/// the tail policy differ.
#[test]
fn hedged_p99_under_one_straggling_shard_stays_bounded() {
    let seed = seed_or(0x64A9_0003);
    let policy = TailPolicy {
        adaptive_timeout: true,
        hedge: true,
        admission_ns: 0,
        retry_deadline: SimDuration::ZERO,
    };
    let healthy = tail_run(seed, false, policy.clone()).result;
    let unhedged = tail_run(seed, true, TailPolicy::default()).result;
    let Outcome {
        result: hedged,
        history: hist,
        ..
    } = tail_run(seed, true, policy.clone());
    fault_line("tail-healthy", &healthy);
    fault_line("tail-unhedged", &unhedged);
    fault_line("tail-hedged", &hedged);
    assert!(healthy.p99_us > 0.0 && hedged.p99_us > 0.0 && unhedged.p99_us > 0.0);
    assert!(
        hedged.slowdown_windows > 0,
        "the straggling shard never stretched a request: {hedged:?}"
    );
    assert!(hedged.hedges > 0, "no hedge fired: {hedged:?}");
    assert!(
        hedged.hedge_wins > 0,
        "no hedge copy ever beat its primary: {hedged:?}"
    );
    assert!(
        hedged.p99_us < unhedged.p99_us,
        "hedged p99 {:.1}us must strictly beat unhedged {:.1}us",
        hedged.p99_us,
        unhedged.p99_us
    );
    // The fixed-multiple bound: a 4x straggler on half the keyspace may
    // cost a few healthy p99s (the hedge itself waits one tracked p99,
    // and slow-shard service is honestly 4x) but must not degenerate to
    // the timeout-dominated unhedged tail.
    assert!(
        hedged.p99_us <= 8.0 * healthy.p99_us,
        "hedged p99 {:.1}us exceeds 8x the healthy baseline {:.1}us",
        hedged.p99_us,
        healthy.p99_us
    );
    // Hedge losers must be harvested, not leaked: every copy that lost
    // its race straggles in later and takes the stale-reply path.
    assert!(
        hedged.stale_harvested > 0,
        "losing hedge copies must be harvested: {hedged:?}"
    );
    check_history(&hist).expect("hedged straggler history must be linearizable");
    // Golden row (default seed only), captured on the commit before the
    // two client actors were folded into one transport: the hedged
    // closed-loop schedule — hedge issue, races, harvests, adaptive
    // timeouts — pinned to the bit.
    if seed == 0x64A9_0003 {
        assert_eq!(
            [
                hedged.tput_ops.to_bits(),
                hedged.mean_us.to_bits(),
                hedged.p99_us.to_bits(),
                hedged.hedges,
                hedged.hedge_wins,
                hedged.stale_harvested,
                hedged.timeouts,
                hedged.retries,
            ],
            [
                0x4103_7afa_aaaa_aaaa,
                0x4039_0cbf_4839_b526,
                0x404e_d916_872b_020c,
                43,
                36,
                3,
                3,
                3,
            ],
            "the hedged closed-loop run diverged from the pre-transport golden schedule"
        );
    }

    let again = tail_run(seed, true, policy);
    assert_eq!(
        metrics_key(&hedged),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(hist, again.history, "recorded histories must be bit-exact");
}

// ---------------------------------------------------------------------
// Overload shedding: goodput holds at twice the knee
// ---------------------------------------------------------------------

/// Two dispatch cores at 500 ns per chain op put the saturation knee at
/// 4M ops/s — low enough to drive past within a 2 ms window.
const KNEE_RATE: f64 = 4.0e6;

fn knee_run(seed: u64, rate: f64, tail: TailPolicy) -> OpenLoopResult {
    let s = Arc::new(PrismServer::new(1 << 20));
    let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
    let rkey = rkey.0;
    // The 1% background loss arms the fault layer so fixed timeouts are
    // live in the unprotected contrast run.
    let mut faults = FaultPlan::seeded(seed)
        .with_loss(0.01, 0.0)
        .with_tail_policy(tail);
    faults.timeout = SimDuration::micros(60);
    let cfg = OpenLoopConfig {
        arrivals: ArrivalSpec::Poisson { rate_per_sec: rate },
        logical_clients: 256,
        max_inflight: 0,
        actors: 4,
        warmup: SimDuration::micros(200),
        measure: SimDuration::millis(2),
        seed,
        faults,
    };
    let factory: AdapterFactory = Rc::new(RefCell::new(move |_i: usize| {
        Box::new(RetryingRead { addr, rkey }) as Box<dyn ProtoAdapter>
    }));
    let mut model = CostModel::testbed();
    model.server_cores = 2;
    run_open_loop(
        &[s],
        &model,
        VerbPath::Nic,
        &cfg,
        factory,
        &RecoveryHooks::default(),
    )
}

/// The overload-protection regression: at twice the saturation knee,
/// bounded admission (`Busy` NACKs past a 20 µs queue bound) plus
/// deadline-aware shedding must hold goodput within 10% of the knee
/// goodput, where the unprotected stack collapses into a timeout-retry
/// storm (every queued request blows its fixed 60 µs timeout, retries
/// double the offered load, and the server burns capacity on duplicate
/// executions).
#[test]
fn admission_and_shedding_hold_goodput_past_the_knee() {
    let seed = seed_or(0x64A9_0004);
    let protection = TailPolicy {
        adaptive_timeout: true,
        hedge: false,
        admission_ns: 20_000,
        retry_deadline: SimDuration::micros(200),
    };
    let knee = knee_run(seed, KNEE_RATE, protection.clone());
    let plain_2x = knee_run(seed, 2.0 * KNEE_RATE, TailPolicy::default());
    let prot_2x = knee_run(seed, 2.0 * KNEE_RATE, protection.clone());
    println!(
        "overload: knee={:.0}ops/s | 2x plain={:.0}ops/s (to={}) | \
         2x protected={:.0}ops/s shed={} busy={}",
        knee.tput_ops,
        plain_2x.tput_ops,
        plain_2x.timeouts,
        prot_2x.tput_ops,
        prot_2x.shed,
        prot_2x.busy_nacks
    );
    assert!(knee.tput_ops > 0.0, "no progress at the knee");
    assert!(
        prot_2x.busy_nacks > 0,
        "admission control never refused anything at 2x overload: {prot_2x:?}"
    );
    assert!(
        prot_2x.shed > 0,
        "the deadline budget never shed at 2x overload: {prot_2x:?}"
    );
    assert!(
        prot_2x.tput_ops >= 0.9 * knee.tput_ops,
        "protected goodput at 2x past the knee ({:.0}) fell more than 10% \
         below the knee goodput ({:.0})",
        prot_2x.tput_ops,
        knee.tput_ops
    );
    assert!(
        prot_2x.tput_ops > 1.5 * plain_2x.tput_ops,
        "the protected stack ({:.0}) must clearly beat the unprotected \
         collapse ({:.0}) at 2x overload",
        prot_2x.tput_ops,
        plain_2x.tput_ops
    );

    // Same seed, fresh servers: the protected overload run — sheds,
    // NACKs, quantile state and all — replays bit-exactly.
    let again = knee_run(seed, 2.0 * KNEE_RATE, protection);
    assert_eq!(prot_2x, again, "replay must be bit-exact");
    // Golden row (default seed only), captured on the commit before the
    // two client actors were folded into one transport: the protected
    // open-loop overload run, every result field.
    if seed == 0x64A9_0004 {
        assert_eq!(
            open_loop_key(&prot_2x),
            [
                4,
                256,
                7926,
                0x414e_3c3c_0000_0000,
                0x4081_f043_24fc_89c1,
                0x4081_cac0_8312_6e98,
                0x4090_8312_6e97_8d50,
                0x4092_0c49_ba5e_353f,
                0x4093_5471_a9fb_e76d,
                558,
                200,
                3215,
                0,
                0,
                16149,
                199,
                558,
                3539,
            ],
            "the protected open-loop run diverged from the pre-transport golden schedule"
        );
    }
}

// ---------------------------------------------------------------------
// Zero-knob bit-identity against the pre-gray baseline
// ---------------------------------------------------------------------

/// Gray faults live on their own RNG streams (the PR 3/5/9 convention),
/// so a plan with every gray knob at zero and the tail policy off must
/// replay the exact schedule the pre-gray code produced. The golden
/// values below are the f64 bit patterns and counters of this fixed
/// scenario captured on the commit *before* the gray fault class
/// landed; if adding a knob ever perturbs knob-free runs, this pins the
/// divergence to the byte. (Golden values hold for the default seed
/// only — `PRISM_TEST_SEED` runs still assert same-build determinism.)
#[test]
fn zero_knob_plans_are_bit_identical_to_the_pre_gray_baseline() {
    let seed = seed_or(0x64A9_0005);
    let run = |seed: u64| {
        let s = Arc::new(PrismServer::new(1 << 20));
        let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
        let rkey = rkey.0;
        let mut plan = FaultPlan::seeded(seed).with_loss(0.02, 0.01);
        plan.timeout = SimDuration::micros(60);
        run_closed_loop(
            &[s],
            &CostModel::testbed(),
            VerbPath::Nic,
            4,
            &mut |_i| Box::new(RetryingRead { addr, rkey }),
            SimDuration::micros(200),
            SimDuration::from_nanos(1_200_000),
            seed,
            &plan,
        )
    };
    let r = run(seed);
    let key = [
        r.tput_ops.to_bits(),
        r.mean_us.to_bits(),
        r.p99_us.to_bits(),
        r.failed,
        r.drops,
        r.dups,
        r.timeouts,
        r.retries,
        r.giveups,
    ];
    assert_eq!(r.hedges + r.shed + r.busy_nacks + r.slowdown_windows, 0);
    if seed == 0x64A9_0005 {
        assert_eq!(
            key,
            [
                0x411b_7740_0000_0000,
                0x4021_0d72_18aa_c1f8,
                0x4052_4dd2_f1a9_fbe7,
                0,
                27,
                4,
                26,
                26,
                0,
            ],
            "a zero-knob plan diverged from the pre-gray golden schedule"
        );
    }
    let r2 = run(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
}
