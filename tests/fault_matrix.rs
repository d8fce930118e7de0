//! Fault-matrix smoke: every protocol family (KV, RS, TX) and its
//! baseline (Pilaf, ABDLOCK, FaRM) survives the canonical fault mixes —
//! loss-only, crash-only, loss-plus-crash, a gray straggler window, and
//! the full loss+crash+straggler stack — making progress without panics
//! while the injected faults visibly bite, and settles afterwards with
//! nothing held and every pool buffer live or free. The six deployments
//! are one table ([`DEPLOYMENTS`]) run through one cell loop. The
//! straggler column runs with every tail-tolerance policy disabled: a
//! 4x-slowed server must be survivable on correctness alone, hedging is
//! an optimization (see `gray_gate`), never a crutch. Windows are short
//! fixed spans: the matrix is a gate, not a benchmark.

use std::sync::Arc;

use prism_core::freelist::Pooled;
use prism_harness::adapters::{
    batching_spares, AbdLockAdapter, FarmAdapter, PilafAdapter, PrismKvAdapter, PrismRsAdapter,
    PrismTxAdapter,
};
use prism_harness::cluster::System;
use prism_harness::kv_exp;
use prism_harness::netsim::{run_closed_loop, ProtoAdapter, RunResult, VerbPath};
use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_rs::abdlock::{AbdLockCluster, AbdLockConfig};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_testkit::seed_or;
use prism_tx::farm::{FarmCluster, FarmConfig};
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen, YcsbConfig};

mod support;
use support::{assert_golden, assert_settled, fault_line, run_key};

/// Default matrix seed; `PRISM_TEST_SEED=<n>` moves it so CI can check
/// the determinism claims at more than one point. The golden rows hold
/// at the default only.
const DEFAULT_SEED: u64 = 0x5A0_7E57;
const KEYS: u64 = 256;
/// The RS cells' block count.
const BLOCKS: u64 = 8;
/// Closed-loop clients of the skewed settle check.
const SKEWED_CLIENTS: usize = 32;
const VALUE: usize = 64;
const WARMUP: SimDuration = SimDuration::from_nanos(200_000);
const MEASURE: SimDuration = SimDuration::from_nanos(1_200_000);

/// One cell of the matrix: which fault ingredients are active.
#[derive(Clone, Copy)]
struct Mix {
    label: &'static str,
    loss: bool,
    crash: bool,
    straggler: bool,
}

#[rustfmt::skip]
const MATRIX: [Mix; 5] = [
    Mix { label: "loss-only", loss: true, crash: false, straggler: false },
    Mix { label: "crash-only", loss: false, crash: true, straggler: false },
    Mix { label: "loss+crash", loss: true, crash: true, straggler: false },
    Mix { label: "straggler-only", loss: false, crash: false, straggler: true },
    Mix { label: "loss+crash+straggler", loss: true, crash: true, straggler: true },
];

/// Builds the plan for one cell. `crash_server` picks the victim so
/// quorum systems can keep a majority alive; `slow_server` takes the
/// 4x straggler window (kept off the crash victim so both gray and
/// fail-stop faults are live at once in the combined cell).
fn plan(mix: Mix, crash_server: usize, slow_server: usize, seed: u64) -> FaultPlan {
    let mut p = FaultPlan::seeded(seed).with_timeout(SimDuration::micros(60));
    if mix.loss {
        p = p.with_loss(0.02, 0.01);
    }
    if mix.crash {
        p = p.with_crash(
            crash_server,
            SimTime::from_nanos(400_000),
            SimTime::from_nanos(800_000),
        );
    }
    if mix.straggler {
        p = p.with_slowdown(
            slow_server,
            SimTime::from_nanos(300_000),
            SimTime::from_nanos(1_000_000),
            4,
        );
    }
    p
}

/// What every cell `cell` of mix `mix` must show: progress, and each of
/// its faults biting, with no tail-tolerance policy at work.
fn check(cell: &str, mix: Mix, r: &RunResult) {
    assert!(r.tput_ops > 0.0, "{cell}: no progress: {r:?}");
    if mix.loss {
        assert!(r.drops > 0, "{cell}: loss never bit: {r:?}");
    }
    if mix.crash {
        assert!(r.crash_drops > 0, "{cell}: crash window never bit: {r:?}");
    }
    if mix.straggler {
        assert!(r.slowdown_windows > 0, "{cell}: straggler never bit: {r:?}");
        assert_eq!(r.hedges, 0, "{cell}: the matrix runs policy-free");
    }
}

/// A deployment's system and client `i`'s adapter, over a fresh store.
type Stood = (
    Arc<dyn System>,
    Box<dyn FnMut(usize) -> Box<dyn ProtoAdapter>>,
);

/// One deployment under the matrix: its name, its stand-up (run seed,
/// Zipf coefficient of its keys and client count), the crash victim,
/// the straggler host, and its golden rows at the default seed, one per
/// cell in matrix order.
struct Deployment {
    name: &'static str,
    stand: fn(u64, f64, usize) -> Stood,
    crash: usize,
    slow: usize,
    golden: [u64; 5],
}

/// The KV cells' YCSB mix: half GETs over Zipf-`zipf` keys.
fn ycsb(zipf: f64) -> YcsbConfig {
    YcsbConfig {
        dist: KeyDist::zipf(KEYS, zipf),
        read_fraction: 0.5,
        value_len: VALUE,
    }
}

/// PRISM-KV on one preloaded server.
fn prism_kv(seed: u64, zipf: f64, clients: usize) -> Stood {
    let mut config = PrismKvConfig::paper(KEYS, VALUE);
    config.classes[0].count += batching_spares(clients);
    let server = Arc::new(PrismKvServer::new(&config));
    kv_exp::preload_prism(&server, KEYS, VALUE);
    let (store, ycsb) = (Arc::clone(&server), ycsb(zipf));
    let mk = move |i: usize| -> Box<dyn ProtoAdapter> {
        let rng = SimRng::new(seed ^ ((i as u64 + 1) * 7));
        Box::new(PrismKvAdapter::new(store.open_client(), ycsb.clone(), rng))
    };
    (server, Box::new(mk))
}

/// Pilaf under the KV cells' workload, on one preloaded server.
fn pilaf(seed: u64, zipf: f64, _clients: usize) -> Stood {
    let server = Arc::new(PilafServer::new(&PilafConfig::paper(KEYS, VALUE)));
    kv_exp::preload_pilaf(&server, KEYS, VALUE);
    let (store, ycsb) = (Arc::clone(&server), ycsb(zipf));
    let mk = move |i: usize| -> Box<dyn ProtoAdapter> {
        let rng = SimRng::new(seed ^ ((i as u64 + 1) * 7));
        Box::new(PilafAdapter::new(store.open_client(), ycsb.clone(), rng))
    };
    (server, Box::new(mk))
}

/// PRISM-RS on three replicas of eight blocks, half writes.
fn prism_rs(_seed: u64, zipf: f64, clients: usize) -> Stood {
    let mut config = RsConfig::paper(BLOCKS, VALUE as u64);
    config.spare_buffers += batching_spares(clients);
    let cluster = Arc::new(RsCluster::new(3, &config));
    let (group, dist) = (Arc::clone(&cluster), KeyDist::zipf(BLOCKS, zipf));
    let mk = move |_| -> Box<dyn ProtoAdapter> {
        let client = group.open_client();
        Box::new(PrismRsAdapter::new(client, dist.clone(), VALUE, 0.5))
    };
    (cluster, Box::new(mk))
}

/// ABDLOCK under the RS cells' workload, on three replicas.
fn abdlock(seed: u64, zipf: f64, _clients: usize) -> Stood {
    let config = AbdLockConfig {
        n_blocks: BLOCKS,
        block_size: VALUE as u64,
    };
    let cluster = Arc::new(AbdLockCluster::new(3, &config));
    let (group, dist) = (Arc::clone(&cluster), KeyDist::zipf(BLOCKS, zipf));
    let mk = move |i: usize| -> Box<dyn ProtoAdapter> {
        let client = group.open_client(seed ^ i as u64);
        Box::new(AbdLockAdapter::new(client, dist.clone(), VALUE, 0.5))
    };
    (cluster, Box::new(mk))
}

/// PRISM-TX on one shard, one key per transaction.
fn prism_tx(seed: u64, zipf: f64, clients: usize) -> Stood {
    let mut config = TxConfig::paper(KEYS, VALUE as u64);
    config.spare_buffers += batching_spares(clients);
    let cluster = Arc::new(TxCluster::new(1, &config));
    let (shards, dist) = (Arc::clone(&cluster), KeyDist::zipf(KEYS, zipf));
    let mk = move |i: usize| -> Box<dyn ProtoAdapter> {
        let rng = SimRng::new(seed ^ ((i as u64 + 1) * 31));
        let gen = TxnGen::new(dist.clone(), 1, VALUE, rng);
        Box::new(PrismTxAdapter::new(shards.open_client(), gen))
    };
    (cluster, Box::new(mk))
}

/// FaRM under the TX cells' workload, on one shard.
fn farm(seed: u64, zipf: f64, _clients: usize) -> Stood {
    let config = FarmConfig {
        keys_per_shard: KEYS,
        value_len: VALUE as u64,
    };
    let cluster = Arc::new(FarmCluster::new(1, &config));
    let (shards, dist) = (Arc::clone(&cluster), KeyDist::zipf(KEYS, zipf));
    let mk = move |i: usize| -> Box<dyn ProtoAdapter> {
        let rng = SimRng::new(seed ^ ((i as u64 + 1) * 37));
        let gen = TxnGen::new(dist.clone(), 1, VALUE, rng);
        Box::new(FarmAdapter::new(shards.open_client(), gen))
    };
    (cluster, Box::new(mk))
}

/// The six deployments. Golden rows were captured before the KV, RS and
/// TX drivers were folded into one (FaRM's when it joined the matrix):
/// every field of each cell's result.
#[rustfmt::skip]
const DEPLOYMENTS: [Deployment; 6] = [
    Deployment { name: "kv", stand: prism_kv, crash: 0, slow: 0, golden: [0x7ad2_0aa0_f5f5_c87c, 0x64e7_3b14_b1c5_c9b4, 0x8bfb_3d6f_4f10_850a, 0xd32a_fe09_dc65_f4b4, 0x9067_1dee_8076_a194] },
    Deployment { name: "pilaf", stand: pilaf, crash: 0, slow: 0, golden: [0xdadd_8779_f53f_ecd7, 0xb54b_10d5_8285_f811, 0xd7e2_ea7c_ec21_a194, 0x6a12_0d1a_c098_c88e, 0x88f1_cc20_ed15_03d6] },
    Deployment { name: "rs", stand: prism_rs, crash: 1, slow: 2, golden: [0x8a36_7a52_e68e_6f3d, 0x74b4_9561_15f6_ec0f, 0x2ec1_1d68_1f05_e7b1, 0xbdb7_3237_2abc_8b58, 0x0c08_2298_6645_3b09] },
    Deployment { name: "abdlock", stand: abdlock, crash: 1, slow: 2, golden: [0xf2b5_8ec8_3cc8_eefc, 0xf740_d8e2_35bb_55a6, 0x99c2_67c7_9410_b623, 0x825c_3a0a_2c83_3a17, 0x2c0c_3015_1734_fe10] },
    Deployment { name: "tx", stand: prism_tx, crash: 0, slow: 0, golden: [0x9a55_d0c4_9323_e696, 0x152e_8cd8_a16c_3dc5, 0xaa4c_b144_5cb7_694f, 0x39d9_458e_8630_2307, 0x5db7_c696_f4aa_741e] },
    Deployment { name: "farm", stand: farm, crash: 0, slow: 0, golden: [0x058d_baec_426b_e09a, 0x10a1_286b_1136_526e, 0x2fd5_d308_241b_aa1e, 0x7cce_3ac2_07eb_3831, 0x55cc_8171_2150_b9c2] },
];

/// Stands `d` up over Zipf-`zipf` keys and runs `clients` closed-loop
/// clients under `plan`; then the system settles and reclaims, and both
/// laws must hold ([`assert_settled`]). Returns the run and the count
/// held before it settled.
fn settled_run(
    d: &Deployment,
    (seed, zipf): (u64, f64),
    clients: usize,
    plan: &FaultPlan,
) -> (RunResult, u64) {
    let (system, mut mk) = (d.stand)(seed, zipf, clients);
    let (servers, model) = (system.servers(), CostModel::testbed());
    let r = run_closed_loop(
        &servers,
        &model,
        VerbPath::Nic,
        clients,
        &mut mk,
        WARMUP,
        MEASURE,
        seed,
        plan,
    );
    (r, assert_settled(&*system, d.name))
}

/// Runs the five cells of each named deployment on a fresh store per
/// cell, under uniform keys, and prints each cell's counters with the
/// count its system held before it settled.
fn survives(names: &[&str]) {
    let seed = seed_or(DEFAULT_SEED);
    for d in DEPLOYMENTS.iter().filter(|d| names.contains(&d.name)) {
        let mut rows = Vec::new();
        for mix in MATRIX {
            let plan = plan(mix, d.crash, d.slow, seed);
            let (r, held) = settled_run(d, (seed, 0.0), 4, &plan);
            let cell = format!("{}/{}", d.name, mix.label);
            fault_line(&format!("{cell} held={held}"), &r);
            check(&cell, mix, &r);
            rows.push(run_key(&r));
        }
        if seed == DEFAULT_SEED {
            assert_golden(d.name, &rows, &d.golden);
        }
    }
}

#[test]
fn kv_survives_the_fault_matrix() {
    survives(&["kv"]);
}

#[test]
fn rs_survives_the_fault_matrix() {
    survives(&["rs"]);
}

#[test]
fn tx_survives_the_fault_matrix() {
    survives(&["tx"]);
}

/// The baselines (Pilaf, ABDLOCK, FaRM) through the same cells. ABDLOCK's
/// three loss cells run far below its crash-only one: a lost unlock
/// leaves its lock held, and this baseline grants no lease to break it.
#[test]
fn baselines_survive_the_fault_matrix() {
    survives(&["pilaf", "abdlock", "farm"]);
}

/// A pristine run under heavy skew, on a store that is kept: whatever
/// the window's end froze in flight, `settle` releases, for every
/// deployment. PRISM-TX's frozen prepares are the case with teeth.
#[test]
fn every_deployment_settles_a_skewed_pristine_run() {
    let seed = seed_or(DEFAULT_SEED);
    for d in &DEPLOYMENTS {
        let pristine = FaultPlan::default();
        let (r, held) = settled_run(d, (seed, 0.99), SKEWED_CLIENTS, &pristine);
        assert!(r.tput_ops > 0.0, "{}: no progress: {r:?}", d.name);
        assert!(
            d.name != "tx" || held > 0,
            "the window's end must freeze a PRISM-TX prepare: {r:?}"
        );
    }
}

/// Regression: a loss-heavy plan over an under-provisioned arena must
/// end in clean pool-exhausted failures, not a hang or panic. Lost
/// replies leak spare buffers (their frees are never sent), so a tiny
/// spare pool drains mid-run; allocation failures must surface through
/// the protocol as failed/given-up operations while the run completes.
#[test]
fn rs_pool_exhaustion_fails_clean_under_heavy_loss() {
    let seed = seed_or(DEFAULT_SEED);
    let mut config = RsConfig::paper(BLOCKS, VALUE as u64);
    config.spare_buffers = 48;
    let cluster = RsCluster::new(3, &config);
    let plan = FaultPlan::seeded(seed)
        .with_timeout(SimDuration::micros(60))
        .with_loss(0.30, 0.0);
    let r = run_closed_loop(
        &cluster.servers(),
        &CostModel::testbed(),
        VerbPath::Nic,
        8,
        &mut |_| {
            Box::new(PrismRsAdapter::new(
                cluster.open_client(),
                KeyDist::uniform(BLOCKS),
                VALUE,
                0.5,
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
    );
    assert!(r.drops > 0, "loss never bit: {r:?}");
    assert!(
        r.failed > 0 && r.giveups > 0,
        "exhaustion must surface as clean failures/giveups: {r:?}"
    );
    // Golden row (default seed only), as for the matrix cells: the
    // give-up and pool-exhausted paths.
    if seed == DEFAULT_SEED {
        assert_golden(
            "rs pool exhaustion",
            &[run_key(&r)],
            &[0xaf8a_a2a7_42fb_becb],
        );
    }
}

/// Regression for the loss-driven buffer spiral: under sustained reply
/// loss, PRISM-KV's pool level must stay *bounded by the fault counts*
/// — every missing buffer is either live in a slot, leaked by one lost
/// reply, or held by a frozen in-flight op — rather than spiraling with
/// run length as the old "provision more spares" workaround assumed.
/// And the leak is recoverable: the pool's audit ([`Pooled::audit`])
/// counts it, and one server-side [`Pooled::gc_sweep`] walks slots vs
/// pools and returns exactly it.
#[test]
fn kv_long_loss_leak_is_bounded_and_gc_sweep_restores_the_pool() {
    let seed = seed_or(DEFAULT_SEED);
    let config = PrismKvConfig::paper(KEYS, VALUE);
    let server = PrismKvServer::new(&config);
    kv_exp::preload_prism(&server, KEYS, VALUE);
    // Four measurement windows of two-sided loss: long enough that an
    // unbounded per-op leak would visibly outrun the drop count.
    let plan = FaultPlan::seeded(seed)
        .with_timeout(SimDuration::micros(60))
        .with_loss(0.10, 0.10);
    let clients = 4u64;
    let r = run_closed_loop(
        &server.servers(),
        &CostModel::testbed(),
        VerbPath::Nic,
        clients as usize,
        &mut |i| {
            Box::new(PrismKvAdapter::new(
                server.open_client(),
                ycsb(0.0),
                SimRng::new(seed ^ ((i as u64 + 1) * 7)),
            ))
        },
        WARMUP,
        SimDuration::from_nanos(4 * 1_200_000),
        seed,
        &plan,
    );
    assert!(r.drops > 0, "loss never bit: {r:?}");
    assert!(r.tput_ops > 0.0, "no progress under long loss: {r:?}");

    let audit = server.audit();
    let (live, leaked) = (audit.reached, audit.leaked());
    // Bounded: at most one buffer per dropped/timed-out reply plus one
    // per client frozen mid-op at the horizon — never "per operation".
    assert!(
        leaked <= r.drops + r.timeouts + clients,
        "leak must be bounded by fault counts, not run length: \
         leaked={leaked} drops={} timeouts={}",
        r.drops,
        r.timeouts
    );

    // Detect-and-repair: the sweep finds exactly the leaked buffers and
    // the pool returns to its no-leak level.
    let reclaimed = server.gc_sweep() as u64;
    assert_eq!(reclaimed, leaked, "gc must reclaim exactly the leak");
    assert_eq!(
        server.audit().deficit(),
        0,
        "after gc every buffer is either live in a slot or free"
    );
    // Golden row (default seed only), as for the matrix cells, plus
    // what the run left in the pool.
    if seed == DEFAULT_SEED {
        assert_golden(
            "kv long loss",
            &[run_key(&r), live, leaked],
            &[0x2b85_b0e6_2467_7220, 256, 64],
        );
    }
}
