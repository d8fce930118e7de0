//! Fault-matrix smoke: every protocol family (KV, RS, TX) survives the
//! canonical fault mixes — loss-only, crash-only, loss-plus-crash, a
//! gray straggler window, and the full loss+crash+straggler stack —
//! making progress without panics while the injected faults visibly
//! bite. The straggler column runs with every tail-tolerance policy
//! disabled: a 4x-slowed server must be survivable on correctness
//! alone, hedging is an optimization (see `gray_gate`), never a
//! crutch. Windows are short fixed spans: the matrix is a gate, not a
//! benchmark.

use std::sync::Arc;

use prism_harness::adapters::{PrismKvAdapter, PrismRsAdapter, PrismTxAdapter};
use prism_harness::kv_exp;
use prism_harness::netsim::{run_closed_loop, RunResult, VerbPath};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_testkit::seed_or;
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen, YcsbConfig};

mod support;
use support::{assert_golden, run_key};

/// Default matrix seed; `PRISM_TEST_SEED=<n>` moves it so CI can check
/// the determinism claims at more than one point. The golden rows hold
/// at the default only.
const DEFAULT_SEED: u64 = 0x5A0_7E57;
const KEYS: u64 = 256;
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

const MATRIX: [Mix; 5] = [
    Mix {
        label: "loss-only",
        loss: true,
        crash: false,
        straggler: false,
    },
    Mix {
        label: "crash-only",
        loss: false,
        crash: true,
        straggler: false,
    },
    Mix {
        label: "loss+crash",
        loss: true,
        crash: true,
        straggler: false,
    },
    Mix {
        label: "straggler-only",
        loss: false,
        crash: false,
        straggler: true,
    },
    Mix {
        label: "loss+crash+straggler",
        loss: true,
        crash: true,
        straggler: true,
    },
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

fn check(system: &str, mix: Mix, r: &RunResult) {
    assert!(
        r.tput_ops > 0.0,
        "{system}/{}: no progress: {r:?}",
        mix.label
    );
    if mix.loss {
        assert!(r.drops > 0, "{system}/{}: loss never bit: {r:?}", mix.label);
    }
    if mix.crash {
        assert!(
            r.crash_drops > 0,
            "{system}/{}: crash window never bit: {r:?}",
            mix.label
        );
    }
    if mix.straggler {
        assert!(
            r.slowdown_windows > 0,
            "{system}/{}: straggler window never bit: {r:?}",
            mix.label
        );
        assert_eq!(
            r.hedges, 0,
            "{system}/{}: the matrix runs policy-free",
            mix.label
        );
    }
}

#[test]
fn kv_survives_the_fault_matrix() {
    let seed = seed_or(DEFAULT_SEED);
    let mut rows = Vec::new();
    for mix in MATRIX {
        let mut config = PrismKvConfig::paper(KEYS, VALUE);
        // Lost replies leak buffers until their frees are resent; give
        // the faulted store headroom.
        config.classes[0].count += 4_096;
        let server = PrismKvServer::new(&config);
        kv_exp::preload_prism(&server, KEYS, VALUE);
        let servers = vec![Arc::clone(server.server())];
        let r = run_closed_loop(
            &servers,
            &CostModel::testbed(),
            VerbPath::Nic,
            4,
            &mut |i| {
                Box::new(PrismKvAdapter::new(
                    server.open_client(),
                    YcsbConfig {
                        dist: KeyDist::uniform(KEYS),
                        read_fraction: 0.5,
                        value_len: VALUE,
                    },
                    SimRng::new(seed ^ ((i as u64 + 1) * 7)),
                ))
            },
            WARMUP,
            MEASURE,
            seed,
            &plan(mix, 0, 0, seed),
        );
        check("kv", mix, &r);
        rows.push(run_key(&r));
    }
    // Golden rows (default seed only), one per cell in matrix order,
    // captured on the commit before the PRISM-KV and PRISM-RS adapters
    // and their history-recording twins were folded into one driver
    // each: every field of each result.
    if seed == DEFAULT_SEED {
        assert_golden(
            "the KV cells",
            &rows,
            &[
                0x7ad2_0aa0_f5f5_c87c,
                0x64e7_3b14_b1c5_c9b4,
                0x8bfb_3d6f_4f10_850a,
                0xd32a_fe09_dc65_f4b4,
                0x9067_1dee_8076_a194,
            ],
        );
    }
}

#[test]
fn rs_survives_the_fault_matrix() {
    let seed = seed_or(DEFAULT_SEED);
    let mut rows = Vec::new();
    for mix in MATRIX {
        let mut config = RsConfig::paper(8, VALUE as u64);
        config.spare_buffers += 4_096;
        let cluster = RsCluster::new(3, &config);
        let servers: Vec<_> = (0..3)
            .map(|r| Arc::clone(cluster.replica(r).server()))
            .collect();
        let r = run_closed_loop(
            &servers,
            &CostModel::testbed(),
            VerbPath::Nic,
            4,
            &mut |_| {
                Box::new(PrismRsAdapter::new(
                    cluster.open_client(),
                    KeyDist::uniform(8),
                    VALUE,
                    0.5,
                ))
            },
            WARMUP,
            MEASURE,
            seed,
            &plan(mix, 1, 2, seed),
        );
        check("rs", mix, &r);
        rows.push(run_key(&r));
    }
    // Golden rows (default seed only), as for the KV cells.
    if seed == DEFAULT_SEED {
        assert_golden(
            "the RS cells",
            &rows,
            &[
                0x8a36_7a52_e68e_6f3d,
                0x74b4_9561_15f6_ec0f,
                0x2ec1_1d68_1f05_e7b1,
                0xbdb7_3237_2abc_8b58,
                0x0c08_2298_6645_3b09,
            ],
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
    let mut config = RsConfig::paper(8, VALUE as u64);
    config.spare_buffers = 48;
    let cluster = RsCluster::new(3, &config);
    let servers: Vec<_> = (0..3)
        .map(|r| Arc::clone(cluster.replica(r).server()))
        .collect();
    let plan = FaultPlan::seeded(seed)
        .with_timeout(SimDuration::micros(60))
        .with_loss(0.30, 0.0);
    let r = run_closed_loop(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        8,
        &mut |_| {
            Box::new(PrismRsAdapter::new(
                cluster.open_client(),
                KeyDist::uniform(8),
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
/// And the leak is recoverable: one server-side [`PrismKvServer::
/// gc_sweep`] walks slots vs pools and restores the level to exactly
/// `count − live`.
#[test]
fn kv_long_loss_leak_is_bounded_and_gc_sweep_restores_the_pool() {
    let seed = seed_or(DEFAULT_SEED);
    let config = PrismKvConfig::paper(KEYS, VALUE);
    let server = PrismKvServer::new(&config);
    kv_exp::preload_prism(&server, KEYS, VALUE);
    let servers = vec![Arc::clone(server.server())];
    // Four measurement windows of two-sided loss: long enough that an
    // unbounded per-op leak would visibly outrun the drop count.
    let plan = FaultPlan::seeded(seed)
        .with_timeout(SimDuration::micros(60))
        .with_loss(0.10, 0.10);
    let clients = 4u64;
    let r = run_closed_loop(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        clients as usize,
        &mut |i| {
            Box::new(PrismKvAdapter::new(
                server.open_client(),
                YcsbConfig {
                    dist: KeyDist::uniform(KEYS),
                    read_fraction: 0.5,
                    value_len: VALUE,
                },
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

    let (id, _) = server.view().classes[0];
    let count = config.classes[0].count;
    let (live, _) = server.scrub();
    let available = server.server().freelists().available(id) as u64;
    let leaked = count - live - available;
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
        server.server().freelists().available(id) as u64,
        count - live,
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

#[test]
fn tx_survives_the_fault_matrix() {
    let seed = seed_or(DEFAULT_SEED);
    let mut rows = Vec::new();
    for mix in MATRIX {
        let mut config = TxConfig::paper(KEYS, VALUE as u64);
        config.spare_buffers += 4_096;
        let cluster = Arc::new(TxCluster::new(1, &config));
        let servers = vec![Arc::clone(cluster.shard(0).server())];
        let r = run_closed_loop(
            &servers,
            &CostModel::testbed(),
            VerbPath::Nic,
            4,
            &mut |i| {
                Box::new(PrismTxAdapter::new(
                    cluster.open_client(),
                    TxnGen::new(
                        KeyDist::uniform(KEYS),
                        1,
                        VALUE,
                        SimRng::new(seed ^ ((i as u64 + 1) * 31)),
                    ),
                ))
            },
            WARMUP,
            MEASURE,
            seed,
            &plan(mix, 0, 0, seed),
        );
        check("tx", mix, &r);
        rows.push(run_key(&r));
    }
    // Golden rows (default seed only), captured on the commit before the
    // PRISM-TX and FaRM adapters were folded into one driver.
    if seed == DEFAULT_SEED {
        assert_golden(
            "the TX cells",
            &rows,
            &[
                0x9a55_d0c4_9323_e696,
                0x152e_8cd8_a16c_3dc5,
                0xaa4c_b144_5cb7_694f,
                0x39d9_458e_8630_2307,
                0x5db7_c696_f4aa_741e,
            ],
        );
    }
}
