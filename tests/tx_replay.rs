//! Same-seed replay of the transaction systems where a transaction
//! spans shards: four shards, four keys per transaction, sixteen
//! closed-loop clients over a skewed key space (so attempts abort, back
//! off and retry). Each phase of an attempt sends one request per shard
//! it touches; the order of those sends decides the order of simulated
//! events, so it must be a function of the transaction — never of a
//! hash map's per-process iteration order. Two runs in one process must
//! agree on every field of [`RunResult`], floats by bit pattern — on a
//! pristine fabric, and on a lossy, jittery one, where every send draws
//! from its client's fault stream in send order, so that two sends
//! swapped within one instant change which of them is dropped.

use std::sync::Arc;

use prism_harness::adapters::{batching_spares, FarmAdapter, PrismTxAdapter};
use prism_harness::cluster::System;
use prism_harness::netsim::{
    run_closed_loop_with, ProtoAdapter, RecoveryHooks, RunResult, VerbPath,
};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::SimDuration;
use prism_testkit::seed_or;
use prism_tx::farm::{FarmCluster, FarmConfig};
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen};

mod support;
use support::{assert_golden, assert_settled, metrics_key, run_key};

const SHARDS: usize = 4;
const KEYS: u64 = 4_096;
const VALUE: usize = 64;
const KEYS_PER_TXN: usize = 4;
const CLIENTS: usize = 16;
const WARMUP: SimDuration = SimDuration::from_nanos(200_000);
const MEASURE: SimDuration = SimDuration::from_nanos(2_000_000);

fn txn_gen(seed: u64, client: usize) -> TxnGen {
    TxnGen::new(
        KeyDist::zipf(KEYS, 0.9),
        KEYS_PER_TXN,
        VALUE,
        SimRng::new(seed ^ ((client as u64 + 1) * 31)),
    )
}

/// The two fabrics every replay is checked on.
fn fabrics(seed: u64) -> [FaultPlan; 2] {
    [
        FaultPlan::default(),
        FaultPlan::seeded(seed)
            .with_timeout(SimDuration::micros(60))
            .with_loss(0.02, 0.01)
            .with_jitter(500),
    ]
}

/// Runs `system` closed-loop, then settles and reclaims it: whatever the
/// run left held, the lease takes back, and the pools keep their law
/// ([`assert_settled`]).
fn run(
    system: &dyn System,
    seed: u64,
    faults: &FaultPlan,
    hooks: &RecoveryHooks,
    mk_adapter: &mut dyn FnMut(usize) -> Box<dyn ProtoAdapter>,
) -> RunResult {
    let r = run_closed_loop_with(
        &system.servers(),
        &CostModel::testbed(),
        VerbPath::Nic,
        CLIENTS,
        mk_adapter,
        WARMUP,
        MEASURE,
        seed,
        faults,
        hooks,
    );
    assert!(r.tput_ops > 0.0, "run made no progress: {r:?}");
    assert!(r.backoffs > 0, "skew must make attempts abort: {r:?}");
    assert_settled(system, "replay");
    r
}

fn prism_tx_run(seed: u64, faults: &FaultPlan) -> RunResult {
    let mut config = TxConfig::paper(KEYS / SHARDS as u64, VALUE as u64);
    config.spare_buffers += batching_spares(CLIENTS);
    let cluster = TxCluster::new(SHARDS, &config);
    run(
        &cluster,
        seed,
        faults,
        &RecoveryHooks::default(),
        &mut |i| Box::new(PrismTxAdapter::new(cluster.open_client(), txn_gen(seed, i))),
    )
}

/// FaRM, with the lock-lease sweep every 150 µs: a lock whose unlock
/// (or update) request was lost stays held until a sweep sees it twice,
/// and without the sweep the lossy run all but stalls behind such locks.
fn farm_run(seed: u64, faults: &FaultPlan) -> RunResult {
    let cluster = Arc::new(FarmCluster::new(
        SHARDS,
        &FarmConfig {
            keys_per_shard: KEYS / SHARDS as u64,
            value_len: VALUE as u64,
        },
    ));
    let hooks = RecoveryHooks::sweeping(Arc::clone(&cluster) as Arc<dyn System>);
    run(&*cluster, seed, faults, &hooks, &mut |i| {
        Box::new(FarmAdapter::new(cluster.open_client(), txn_gen(seed, i)))
    })
}

#[test]
fn multi_shard_prism_tx_replays_bit_exactly() {
    let seed = seed_or(0x7A_17);
    let mut rows = Vec::new();
    for faults in &fabrics(seed) {
        let r = prism_tx_run(seed, faults);
        assert_eq!(
            metrics_key(&r),
            metrics_key(&prism_tx_run(seed, faults)),
            "same seed, same process, different PRISM-TX run (lossy: {})",
            !faults.is_noop()
        );
        rows.push(run_key(&r));
    }
    // Golden rows (default seed only), pristine then lossy, captured on
    // the commit before the PRISM-TX and FaRM adapters were folded into
    // one driver.
    if seed == 0x7A_17 {
        assert_golden(
            "prism-tx replay",
            &rows,
            &[0x3ab0_9d96_df4e_61b4, 0xee86_2910_5df1_ceda],
        );
    }
}

/// The FaRM baseline on both fabrics. On the lossy one a timed-out lock
/// RPC aborts the attempt with that lock in doubt (the unlock covers
/// it) and a timed-out update fails it, where the state machine used to
/// panic on the synthesized reply.
#[test]
fn multi_shard_farm_replays_bit_exactly() {
    let seed = seed_or(0x7A_18);
    let [faults, lossy] = fabrics(seed);
    let r = farm_run(seed, &faults);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&farm_run(seed, &faults)),
        "same seed, same process, different FaRM run"
    );
    // Golden row (default seed only), as for PRISM-TX.
    if seed == 0x7A_18 {
        assert_golden("farm replay", &[run_key(&r)], &[0x0518_76a0_0113_d559]);
    }

    let r = farm_run(seed, &lossy);
    assert!(r.drops > 0 && r.timeouts > 0, "loss never bit: {r:?}");
    assert_eq!(
        metrics_key(&r),
        metrics_key(&farm_run(seed, &lossy)),
        "same seed, same process, different lossy FaRM run"
    );
    if seed == 0x7A_18 {
        assert_golden(
            "lossy farm replay",
            &[run_key(&r)],
            &[0x0f81_fdb2_2f41_7c35],
        );
    }
}
