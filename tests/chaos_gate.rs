//! Chaos gate: seeded fault schedules (amnesia and recover crashes,
//! client crashes, partitions, loss, duplication, jitter, and data
//! corruption — bit flips on both legs, torn writes into crash
//! windows, plus disk faults against the durable segment tier: torn
//! log tails on crash and at-rest bit rot in sealed segments) drive
//! the real protocol stacks while complete operation histories are
//! recorded. The gate then demands proof, not survival: histories must
//! be linearizable, the recovery protocols must visibly fire (local
//! segment replay, delta quorum resyncs, cooperative-termination
//! reclaims), corruption must be caught by the CRC layers rather than
//! surface as wrong answers, nothing may stay stuck, and the same seed
//! must reproduce bit-identical results.

use std::sync::{Arc, Mutex};

use prism_core::integrity::IntegrityStats;
use prism_harness::adapters::PrismTxAdapter;
use prism_harness::chaos::{check_history, ChaosKvAdapter, ChaosRsAdapter, HistKind, HistOp};
use prism_harness::cluster::{KvCluster, RsShards};
use prism_harness::netsim::{run_closed_loop_with, RecoveryHooks, RunResult, VerbPath};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_rs::prism_rs::{drive as rs_drive, RsCluster, RsConfig};
use prism_rs::RsOutcome;
use prism_simnet::fault::{ChaosSpec, FaultPlan, TailPolicy};
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen};

mod support;
use support::{assert_golden, fault_line, history_key, metrics_key, run_key, seed_or};

const WARMUP: SimDuration = SimDuration::from_nanos(400_000);
const MEASURE: SimDuration = SimDuration::from_nanos(2_400_000);
const HORIZON: SimDuration = SimDuration::from_nanos(2_800_000);
const BLOCKS: u64 = 8;
const VALUE: usize = 64;

// ---------------------------------------------------------------------
// PRISM-RS: amnesia crashes with quorum rejoin
// ---------------------------------------------------------------------

fn rs_chaos(seed: u64) -> (RunResult, Vec<HistOp>, u64, u64) {
    // No extra spare-buffer provisioning: replies lost on the return leg
    // are harvested for their orphaned allocations when they finally
    // straggle in (`on_stale_reply`), so the paper's pool sizing holds
    // even under sustained loss.
    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    let cluster = Arc::new(RsCluster::new(3, &config));
    let servers: Vec<_> = (0..3)
        .map(|i| Arc::clone(cluster.replica(i).server()))
        .collect();
    let history = Arc::new(Mutex::new(Vec::new()));
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
        // Durable-tier faults: crash-window tears cut the unsynced log
        // tail right before the rejoin replays it, and scheduled rot
        // flips bits in sealed segments at rest. Replay must detect
        // both by CRC and heal the difference from peers.
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
    let spec = ChaosSpec {
        servers: 3,
        clients: 6,
        horizon: HORIZON,
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
    };
    let mut plan = FaultPlan::chaos(seed, &spec);
    plan.timeout = SimDuration::micros(60);
    let r = run_closed_loop_with(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        spec.clients,
        &mut |i| {
            Box::new(ChaosRsAdapter::new(
                cluster.open_client().with_integrity(Arc::clone(&integrity)),
                i,
                BLOCKS,
                VALUE,
                0.5,
                Arc::clone(&history),
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
        &hooks,
    );
    let h = history.lock().expect("history lock").clone();
    (r, h, cluster.rejoins(), cluster.resyncs())
}

#[test]
fn rs_amnesia_chaos_stays_linearizable_and_rejoins() {
    let seed = seed_or(0xC4A0_0001);
    let (r, history, rejoins, resyncs) = rs_chaos(seed);
    fault_line("rs-chaos", &r);
    assert!(r.tput_ops > 0.0, "no progress under chaos: {r:?}");
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    assert!(
        rejoins > 0 && resyncs > 0,
        "restarted replica must rejoin via quorum resync (rejoins={rejoins}, resyncs={resyncs})"
    );
    assert!(
        r.replayed > 0,
        "a rejoining replica must fold records back from its local segment log: {r:?}"
    );
    assert!(
        r.disk_tears > 0,
        "the crash-window tear fault was enabled but never fired: {r:?}"
    );
    assert!(!history.is_empty(), "history must be recorded");
    assert!(
        r.corruptions_injected > 0,
        "corruption modes were enabled but never fired: {r:?}"
    );
    assert!(
        r.corruptions_detected > 0,
        "injected bit flips must be detected by the frame CRCs: {r:?}"
    );
    check_history(&history).expect("RS history must be linearizable");
    // Golden row (default seed only), captured on the commit before the
    // history-recording adapters became the figure adapters' drivers:
    // every counter and every recorded operation.
    if seed == 0xC4A0_0001 {
        assert_golden(
            "rs_chaos",
            &[run_key(&r), history_key(&history), rejoins, resyncs],
            &[0x6734_7dba_fb2f_340e, 0xdcb1_b132_b55b_ab60, 2, 13],
        );
    }

    // Same seed, fresh cluster: bit-exact replay, history included.
    let (r2, history2, rejoins2, resyncs2) = rs_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(history, history2, "recorded histories must be bit-exact");
    assert_eq!((rejoins, resyncs), (rejoins2, resyncs2));
}

// ---------------------------------------------------------------------
// PRISM-RS sharded: amnesia on one shard of a 2-group cluster
// ---------------------------------------------------------------------

fn rs_sharded_chaos(seed: u64) -> (RunResult, Vec<HistOp>, u64, u64) {
    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    // Two 3-replica groups behind a seeded shard map: 6 servers flat.
    let shards = Arc::new(RsShards::new(2, 3, &config, seed));
    let servers = shards.servers();
    let history = Arc::new(Mutex::new(Vec::new()));
    let integrity = Arc::new(IntegrityStats::new());
    let hooks = RecoveryHooks {
        on_restart: Some({
            let shards = Arc::clone(&shards);
            Arc::new(move |i| {
                shards.amnesia_restart(i);
            })
        }),
        sweep: None,
        integrity: Some(Arc::clone(&integrity)),
        control: None,
        // Flat-index disk faults: server `i` is replica `i % replicas`
        // of group `i / replicas`, same routing as the restart hook.
        disk_tear: Some({
            let shards = Arc::clone(&shards);
            Arc::new(move |i, rng| {
                let reps = shards.replicas();
                shards
                    .group(i / reps)
                    .replica(i % reps)
                    .disk()
                    .tear_tail(rng);
            })
        }),
        disk_rot: Some({
            let shards = Arc::clone(&shards);
            Arc::new(move |i, rng, bits| {
                let reps = shards.replicas();
                shards
                    .group(i / reps)
                    .replica(i % reps)
                    .disk()
                    .rot(rng, bits);
            })
        }),
        durable: Some(Arc::clone(shards.durable_stats())),
    };
    let spec = ChaosSpec {
        servers: 6,
        clients: 6,
        horizon: HORIZON,
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
    };
    let mut plan = FaultPlan::chaos(seed, &spec);
    plan.timeout = SimDuration::micros(60);
    let r = run_closed_loop_with(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        spec.clients,
        &mut |i| {
            Box::new(ChaosRsAdapter::sharded(
                shards
                    .open_clients()
                    .into_iter()
                    .map(|c| c.with_integrity(Arc::clone(&integrity)))
                    .collect(),
                shards.map().clone(),
                i,
                BLOCKS,
                VALUE,
                0.5,
                Arc::clone(&history),
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
        &hooks,
    );
    let h = history.lock().expect("history lock").clone();
    (r, h, shards.rejoins(), shards.resyncs())
}

/// The sharded-topology amnesia gate: a 2-group PRISM-RS cluster takes
/// amnesia crashes (wiped replica memory) on whichever replicas the
/// seeded schedule picks, the flat-index restart hook routes each
/// restart into the right group's rejoin protocol, and the cross-group
/// history must still pass Wing–Gong. This is the cluster layer's
/// failure-semantics proof: routing a block store across shard groups
/// must not weaken any single group's linearizability story.
#[test]
fn rs_sharded_amnesia_chaos_stays_linearizable_and_rejoins() {
    let seed = seed_or(0xC4A0_0004);
    let (r, history, rejoins, resyncs) = rs_sharded_chaos(seed);
    fault_line("rs-sharded-chaos", &r);
    assert!(r.tput_ops > 0.0, "no progress under sharded chaos: {r:?}");
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    assert!(
        rejoins > 0 && resyncs > 0,
        "restarted replicas must rejoin via their group's quorum resync \
         (rejoins={rejoins}, resyncs={resyncs})"
    );
    assert!(
        r.replayed > 0,
        "a rejoining replica must fold records back from its local segment log: {r:?}"
    );
    assert!(!history.is_empty(), "history must be recorded");
    check_history(&history).expect("sharded RS history must be linearizable");
    // Golden row (default seed only), as for `rs_chaos`.
    if seed == 0xC4A0_0004 {
        assert_golden(
            "rs_sharded_chaos",
            &[run_key(&r), history_key(&history), rejoins, resyncs],
            &[0x242d_b2cb_94c8_7513, 0x8b64_4785_2e37_fdd5, 2, 4],
        );
    }

    let (r2, history2, rejoins2, resyncs2) = rs_sharded_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(history, history2, "recorded histories must be bit-exact");
    assert_eq!((rejoins, resyncs), (rejoins2, resyncs2));
}

// ---------------------------------------------------------------------
// PRISM-RS live resharding: a 2→4 grow lands mid-chaos
// ---------------------------------------------------------------------

/// Post-run direct reads (control-plane path, epoch-unstamped) used for
/// the lost/duplicate-key audit after a live migration.
fn rs_read_direct(
    shards: &RsShards,
    clients: &[prism_rs::RsClient],
    g: usize,
    b: u64,
) -> RsOutcome {
    let healthy = vec![false; shards.replicas()];
    let (op, step) = clients[g].get(b);
    rs_drive(shards.group(g), &clients[g], op, step, &healthy)
}

#[allow(clippy::type_complexity)]
fn rs_migration_chaos(seed: u64) -> (RunResult, Vec<HistOp>, u64, u64, Option<(u64, u64)>) {
    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    // Four provisioned 3-replica groups, two active: 12 servers flat.
    // Mid-run the control plane grows the map over all four.
    let shards = Arc::new(RsShards::with_active(4, 2, 3, &config, seed));
    let servers = shards.servers();
    let history = Arc::new(Mutex::new(Vec::new()));
    let integrity = Arc::new(IntegrityStats::new());
    // `(new epoch, moved blocks)` once the migration has run.
    let migration: Arc<Mutex<Option<(u64, u64)>>> = Arc::new(Mutex::new(None));
    let hooks = RecoveryHooks {
        on_restart: Some({
            let shards = Arc::clone(&shards);
            Arc::new(move |i| {
                shards.amnesia_restart(i);
            })
        }),
        sweep: None,
        integrity: Some(Arc::clone(&integrity)),
        // Fire the live 2→4 grow mid-measurement: stream moved blocks,
        // fence old owners, flip the epoch, publish the map — atomically
        // at one instant, while amnesia crashes and loss keep firing
        // around it.
        control: Some((SimTime::from_nanos(1_600_000), {
            let shards = Arc::clone(&shards);
            let migration = Arc::clone(&migration);
            Arc::new(move || {
                let (new_map, moved) = shards.migrate_grow(4);
                *migration.lock().expect("migration lock") = Some((new_map.epoch(), moved));
            })
        })),
        // Same flat-index disk faults as the sharded gate. Replay after
        // a post-migration amnesia crash is the regression of record
        // for fence durability: a moved block's tombstone must outlive
        // the restart, or the old group would resurrect it from its log
        // and serve behind the epoch fence.
        disk_tear: Some({
            let shards = Arc::clone(&shards);
            Arc::new(move |i, rng| {
                let reps = shards.replicas();
                shards
                    .group(i / reps)
                    .replica(i % reps)
                    .disk()
                    .tear_tail(rng);
            })
        }),
        disk_rot: Some({
            let shards = Arc::clone(&shards);
            Arc::new(move |i, rng, bits| {
                let reps = shards.replicas();
                shards
                    .group(i / reps)
                    .replica(i % reps)
                    .disk()
                    .rot(rng, bits);
            })
        }),
        durable: Some(Arc::clone(shards.durable_stats())),
    };
    let spec = ChaosSpec {
        servers: 12,
        clients: 6,
        horizon: HORIZON,
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
    };
    let mut plan = FaultPlan::chaos(seed, &spec);
    plan.timeout = SimDuration::micros(60);
    let r = run_closed_loop_with(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        spec.clients,
        &mut |i| {
            Box::new(ChaosRsAdapter::sharded(
                shards
                    .open_clients()
                    .into_iter()
                    .map(|c| c.with_integrity(Arc::clone(&integrity)))
                    .collect(),
                shards.map_handle(),
                i,
                BLOCKS,
                VALUE,
                0.5,
                Arc::clone(&history),
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
        &hooks,
    );
    // Lost/duplicate-key audit, folded into the recorded history so the
    // Wing–Gong checker vouches for the final values too. Every block
    // must be readable at its post-migration home (nothing lost), and a
    // moved block's old group must refuse to serve it (no duplicate
    // owner behind the epoch fence).
    let old_map = prism_harness::cluster::ShardMap::new(2, seed);
    let new_map = shards.map();
    let clients = shards.open_clients();
    {
        let mut h = history.lock().expect("history lock");
        for b in 0..BLOCKS {
            let home = new_map.shard_of_id(b);
            match rs_read_direct(&shards, &clients, home, b) {
                RsOutcome::Value(v) => h.push(HistOp {
                    client: 999,
                    key: b,
                    invoke: SimTime::from_nanos(3_000_000 + b),
                    complete: Some(SimTime::from_nanos(3_100_000 + b)),
                    kind: HistKind::Get {
                        nonce: u64::from_le_bytes(v[..8].try_into().expect("8 bytes")),
                    },
                }),
                other => panic!("block {b} lost after migration: {other:?}"),
            }
            let old_home = old_map.shard_of_id(b);
            if old_home != home {
                assert!(
                    !matches!(
                        rs_read_direct(&shards, &clients, old_home, b),
                        RsOutcome::Value(_)
                    ),
                    "moved block {b} still served by its fenced old group {old_home}"
                );
            }
        }
    }
    let h = history.lock().expect("history lock").clone();
    let m = *migration.lock().expect("migration lock");
    (r, h, shards.rejoins(), shards.resyncs(), m)
}

/// The tentpole gate: linearizability through a live 2→4 reshard. Mid-
/// run, the control plane streams moved blocks to their new home
/// groups, fences the old owners, and flips the epoch; servers NACK
/// stale-routed requests, clients refetch the map and reroute their
/// in-flight machines; amnesia crashes and loss keep firing throughout.
/// The gate demands that the epoch fence visibly fired, that the
/// cross-epoch history (final values included) passes Wing–Gong, that
/// no block was lost or kept a duplicate owner, and that the same seed
/// replays bit-exactly.
#[test]
fn rs_migration_chaos_stays_linearizable_through_live_reshard() {
    let seed = seed_or(0xC4A0_0006);
    let (r, history, rejoins, resyncs, migration) = rs_migration_chaos(seed);
    fault_line("rs-migration-chaos", &r);
    let (epoch, moved) = migration.expect("the control-plane migration must have run");
    println!(
        "rs-migration: epoch={epoch} moved={moved} epoch_fenced={}",
        r.epoch_fenced
    );
    assert!(r.tput_ops > 0.0, "no progress under migration chaos: {r:?}");
    assert_eq!(epoch, 2, "one grow bumps the seed map's epoch 1 → 2");
    assert!(moved > 0, "a 2→4 grow over {BLOCKS} blocks must move some");
    assert!(
        r.epoch_fenced > 0,
        "stale-routed requests must be fenced by the epoch check: {r:?}"
    );
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    // Resyncs are seed-dependent here: with twelve servers the crash
    // schedule may land on standby-group replicas holding no written
    // blocks, which rejoin without copying anything. Rejoining itself
    // is mandatory; the resync count only has to replay bit-exactly.
    assert!(
        rejoins > 0,
        "restarted replicas must rejoin (rejoins={rejoins})"
    );
    assert!(!history.is_empty(), "history must be recorded");
    check_history(&history).expect("history must stay linearizable through the live reshard");
    // Golden row (default seed only), as for `rs_chaos`; the history
    // includes the post-migration audit reads.
    if seed == 0xC4A0_0006 {
        assert_golden(
            "rs_migration_chaos",
            &[run_key(&r), history_key(&history), rejoins, resyncs, moved],
            &[0x87b1_a1c2_ce50_e7ed, 0x57cd_83d0_1ccf_56a5, 2, 1, 4],
        );
    }

    let (r2, history2, rejoins2, resyncs2, migration2) = rs_migration_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(history, history2, "recorded histories must be bit-exact");
    assert_eq!((rejoins, resyncs), (rejoins2, resyncs2));
    assert_eq!(migration, migration2);
}

// ---------------------------------------------------------------------
// PRISM-KV: recover crashes, client crashes, partitions
// ---------------------------------------------------------------------

fn kv_chaos(seed: u64) -> (RunResult, Vec<HistOp>) {
    // No extra buffer headroom: a reply lost on the return leg is
    // harvested for its orphaned allocation when it straggles in
    // (`on_stale_reply`), so lost replies no longer leak buffers.
    let config = PrismKvConfig::paper(BLOCKS, VALUE);
    let server = Arc::new(PrismKvServer::new(&config));
    let servers = vec![Arc::clone(server.server())];
    let history = Arc::new(Mutex::new(Vec::new()));
    let integrity = Arc::new(IntegrityStats::new());
    // Amnesia is now survivable for single-copy KV: every acknowledged
    // write sat behind a synced segment append (the durable tap runs
    // inside the execute path, before the ack), so a wiped server
    // replays its own log instead of needing peers. Clients observe the
    // bumped rkey incarnation, refence, and retry. Crash-window disk
    // tears are provably harmless here — nothing unsynced exists to
    // tear — which the gate asserts via `segments_truncated == 0`.
    let hooks = RecoveryHooks {
        on_restart: Some({
            let server = Arc::clone(&server);
            Arc::new(move |_i| {
                server.amnesia_restart();
            })
        }),
        disk_tear: Some({
            let server = Arc::clone(&server);
            Arc::new(move |_i, rng| {
                server.disk().tear_tail(rng);
            })
        }),
        durable: Some(Arc::clone(server.durable_stats())),
        integrity: Some(Arc::clone(&integrity)),
        ..RecoveryHooks::default()
    };
    // No at-rest rot: a single-copy store has no replica to heal a
    // rotted acknowledged record from, so that fault class belongs to
    // RS (see the gates above). Tears are fair game — see the hook.
    let spec = ChaosSpec {
        servers: 1,
        clients: 4,
        horizon: HORIZON,
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
    let mut plan = FaultPlan::chaos(seed, &spec);
    plan.timeout = SimDuration::micros(60);
    let r = run_closed_loop_with(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        spec.clients,
        &mut |i| {
            Box::new(ChaosKvAdapter::new(
                server.open_client().with_integrity(Arc::clone(&integrity)),
                i,
                BLOCKS,
                VALUE,
                0.5,
                Arc::clone(&history),
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
        &hooks,
    );
    let h = history.lock().expect("history lock").clone();
    (r, h)
}

#[test]
fn kv_chaos_stays_linearizable_per_key() {
    let seed = seed_or(0xC4A0_0002);
    let (r, history) = kv_chaos(seed);
    fault_line("kv-chaos", &r);
    assert!(r.tput_ops > 0.0, "no progress under chaos: {r:?}");
    assert!(r.crash_drops > 0, "the crash window never bit: {r:?}");
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    assert!(
        r.replayed > 0,
        "the wiped server must rebuild its table from the segment log: {r:?}"
    );
    assert_eq!(
        r.segments_truncated, 0,
        "KV syncs every acknowledged append, so crash-window tears must \
         find nothing to cut: {r:?}"
    );
    assert!(!history.is_empty(), "history must be recorded");
    assert!(
        r.corruptions_injected > 0,
        "corruption modes were enabled but never fired: {r:?}"
    );
    assert!(
        r.corruptions_detected > 0,
        "injected bit flips must be detected by the frame CRCs: {r:?}"
    );
    check_history(&history).expect("KV history must be linearizable per key");
    // Golden row (default seed only), as for `rs_chaos`.
    if seed == 0xC4A0_0002 {
        assert_golden(
            "kv_chaos",
            &[run_key(&r), history_key(&history)],
            &[0x58fe_a468_2ed1_3c57, 0x59d8_ae14_68a8_4e5f],
        );
    }

    let (r2, history2) = kv_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(history, history2, "recorded histories must be bit-exact");
}

// ---------------------------------------------------------------------
// PRISM-KV sharded: recover crashes across a 2-shard cluster
// ---------------------------------------------------------------------

fn kv_sharded_chaos(seed: u64) -> (RunResult, Vec<HistOp>) {
    let config = PrismKvConfig::paper(BLOCKS, VALUE);
    let cluster = Arc::new(KvCluster::new(2, &config, seed));
    let servers = cluster.servers();
    let history = Arc::new(Mutex::new(Vec::new()));
    let integrity = Arc::new(IntegrityStats::new());
    // Amnesia crashes land on whichever shard the schedule picks; each
    // wiped shard replays its own segment log (single-copy KV needs no
    // peers — acknowledged writes are write-through to the synced log),
    // and routed clients refence against the bumped incarnation.
    let hooks = RecoveryHooks {
        on_restart: Some({
            let cluster = Arc::clone(&cluster);
            Arc::new(move |i| {
                cluster.amnesia_restart(i);
            })
        }),
        disk_tear: Some({
            let cluster = Arc::clone(&cluster);
            Arc::new(move |i, rng| {
                cluster.shard(i).disk().tear_tail(rng);
            })
        }),
        durable: Some(Arc::clone(cluster.durable_stats())),
        integrity: Some(Arc::clone(&integrity)),
        ..RecoveryHooks::default()
    };
    let spec = ChaosSpec {
        servers: 2,
        clients: 4,
        horizon: HORIZON,
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
    let mut plan = FaultPlan::chaos(seed, &spec);
    plan.timeout = SimDuration::micros(60);
    let r = run_closed_loop_with(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        spec.clients,
        &mut |i| {
            Box::new(ChaosKvAdapter::sharded(
                (0..2)
                    .map(|s| {
                        cluster
                            .shard(s)
                            .open_client()
                            .with_integrity(Arc::clone(&integrity))
                    })
                    .collect(),
                cluster.map().clone(),
                i,
                BLOCKS,
                VALUE,
                0.5,
                Arc::clone(&history),
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
        &hooks,
    );
    let h = history.lock().expect("history lock").clone();
    (r, h)
}

/// Per-key linearizability must survive sharding: operations route to
/// each key's home shard while one shard takes a recover crash and the
/// transport flips bits. A routing bug that sent a key's PUT and a
/// later GET to different shards would surface here as a stale read.
#[test]
fn kv_sharded_chaos_stays_linearizable_per_key() {
    let seed = seed_or(0xC4A0_0005);
    let (r, history) = kv_sharded_chaos(seed);
    fault_line("kv-sharded-chaos", &r);
    assert!(r.tput_ops > 0.0, "no progress under sharded chaos: {r:?}");
    assert!(r.crash_drops > 0, "the crash window never bit: {r:?}");
    assert!(r.restarts > 0, "no amnesia window fired: {r:?}");
    assert!(
        r.replayed > 0,
        "a wiped shard must rebuild its table from the segment log: {r:?}"
    );
    assert_eq!(
        r.segments_truncated, 0,
        "KV syncs every acknowledged append, so crash-window tears must \
         find nothing to cut: {r:?}"
    );
    assert!(!history.is_empty(), "history must be recorded");
    check_history(&history).expect("sharded KV history must be linearizable per key");
    // Golden row (default seed only), as for `rs_chaos`.
    if seed == 0xC4A0_0005 {
        assert_golden(
            "kv_sharded_chaos",
            &[run_key(&r), history_key(&history)],
            &[0xaf9e_4d24_bf3c_099a, 0x4717_ef3a_b79d_bd54],
        );
    }

    let (r2, history2) = kv_sharded_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(history, history2, "recorded histories must be bit-exact");
}

// ---------------------------------------------------------------------
// PRISM-TX: client crashes with cooperative-termination reclamation
// ---------------------------------------------------------------------

fn tx_chaos(seed: u64) -> (RunResult, u64, u64) {
    let mut config = TxConfig::paper(64, VALUE as u64);
    // Unlike the KV/RS gates (whose lost-reply leaks are now harvested
    // via `on_stale_reply`), TX headroom here covers buffers held by
    // *dangling prepares* of crashed clients — live protocol state
    // until the cooperative-termination sweep reclaims it, not a leak.
    config.spare_buffers += 8_192;
    let cluster = Arc::new(TxCluster::new(1, &config));
    let servers = vec![Arc::clone(cluster.shard(0).server())];
    let integrity = Arc::new(IntegrityStats::new());
    let hooks = RecoveryHooks {
        on_restart: None,
        sweep: Some((SimDuration::micros(150), {
            let cluster = Arc::clone(&cluster);
            Arc::new(move |i| {
                cluster.sweep_shard(i);
            })
        })),
        integrity: Some(Arc::clone(&integrity)),
        control: None,
        ..RecoveryHooks::default()
    };
    // No server crash windows, so torn writes cannot be scheduled here;
    // both frame legs still see flips. TX keeps no durable tier yet, so
    // both disk fault classes stay off.
    let spec = ChaosSpec {
        servers: 1,
        clients: 6,
        horizon: HORIZON,
        server_crashes: 0,
        amnesia_fraction: 0.0,
        client_crashes: 3,
        partitions: 1,
        drop_prob: 0.01,
        dup_prob: 0.0,
        jitter_ns: 1_000,
        flip_req_prob: 0.01,
        flip_reply_prob: 0.01,
        torn_write_prob: 0.0,
        disk_torn_prob: 0.0,
        disk_rot_events: 0,
        slowdowns: 0,
        slowdown_factor: 0,
        reply_partitions: 0,
        flaps: 0,
        tail: TailPolicy::default(),
    };
    let mut plan = FaultPlan::chaos(seed, &spec);
    plan.timeout = SimDuration::micros(60);
    let r = run_closed_loop_with(
        &servers,
        &CostModel::testbed(),
        VerbPath::Nic,
        spec.clients,
        &mut |i| {
            Box::new(PrismTxAdapter::new(
                cluster.open_client().with_integrity(Arc::clone(&integrity)),
                TxnGen::new(
                    KeyDist::uniform(64),
                    2,
                    VALUE,
                    SimRng::new(seed ^ ((i as u64 + 1) * 31)),
                ),
            ))
        },
        WARMUP,
        MEASURE,
        seed,
        &plan,
        &hooks,
    );
    // The run freezes with closed-loop operations mid-flight; two more
    // lease intervals of sweeping reclaim whatever they left prepared,
    // exactly as a live deployment's periodic sweep would.
    cluster.sweep_shard(0);
    cluster.sweep_shard(0);
    (r, cluster.reclaims(), cluster.stuck_keys())
}

#[test]
fn tx_client_crash_chaos_reclaims_every_dangling_prepare() {
    let seed = seed_or(0xC4A0_0003);
    let (r, reclaims, stuck) = tx_chaos(seed);
    fault_line("tx-chaos", &r);
    assert!(r.tput_ops > 0.0, "no progress under chaos: {r:?}");
    assert!(r.client_restarts > 0, "no client crash fired: {r:?}");
    assert!(
        reclaims > 0,
        "crashed clients' dangling prepares must be reclaimed (reclaims={reclaims})"
    );
    assert!(
        r.corruptions_injected > 0 && r.corruptions_detected > 0,
        "corruption modes were enabled but never fired or went undetected: {r:?}"
    );
    assert_eq!(stuck, 0, "no key may stay stuck after the final sweeps");

    let (r2, _, stuck2) = tx_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(stuck2, 0);
}
