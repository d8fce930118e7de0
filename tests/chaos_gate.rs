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

use std::sync::Arc;

use prism_core::integrity::IntegrityStats;
use prism_harness::adapters::PrismTxAdapter;
use prism_harness::chaos::{chaos_plan, check_history, Outcome, Scenario, Topology, REGISTERS};
use prism_harness::netsim::{run_closed_loop_with, RecoveryHooks, RunResult, VerbPath};
use prism_simnet::fault::ChaosSpec;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_testkit::seed_or;
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen};

mod support;
use support::{assert_golden, fault_line, history_key, metrics_key, run_key};

const WARMUP: SimDuration = SimDuration::from_nanos(400_000);
const MEASURE: SimDuration = SimDuration::from_nanos(2_400_000);
const HORIZON: SimDuration = SimDuration::from_nanos(2_800_000);
const VALUE: usize = 64;

/// The KV/RS gates' scenario over `topology`: amnesia crashes, a client
/// crash, a partition, loss, duplication, jitter, flips on both legs,
/// torn writes into crash windows and disk tears at the restarts, half
/// the operations writes. No pool carries extra headroom: a reply lost
/// on the return leg is harvested for its orphaned allocation when it
/// straggles in (`on_stale_reply`), so the paper's sizing holds under
/// sustained loss.
///
/// RS runs six clients through two crashes and two at-rest rot events:
/// replay must catch the damage by CRC and heal the difference from
/// peers. Single-copy KV runs four clients through one crash and no rot
/// — it has no replica to heal a rotted acknowledged record from. Its
/// amnesia is survivable all the same: every acknowledged write sat
/// behind a synced segment append (the durable tap runs inside the
/// execute path, before the ack), so a wiped shard replays its own log,
/// and clients observe the bumped rkey incarnation, refence, and retry.
/// Disk tears are provably harmless there — nothing unsynced exists to
/// tear — which the KV gates assert via `segments_truncated == 0`.
fn chaos_scenario(seed: u64, topology: Topology) -> Scenario {
    let (clients, server_crashes, disk_rot_events) = match topology {
        Topology::Kv { .. } => (4, 1, 0),
        Topology::Rs { .. } => (6, 2, 2),
    };
    let spec = ChaosSpec {
        server_crashes,
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
        disk_rot_events,
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

/// `chaos_scenario` with a live grow to four homes fired
/// mid-measurement — stream the moved registers, fence the old owners,
/// flip the epoch, publish the map, atomically at one instant, while
/// amnesia crashes and loss keep firing around it — then the owner
/// audit, whose final reads join the history.
fn reshard_chaos(seed: u64, topology: Topology) -> Outcome {
    let mut out = Scenario {
        grow: Some((SimTime::from_nanos(1_600_000), 4)),
        ..chaos_scenario(seed, topology)
    }
    .run(seed);
    out.audit_owners()
        .expect("no register lost, none with two owners");
    out
}

// ---------------------------------------------------------------------
// PRISM-RS: amnesia crashes with quorum rejoin
// ---------------------------------------------------------------------

fn rs_chaos(seed: u64) -> Outcome {
    let one_group = Topology::Rs {
        provisioned: 1,
        active: 1,
        replicas: 3,
    };
    chaos_scenario(seed, one_group).run(seed)
}

#[test]
fn rs_amnesia_chaos_stays_linearizable_and_rejoins() {
    let seed = seed_or(0xC4A0_0001);
    let out = rs_chaos(seed);
    let (r, history, rejoins, resyncs) = (out.result, out.history, out.rejoins, out.resyncs);
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
    let again = rs_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(
        history, again.history,
        "recorded histories must be bit-exact"
    );
    assert_eq!((rejoins, resyncs), (again.rejoins, again.resyncs));
}

// ---------------------------------------------------------------------
// PRISM-RS sharded: amnesia on one shard of a 2-group cluster
// ---------------------------------------------------------------------

fn rs_sharded_chaos(seed: u64) -> Outcome {
    // Two 3-replica groups behind a seeded shard map: 6 servers flat.
    let two_groups = Topology::Rs {
        provisioned: 2,
        active: 2,
        replicas: 3,
    };
    chaos_scenario(seed, two_groups).run(seed)
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
    let out = rs_sharded_chaos(seed);
    let (r, history, rejoins, resyncs) = (out.result, out.history, out.rejoins, out.resyncs);
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

    let again = rs_sharded_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(
        history, again.history,
        "recorded histories must be bit-exact"
    );
    assert_eq!((rejoins, resyncs), (again.rejoins, again.resyncs));
}

// ---------------------------------------------------------------------
// PRISM-RS live resharding: a 2→4 grow lands mid-chaos
// ---------------------------------------------------------------------

fn rs_migration_chaos(seed: u64) -> Outcome {
    // Four provisioned 3-replica groups, two active: 12 servers flat.
    // Replay after a post-migration amnesia crash is the regression of
    // record for fence durability: a moved block's tombstone must
    // outlive the restart, or the old group would resurrect it from its
    // log and serve behind the epoch fence.
    let two_of_four = Topology::Rs {
        provisioned: 4,
        active: 2,
        replicas: 3,
    };
    reshard_chaos(seed, two_of_four)
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
    let out = rs_migration_chaos(seed);
    let (r, history, rejoins, resyncs) = (out.result, out.history, out.rejoins, out.resyncs);
    fault_line("rs-migration-chaos", &r);
    let (new_map, moved) = out
        .migration
        .clone()
        .expect("the control-plane migration must have run")
        .expect("every moved block must install at its new group");
    let epoch = new_map.epoch();
    println!(
        "rs-migration: epoch={epoch} moved={moved} epoch_fenced={}",
        r.epoch_fenced
    );
    assert!(r.tput_ops > 0.0, "no progress under migration chaos: {r:?}");
    assert_eq!(epoch, 2, "one grow bumps the seed map's epoch 1 → 2");
    assert!(
        moved > 0,
        "a 2→4 grow over {REGISTERS} blocks must move some"
    );
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

    let again = rs_migration_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(
        history, again.history,
        "recorded histories must be bit-exact"
    );
    assert_eq!((rejoins, resyncs), (again.rejoins, again.resyncs));
    assert_eq!(out.migration, again.migration);
}

// ---------------------------------------------------------------------
// PRISM-KV: recover crashes, client crashes, partitions
// ---------------------------------------------------------------------

fn kv_chaos(seed: u64) -> Outcome {
    let one_shard = Topology::Kv {
        provisioned: 1,
        active: 1,
    };
    chaos_scenario(seed, one_shard).run(seed)
}

#[test]
fn kv_chaos_stays_linearizable_per_key() {
    let seed = seed_or(0xC4A0_0002);
    let Outcome {
        result: r, history, ..
    } = kv_chaos(seed);
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

    let again = kv_chaos(seed);
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
// PRISM-KV sharded: recover crashes across a 2-shard cluster
// ---------------------------------------------------------------------

fn kv_sharded_chaos(seed: u64) -> Outcome {
    // Amnesia crashes land on whichever shard the schedule picks, and
    // routed clients refence against the bumped incarnation.
    let two_shards = Topology::Kv {
        provisioned: 2,
        active: 2,
    };
    chaos_scenario(seed, two_shards).run(seed)
}

/// Per-key linearizability must survive sharding: operations route to
/// each key's home shard while one shard takes a recover crash and the
/// transport flips bits. A routing bug that sent a key's PUT and a
/// later GET to different shards would surface here as a stale read.
#[test]
fn kv_sharded_chaos_stays_linearizable_per_key() {
    let seed = seed_or(0xC4A0_0005);
    let Outcome {
        result: r, history, ..
    } = kv_sharded_chaos(seed);
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

    let again = kv_sharded_chaos(seed);
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
// PRISM-KV live resharding: the same 2→4 grow over single-copy shards
// ---------------------------------------------------------------------

fn kv_migration_chaos(seed: u64) -> Outcome {
    // Four provisioned shards, two active; `kv_sharded_chaos`'s mix.
    let two_of_four = Topology::Kv {
        provisioned: 4,
        active: 2,
    };
    reshard_chaos(seed, two_of_four)
}

/// The live reshard is a capability of the scenario, not of PRISM-RS:
/// the same control event over single-copy KV shards. Moved keys are
/// read out of their old shard, CAS-installed at the new one and
/// DELETEd behind them; a PUT fenced mid-flight restarts at the key's
/// new home with the value it was invoked with. The cross-epoch history
/// (the audit's final reads included) must pass Wing–Gong, no key may
/// be lost or keep a second owner, and the same seed replays
/// bit-exactly.
#[test]
fn kv_migration_chaos_stays_linearizable_through_live_reshard() {
    let seed = seed_or(0xC4A0_0007);
    let out = kv_migration_chaos(seed);
    let (r, history) = (out.result, out.history);
    fault_line("kv-migration-chaos", &r);
    let (new_map, moved) = out
        .migration
        .clone()
        .expect("the control-plane migration must have run")
        .expect("every moved key must install at its new shard");
    println!(
        "kv-migration: epoch={} moved={moved} epoch_fenced={}",
        new_map.epoch(),
        r.epoch_fenced
    );
    assert!(r.tput_ops > 0.0, "no progress under migration chaos: {r:?}");
    assert_eq!((new_map.epoch(), new_map.shards()), (2, 4));
    assert!(moved > 0, "a 2→4 grow over {REGISTERS} keys must move some");
    assert!(
        r.epoch_fenced > 0,
        "stale-routed requests must be fenced by the epoch check: {r:?}"
    );
    assert_eq!(
        r.segments_truncated, 0,
        "KV syncs every acknowledged append, so crash-window tears must \
         find nothing to cut: {r:?}"
    );
    assert!(!history.is_empty(), "history must be recorded");
    check_history(&history).expect("history must stay linearizable through the live reshard");
    // Golden row (default seed only): the run, the history with the
    // audit's reads, and how many keys moved.
    if seed == 0xC4A0_0007 {
        assert_golden(
            "kv_migration_chaos",
            &[run_key(&r), history_key(&history), moved],
            &[0x1c68_51c7_1947_44e4, 0xa33e_bf8a_b094_f9dd, 5],
        );
    }

    let again = kv_migration_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&again.result),
        "replay must be bit-exact"
    );
    assert_eq!(
        history, again.history,
        "recorded histories must be bit-exact"
    );
    assert_eq!(out.migration, again.migration);
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
        sweep: Some((SimDuration::micros(150), {
            let cluster = Arc::clone(&cluster);
            Arc::new(move |i| {
                cluster.sweep_shard(i);
            })
        })),
        integrity: Some(Arc::clone(&integrity)),
        ..RecoveryHooks::default()
    };
    // No server crash windows, so torn writes cannot be scheduled here;
    // both frame legs still see flips. TX keeps no durable tier yet, so
    // both disk fault classes stay off.
    let spec = ChaosSpec {
        client_crashes: 3,
        partitions: 1,
        drop_prob: 0.01,
        jitter_ns: 1_000,
        flip_req_prob: 0.01,
        flip_reply_prob: 0.01,
        ..ChaosSpec::quiet(1, 6, HORIZON)
    };
    let plan = chaos_plan(seed, &spec);
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
    // Golden row (default seed only), captured on the commit before the
    // PRISM-TX and FaRM adapters were folded into one driver: every
    // counter, and how many prepares the sweeps reclaimed.
    if seed == 0xC4A0_0003 {
        assert_golden(
            "tx_chaos",
            &[run_key(&r), reclaims],
            &[0x9f8a_5efa_d7a7_217e, 38],
        );
    }

    let (r2, _, stuck2) = tx_chaos(seed);
    assert_eq!(
        metrics_key(&r),
        metrics_key(&r2),
        "replay must be bit-exact"
    );
    assert_eq!(stuck2, 0);
}
