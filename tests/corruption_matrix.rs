//! Corruption matrix gate: every protocol family (KV, Pilaf, RS, TX)
//! crossed with every corruption mode (in-flight bit flips, torn
//! multi-line writes, at-rest bit rot), under fixed seeds.
//!
//! Each cell asserts *conservation*, not just survival: every injected
//! corruption is either detected (and then repaired or cleanly
//! aborted) or provably neutralized — a torn write's buffer is
//! orphaned by the out-of-place update discipline, and at-rest damage
//! that nobody overwrote is still visible to a post-run scrub. Nothing
//! injected may ever surface as a silently wrong answer, every run ends
//! settled with its pools' law kept, and the same seed must replay
//! bit-exactly.

use std::sync::Arc;

use prism_core::integrity::IntegrityStats;
use prism_harness::adapters::{
    batching_spares, PilafAdapter, PrismKvAdapter, PrismRsAdapter, PrismTxAdapter,
};
use prism_harness::cluster::System;
use prism_harness::kv_exp;
use prism_harness::netsim::{
    run_closed_loop_with, ProtoAdapter, RecoveryHooks, RunResult, VerbPath,
};
use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_rs::prism_rs::{RsCluster, RsConfig, BUF_HDR};
use prism_simnet::fault::FaultPlan;
use prism_simnet::latency::CostModel;
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_tx::prism_tx::{TxCluster, TxConfig};
use prism_workload::{KeyDist, TxnGen, YcsbConfig};

mod support;
use support::{assert_golden, assert_replayed, assert_settled, metrics_key, run_key};

const SEED: u64 = 0xC0_880B;
const KEYS: u64 = 32;
const VALUE: usize = 64;
const CLIENTS: usize = 4;
const WARMUP: SimDuration = SimDuration::from_nanos(200_000);
const MEASURE: SimDuration = SimDuration::from_nanos(1_200_000);

/// The recover-crash window every torn/rot cell schedules; rot events
/// must land inside it.
const CRASH_FROM: SimTime = SimTime::from_nanos(400_000);
const CRASH_UNTIL: SimTime = SimTime::from_nanos(800_000);
const ROT_AT: SimTime = SimTime::from_nanos(500_000);

fn base_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).with_timeout(SimDuration::micros(60))
}

/// Five short crash windows instead of one long stall: payload-bearing
/// install chains are a PUT's *second* round trip, so a server that
/// stays down just makes clients stall on probes. Frequent brief
/// windows keep catching installs already in flight at each boundary —
/// the case torn writes model.
fn torn_windows(mut plan: FaultPlan, server: usize) -> FaultPlan {
    for k in 0..5u64 {
        let from = 400_000 + k * 100_000;
        plan = plan.with_crash(
            server,
            SimTime::from_nanos(from),
            SimTime::from_nanos(from + 40_000),
        );
    }
    plan.with_torn_writes(0.5)
}

/// Flip-cell conservation: the frame CRCs catch every single-bit flip
/// at the instant it is injected, and every operation that saw a
/// corrupt NACK settles as repaired (retry succeeded) or aborted.
fn assert_flip_conservation(system: &str, r: &RunResult) {
    assert!(r.tput_ops > 0.0, "{system}/flip: no progress: {r:?}");
    assert!(
        r.corruptions_injected > 0,
        "{system}/flip: flips never fired: {r:?}"
    );
    assert_eq!(
        r.corruptions_detected, r.corruptions_injected,
        "{system}/flip: every injected flip must be detected: {r:?}"
    );
    assert!(
        r.corruptions_repaired + r.aborted_corrupt > 0,
        "{system}/flip: corrupt ops must settle as repaired or aborted: {r:?}"
    );
}

/// Runs [`CLIENTS`] closed-loop clients over `system` under `plan` and
/// `hooks`; client `i` is `mk(i, sink)`, every client reporting into one
/// integrity sink that the run folds into its corruption counters. The
/// system then settles and reclaims, and both laws must hold
/// ([`assert_settled`]).
fn run(
    system: &dyn System,
    plan: &FaultPlan,
    hooks: RecoveryHooks,
    mk: impl Fn(usize, Arc<IntegrityStats>) -> Box<dyn ProtoAdapter>,
) -> RunResult {
    let integrity = Arc::new(IntegrityStats::new());
    let hooks = RecoveryHooks {
        integrity: Some(Arc::clone(&integrity)),
        ..hooks
    };
    let mut mk = |i| mk(i, Arc::clone(&integrity));
    let (model, path) = (CostModel::testbed(), VerbPath::Nic);
    let r = run_closed_loop_with(
        &system.servers(),
        &model,
        path,
        CLIENTS,
        &mut mk,
        WARMUP,
        MEASURE,
        SEED,
        plan,
        &hooks,
    );
    assert_settled(system, "corruption cell");
    r
}

/// The KV cells' YCSB mix over all the keys.
fn ycsb(read_fraction: f64) -> YcsbConfig {
    YcsbConfig {
        dist: KeyDist::uniform(KEYS),
        read_fraction,
        value_len: VALUE,
    }
}

// ---------------------------------------------------------------------
// PRISM-KV
// ---------------------------------------------------------------------

fn kv_run(plan: &FaultPlan, read_fraction: f64, rot_live_entry: bool) -> (RunResult, (u64, u64)) {
    let mut config = PrismKvConfig::paper(KEYS, VALUE);
    config.classes[0].count += batching_spares(CLIENTS);
    let server = PrismKvServer::new(&config);
    kv_exp::preload_prism(&server, KEYS, VALUE);
    let mut plan = plan.clone();
    if rot_live_entry {
        // Target the first occupied slot's live entry so the rot lands
        // on bytes a GET will actually fetch and checksum.
        let arena = server.server().arena();
        let (ptr, bound) = (0..server.view().capacity)
            .find_map(|i| {
                let slot = server.view().slot_addr(i);
                let ptr = arena.read_u64(slot).ok()?;
                if ptr == 0 {
                    return None;
                }
                Some((ptr, arena.read_u64(slot + 8).ok()?))
            })
            .expect("preloaded store has a live entry");
        plan = plan.with_rot(0, ROT_AT, ptr, bound, 3);
    }
    let r = run(&server, &plan, RecoveryHooks::default(), |i, sink| {
        let rng = SimRng::new(SEED ^ ((i as u64 + 1) * 7));
        let client = server.open_client().with_integrity(sink);
        Box::new(PrismKvAdapter::new(client, ycsb(read_fraction), rng))
    });
    (r, server.scrub())
}

#[test]
fn kv_flip_cell_detects_and_settles_every_flip() {
    let plan = base_plan(SEED ^ 1).with_flips(0.02, 0.02);
    let (r, (_, corrupt)) = kv_run(&plan, 0.5, false);
    assert_flip_conservation("kv", &r);
    assert_eq!(corrupt, 0, "flips never touch memory; scrub must be clean");
    // Golden row, captured on the commit before the PRISM-KV and
    // PRISM-RS adapters and their history-recording twins were folded
    // into one driver each: every field of the result.
    assert_golden("kv/flip", &[run_key(&r)], &[0x27ea_1dc6_6428_103a]);

    let (r2, _) = kv_run(&plan, 0.5, false);
    assert_replayed(&r, &r2);
}

#[test]
fn kv_torn_cell_orphans_every_torn_entry() {
    let plan = torn_windows(base_plan(SEED ^ 2), 0);
    let (r, (live, corrupt)) = kv_run(&plan, 0.3, false);
    assert!(r.tput_ops > 0.0, "kv/torn: no progress: {r:?}");
    assert!(
        r.corruptions_injected > 0,
        "kv/torn: torn writes never fired: {r:?}"
    );
    // A torn PUT truncates the chain before the install CAS, so the
    // half-written entry is never published: everything a reader can
    // reach still checksums.
    assert!(live > 0, "store must still hold live entries");
    assert_eq!(
        corrupt, 0,
        "torn entries must be orphaned, never visible: {r:?}"
    );
    // Golden row, as in the flip cell.
    assert_golden("kv/torn", &[run_key(&r)], &[0x2f89_aa85_bafb_eebe]);
}

#[test]
fn kv_rot_cell_rot_is_detected_and_aborts_cleanly() {
    let plan = base_plan(SEED ^ 3).with_crash(0, CRASH_FROM, CRASH_UNTIL);
    // Read-only, so the damage cannot be healed by an overwrite: every
    // GET of the rotted key must detect, exhaust its bounded re-reads,
    // and abort — and the scrub still sees the damage afterwards.
    let (r, (_, corrupt)) = kv_run(&plan, 1.0, true);
    assert!(r.tput_ops > 0.0, "kv/rot: no progress: {r:?}");
    assert_eq!(r.corruptions_injected, 1, "one rot event: {r:?}");
    assert!(
        r.corruptions_detected > 0,
        "kv/rot: rotted entry reads must fail the CRC: {r:?}"
    );
    assert!(
        r.aborted_corrupt > 0,
        "kv/rot: persistent rot must abort GETs cleanly: {r:?}"
    );
    assert!(
        corrupt > 0,
        "kv/rot: unhealed damage must stay detectable to the scrub: {r:?}"
    );
    // Golden row, as in the flip cell.
    assert_golden("kv/rot", &[run_key(&r)], &[0xa5a3_13ca_15d6_8603]);

    let (r2, _) = kv_run(&plan, 1.0, true);
    assert_replayed(&r, &r2);
}

// ---------------------------------------------------------------------
// Pilaf
// ---------------------------------------------------------------------

fn pilaf_run(
    plan: &FaultPlan,
    read_fraction: f64,
    rot_live_extent: bool,
) -> (RunResult, (u64, u64)) {
    let config = PilafConfig::paper(KEYS, VALUE);
    let server = PilafServer::new(&config);
    kv_exp::preload_pilaf(&server, KEYS, VALUE);
    let mut plan = plan.clone();
    if rot_live_extent {
        let arena = server.server().arena();
        let (ptr, size) = (0..server.view().capacity)
            .find_map(|i| {
                let e = arena.read(server.view().entry_addr(i), 16).ok()?;
                let ptr = u64::from_le_bytes(e[0..8].try_into().expect("8 bytes"));
                if ptr == 0 {
                    return None;
                }
                Some((
                    ptr,
                    u64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
                ))
            })
            .expect("preloaded store has a live extent");
        plan = plan.with_rot(0, ROT_AT, ptr, size, 3);
    }
    let r = run(&server, &plan, RecoveryHooks::default(), |i, sink| {
        let rng = SimRng::new(SEED ^ ((i as u64 + 1) * 7));
        let client = server.open_client().with_integrity(sink);
        Box::new(PilafAdapter::new(client, ycsb(read_fraction), rng))
    });
    (r, server.scrub())
}

#[test]
fn pilaf_flip_cell_detects_and_settles_every_flip() {
    let plan = base_plan(SEED ^ 4).with_flips(0.02, 0.02);
    // Read-only: a Pilaf GET racing a concurrent PUT fails its data CRC
    // benignly (the entry moved between the two one-sided READs), which
    // the client cannot tell apart from corruption — it would inflate
    // `detected` past `injected`. Reads alone keep the equality exact.
    let (r, (_, corrupt)) = pilaf_run(&plan, 1.0, false);
    assert_flip_conservation("pilaf", &r);
    assert_eq!(corrupt, 0, "flips never touch memory; scrub must be clean");
    // Golden row, as in the KV flip cell.
    assert_golden("pilaf/flip", &[run_key(&r)], &[0xf30d_9562_b756_b289]);

    let (r2, _) = pilaf_run(&plan, 1.0, false);
    assert_replayed(&r, &r2);
}

#[test]
fn pilaf_torn_cell_rpc_writes_are_immune() {
    // Pilaf writes travel as RPCs the server applies atomically — there
    // is no multi-line one-sided WRITE to tear, so the mode cannot fire
    // even when enabled. The cell documents that design difference.
    let plan = base_plan(SEED ^ 5)
        .with_crash(0, CRASH_FROM, CRASH_UNTIL)
        .with_torn_writes(0.5);
    let (r, (live, corrupt)) = pilaf_run(&plan, 0.3, false);
    assert!(r.tput_ops > 0.0, "pilaf/torn: no progress: {r:?}");
    assert_eq!(
        r.corruptions_injected, 0,
        "pilaf/torn: RPC writes carry no tearable payload: {r:?}"
    );
    assert!(live > 0, "store must still hold live entries");
    assert_eq!(corrupt, 0, "scrub must be clean: {r:?}");
    // Golden row, as in the KV flip cell. The run reissues 14 PUTs
    // after lost replies; each resends the value it was invoked with.
    assert_golden("pilaf/torn", &[run_key(&r)], &[0xe592_4297_9e0f_28d6]);
}

#[test]
fn pilaf_rot_cell_rot_is_detected_and_aborts_cleanly() {
    let plan = base_plan(SEED ^ 6).with_crash(0, CRASH_FROM, CRASH_UNTIL);
    let (r, (_, corrupt)) = pilaf_run(&plan, 1.0, true);
    assert!(r.tput_ops > 0.0, "pilaf/rot: no progress: {r:?}");
    assert_eq!(r.corruptions_injected, 1, "one rot event: {r:?}");
    assert!(
        r.corruptions_detected > 0,
        "pilaf/rot: rotted extent reads must fail the data CRC: {r:?}"
    );
    assert!(
        r.aborted_corrupt > 0,
        "pilaf/rot: persistent rot must abort GETs cleanly: {r:?}"
    );
    assert!(
        corrupt > 0,
        "pilaf/rot: unhealed damage must stay detectable to the scrub: {r:?}"
    );
    // Golden row, as in the KV flip cell.
    assert_golden("pilaf/rot", &[run_key(&r)], &[0x15e9_04b1_c444_4594]);

    let (r2, _) = pilaf_run(&plan, 1.0, true);
    assert_replayed(&r, &r2);
}

// ---------------------------------------------------------------------
// PRISM-RS
// ---------------------------------------------------------------------

const BLOCKS: u64 = 8;

/// Three replicas of the RS cells' blocks.
fn rs_cluster() -> RsCluster {
    let mut config = RsConfig::paper(BLOCKS, VALUE as u64);
    config.spare_buffers += batching_spares(CLIENTS);
    RsCluster::new(3, &config)
}

fn rs_run(plan: &FaultPlan, write_fraction: f64) -> (RunResult, Arc<RsCluster>) {
    let cluster = Arc::new(rs_cluster());
    let r = run(&*cluster, plan, RecoveryHooks::default(), |_, sink| {
        let client = cluster.open_client().with_integrity(sink);
        let blocks = KeyDist::uniform(BLOCKS);
        Box::new(PrismRsAdapter::new(client, blocks, VALUE, write_fraction))
    });
    (r, cluster)
}

#[test]
fn rs_flip_cell_detects_and_settles_every_flip() {
    let plan = base_plan(SEED ^ 7).with_flips(0.02, 0.02);
    let (r, _) = rs_run(&plan, 0.5);
    assert_flip_conservation("rs", &r);
    // Golden row, as in the KV flip cell.
    assert_golden("rs/flip", &[run_key(&r)], &[0xf09a_f4d7_6022_2840]);

    let (r2, _) = rs_run(&plan, 0.5);
    assert_replayed(&r, &r2);
}

#[test]
fn rs_torn_cell_orphans_every_torn_block_image() {
    let plan = base_plan(SEED ^ 8)
        .with_crash(1, CRASH_FROM, CRASH_UNTIL)
        .with_torn_writes(0.5);
    let (r, cluster) = rs_run(&plan, 0.5);
    assert!(r.tput_ops > 0.0, "rs/torn: no progress: {r:?}");
    assert!(
        r.corruptions_injected > 0,
        "rs/torn: torn writes never fired: {r:?}"
    );
    // Torn block images are written into spare buffers whose install
    // CAS was dropped with the chain tail: the metadata never points at
    // them, so a scrub finds nothing to repair.
    for i in 0..3 {
        let (ok, repaired) = cluster.scrub(i);
        assert_eq!(
            (ok, repaired),
            (BLOCKS, 0),
            "rs/torn: replica {i} must hold only intact published blocks: {r:?}"
        );
    }
    // Golden row, as in the KV flip cell.
    assert_golden("rs/torn", &[run_key(&r)], &[0xf700_b99a_5ad2_d6bb]);
}

#[test]
fn rs_rot_cell_masks_then_heals_by_quorum_read_repair() {
    // Rot replica 1's first live block image (tag | crc | value) inside
    // its crash window. Read-only clients then detect the bad copy,
    // mask it, and complete from the healthy quorum; the post-run scrub
    // heals the replica from its peers.
    let probe = rs_cluster();
    let (pool_base, _) = probe.replica(1).pool_range();
    let plan = base_plan(SEED ^ 9)
        .with_crash(1, CRASH_FROM, CRASH_UNTIL)
        .with_rot(1, ROT_AT, pool_base, BUF_HDR + VALUE as u64, 3);
    let (r, cluster) = rs_run(&plan, 0.0);
    assert!(r.tput_ops > 0.0, "rs/rot: no progress: {r:?}");
    assert_eq!(r.corruptions_injected, 1, "one rot event: {r:?}");
    assert!(
        r.corruptions_detected > 0,
        "rs/rot: the bad copy must fail its block CRC on read: {r:?}"
    );
    assert!(
        r.corruptions_repaired > 0,
        "rs/rot: reads must complete by masking the bad copy: {r:?}"
    );
    let (_, repaired) = cluster.scrub(1);
    assert!(
        repaired > 0,
        "rs/rot: the scrub must heal the rotted block from its peers"
    );
    assert_eq!(
        cluster.scrub(1),
        (BLOCKS, 0),
        "rs/rot: a second scrub finds nothing left to repair"
    );
    assert!(cluster.scrub_repairs() > 0);
    // Golden row, as in the KV flip cell.
    assert_golden("rs/rot", &[run_key(&r)], &[0x13ff_43a8_9ff8_80e1]);

    let (r2, _) = rs_run(&plan, 0.0);
    assert_replayed(&r, &r2);
}

// ---------------------------------------------------------------------
// PRISM-TX
// ---------------------------------------------------------------------

/// One shard of the TX cells' keys.
fn tx_cluster() -> TxCluster {
    let mut config = TxConfig::paper(KEYS, VALUE as u64);
    config.spare_buffers += batching_spares(CLIENTS);
    TxCluster::new(1, &config)
}

fn tx_run(plan: &FaultPlan) -> (RunResult, Arc<TxCluster>) {
    let cluster = Arc::new(tx_cluster());
    // The periodic cooperative-termination sweep matters here: a
    // reply-leg flip can corrupt the ack of an executed lock CAS, so
    // the client holds a prepare it does not know about. The sweep
    // reclaims it exactly as it reclaims a crashed client's.
    let hooks = RecoveryHooks::sweeping(Arc::clone(&cluster) as Arc<dyn System>);
    let r = run(&*cluster, plan, hooks, |i, sink| {
        let rng = SimRng::new(SEED ^ ((i as u64 + 1) * 31));
        let gen = TxnGen::new(KeyDist::uniform(KEYS), 1, VALUE, rng);
        Box::new(PrismTxAdapter::new(
            cluster.open_client().with_integrity(sink),
            gen,
        ))
    });
    (r, cluster)
}

#[test]
fn tx_flip_cell_detects_and_settles_every_flip() {
    let plan = base_plan(SEED ^ 10).with_flips(0.02, 0.02);
    let (r, _) = tx_run(&plan);
    assert_flip_conservation("tx", &r);
    // Golden row, captured on the commit before the PRISM-TX and FaRM
    // adapters were folded into one driver: every field of the result.
    assert_golden("tx/flip", &[run_key(&r)], &[0xec98_6777_1c4e_e2ba]);

    let (r2, _) = tx_run(&plan);
    assert_replayed(&r, &r2);
}

#[test]
fn tx_torn_cell_orphans_every_torn_version() {
    let plan = torn_windows(base_plan(SEED ^ 11), 0);
    let (r, cluster) = tx_run(&plan);
    assert!(r.tput_ops > 0.0, "tx/torn: no progress: {r:?}");
    assert!(
        r.corruptions_injected > 0,
        "tx/torn: torn writes never fired: {r:?}"
    );
    // Commit writes version images out of place; tearing the chain
    // drops the slot install, so every published version checksums.
    let (ok, corrupt) = cluster.scrub(0);
    assert_eq!(ok, KEYS, "tx/torn: every key's published version intact");
    assert_eq!(
        corrupt, 0,
        "tx/torn: torn versions must be orphaned, never visible: {r:?}"
    );
    // Golden row, as in the TX flip cell.
    assert_golden("tx/torn", &[run_key(&r)], &[0xce10_daa6_c3b3_90ec]);
}

#[test]
fn tx_rot_cell_rot_aborts_transactions_cleanly() {
    // Rot key 0's published version image inside the crash window.
    // Every transaction touching key 0 reads before it writes, so the
    // first access detects the bad CRC and aborts — the damage can
    // never be laundered into a commit.
    let probe = tx_cluster();
    let arena_probe = probe.shard(0).server().arena();
    let buf = arena_probe
        .read_u64(probe.shard(0).view().slot(0) + 24)
        .expect("slot word in arena");
    let len = probe.shard(0).view().buf_len();
    // The crash window opens before any commit can land: commits move
    // versions out of place, and a commit on key 0 would strand the
    // probed seed buffer before the rot event reaches it.
    let plan = base_plan(SEED ^ 12)
        .with_crash(0, SimTime::from_nanos(2_000), CRASH_UNTIL)
        .with_rot(0, ROT_AT, buf, len, 3);
    let (r, cluster) = tx_run(&plan);
    assert!(r.tput_ops > 0.0, "tx/rot: no progress: {r:?}");
    assert_eq!(r.corruptions_injected, 1, "one rot event: {r:?}");
    assert!(
        r.corruptions_detected > 0,
        "tx/rot: reads of the rotted version must fail its CRC: {r:?}"
    );
    assert!(
        r.aborted_corrupt > 0,
        "tx/rot: transactions over rotted data must abort cleanly: {r:?}"
    );
    let (_, corrupt) = cluster.scrub(0);
    assert!(
        corrupt > 0,
        "tx/rot: unhealed damage must stay detectable to the scrub: {r:?}"
    );
    // Golden row, as in the TX flip cell.
    assert_golden("tx/rot", &[run_key(&r)], &[0x1f94_1182_9c9f_c0ce]);

    let (r2, _) = tx_run(&plan);
    assert_replayed(&r, &r2);
}

// ---------------------------------------------------------------------
// No-corruption regression
// ---------------------------------------------------------------------

/// A fault plan with every corruption knob explicitly zeroed must run
/// bit-identically to one where the knobs were never mentioned: the
/// corruption machinery draws from dedicated RNG streams and a zeroed
/// knob never touches them.
#[test]
fn zeroed_corruption_knobs_do_not_perturb_a_faulted_run() {
    let bare = base_plan(SEED ^ 13)
        .with_loss(0.02, 0.01)
        .with_crash(0, CRASH_FROM, CRASH_UNTIL);
    let zeroed = bare.clone().with_flips(0.0, 0.0).with_torn_writes(0.0);
    let (a, _) = kv_run(&bare, 0.5, false);
    let (b, _) = kv_run(&zeroed, 0.5, false);
    assert_eq!(
        metrics_key(&a),
        metrics_key(&b),
        "zeroed corruption knobs must be bit-identical to absent ones"
    );
    assert_eq!(a.corruptions_injected, 0);
    assert_eq!(
        a.corruptions_detected + a.corruptions_repaired + a.aborted_corrupt,
        0
    );
}
