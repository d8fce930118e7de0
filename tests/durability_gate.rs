//! Durability gate: the recovery-traffic regression for the durable
//! segment tier. An amnesia restart with an intact local log must
//! rebuild by *replay* and fetch strictly less from peers than a wiped
//! replica's full resync — the counters prove the traffic cut, not just
//! survival. Torn log tails and at-rest rot are detected by CRC,
//! truncated, and healed by the delta resync; the KV write-ahead
//! discipline makes crash tears provably empty. Every scenario replays
//! bit-exactly under the same seed.

use std::sync::Arc;

use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_kv::{drive as kv_drive, KvOutcome, KvProtocol};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_rs::{drive, RsOutcome, RsProtocol};
use prism_simnet::rng::SimRng;
use prism_testkit::seed_or;

mod support;
use support::replay_records;

/// 12 blocks with the default barrier cadence of 8 leaves a 4-record
/// unsynced tail on every replica — enough sealed history to replay and
/// enough exposed tail for a tear to bite.
const BLOCKS: u64 = 12;
const VALUE: usize = 64;

fn seeded_values(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(seed ^ 0x5EED_DA7A);
    (0..BLOCKS)
        .map(|_| (0..VALUE).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

fn write_all(cl: &RsCluster, vals: &[Vec<u8>]) {
    let mut c = cl.open_client();
    for (b, v) in vals.iter().enumerate() {
        let (op, step) = c.put(b as u64, v.clone());
        assert_eq!(
            drive(cl, &mut c, op, step, &[false; 3]),
            RsOutcome::Written,
            "seed write for block {b} must land"
        );
    }
}

/// Reads every block through a quorum that excludes replica 0, so the
/// restarted replica 1 must participate in every read.
fn check_values(cl: &RsCluster, vals: &[Vec<u8>], inc: u64) {
    let mut c = cl.open_client();
    c.refence(1, inc);
    for (b, v) in vals.iter().enumerate() {
        let (op, step) = c.get(b as u64);
        assert_eq!(
            drive(cl, &mut c, op, step, &[true, false, false]),
            RsOutcome::Value(v.clone()),
            "block {b} must read back intact after recovery"
        );
    }
}

// ---------------------------------------------------------------------
// The regression of record: intact-log delta vs wiped-disk full resync
// ---------------------------------------------------------------------

/// One full scenario; returns the counter tuple for bit-exact replay:
/// `(replayed_intact, delta_intact, replayed_wiped, delta_wiped)`.
fn delta_vs_full(seed: u64) -> (u64, u64, u64, u64) {
    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    let cl = RsCluster::new(3, &config);
    let vals = seeded_values(seed);
    write_all(&cl, &vals);
    let stats = Arc::clone(cl.durable_stats());

    // Leg 1 — intact log: replay recovers everything the log holds;
    // the delta probe finds no peer ahead and fetches nothing.
    let inc = cl.amnesia_restart(1);
    let (replayed_intact, delta_intact) = (stats.replayed(), stats.delta_resynced());
    check_values(&cl, &vals, inc);

    // Leg 2 — wiped disk (a fresh replacement replica): nothing to
    // replay, so every written block crosses the network.
    stats.reset();
    cl.replica(1).store().wipe();
    let inc = cl.amnesia_restart(1);
    let (replayed_wiped, delta_wiped) = (stats.replayed(), stats.delta_resynced());
    check_values(&cl, &vals, inc);

    (replayed_intact, delta_intact, replayed_wiped, delta_wiped)
}

#[test]
fn intact_log_delta_resync_is_strictly_below_full_resync() {
    let seed = seed_or(0xD04A_0001);
    let (replayed_intact, delta_intact, replayed_wiped, delta_wiped) = delta_vs_full(seed);
    println!(
        "durability: intact replay={replayed_intact} delta={delta_intact} | \
         wiped replay={replayed_wiped} delta={delta_wiped}"
    );
    assert!(
        replayed_intact >= BLOCKS,
        "every written block must come back from the local log \
         (replayed={replayed_intact})"
    );
    assert_eq!(
        delta_intact, 0,
        "an intact log leaves nothing for the delta resync to fetch"
    );
    assert_eq!(
        replayed_wiped, 0,
        "a wiped disk has nothing to replay (replayed={replayed_wiped})"
    );
    assert_eq!(
        delta_wiped, BLOCKS,
        "a wiped replica pulls every written block over the network"
    );
    assert!(
        delta_intact < delta_wiped,
        "the headline regression: recovery traffic with a local log must be \
         strictly below the full-resync baseline \
         ({delta_intact} vs {delta_wiped})"
    );

    // Same seed, fresh cluster: the whole scenario replays bit-exactly.
    assert_eq!(
        delta_vs_full(seed),
        (replayed_intact, delta_intact, replayed_wiped, delta_wiped),
        "replay must be bit-exact"
    );
}

// ---------------------------------------------------------------------
// Torn tail: truncated by CRC, healed by exactly the delta
// ---------------------------------------------------------------------

fn torn_tail(seed: u64) -> (u64, u64, u64, u64) {
    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    let cl = RsCluster::new(3, &config);
    let vals = seeded_values(seed);
    write_all(&cl, &vals);
    let stats = Arc::clone(cl.durable_stats());

    // The crash catches replica 1 with an unsynced tail and tears it.
    let mut rng = SimRng::new(seed ^ 0x7EA2_0001);
    let torn = cl.replica(1).disk().tear_tail(&mut rng);
    assert!(
        torn > 0,
        "the barrier cadence must leave an unsynced tail for the tear"
    );
    let inc = cl.amnesia_restart(1);
    // Whatever the tear took, recovery must (a) notice — by truncating
    // the damaged tail frame — and (b) heal it from peers, and the two
    // recovery sources together must still cover every block.
    let (replayed, delta) = (stats.replayed(), stats.delta_resynced());
    assert!(
        delta > 0,
        "a torn tail record must be refetched from peers (delta={delta})"
    );
    assert!(
        delta < BLOCKS,
        "the delta must stay a tail repair, not a full resync (delta={delta})"
    );
    assert!(replayed > 0, "the sealed prefix must still replay");
    check_values(&cl, &vals, inc);
    (replayed, delta, stats.segments_truncated(), torn)
}

#[test]
fn torn_tail_is_truncated_and_healed_by_the_delta() {
    let seed = seed_or(0xD04A_0002);
    let key = torn_tail(seed);
    println!(
        "durability-torn: replayed={} delta={} truncated={} torn_bytes={}",
        key.0, key.1, key.2, key.3
    );
    assert_eq!(torn_tail(seed), key, "replay must be bit-exact");
}

// ---------------------------------------------------------------------
// At-rest rot: detected by CRC, never served, healed from peers
// ---------------------------------------------------------------------

fn rotted_log(seed: u64) -> (u64, u64, u32) {
    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    let cl = RsCluster::new(3, &config);
    let vals = seeded_values(seed);
    write_all(&cl, &vals);
    let stats = Arc::clone(cl.durable_stats());

    // Rot a healthy handful of bits anywhere on replica 1's disk —
    // sealed segments, tail, manifest, headers: all fair game.
    let mut rng = SimRng::new(seed ^ 0x0707_0001);
    let flips = cl.replica(1).disk().rot(&mut rng, 16);
    assert!(flips > 0, "rot must land on a non-empty disk");
    let inc = cl.amnesia_restart(1);
    // The only hard guarantees: damage is never *served* (every block
    // reads back correct through the restarted replica), and what
    // replay lost to CRC rejection the delta made up from peers.
    let (replayed, delta) = (stats.replayed(), stats.delta_resynced());
    check_values(&cl, &vals, inc);
    (replayed, delta, flips)
}

#[test]
fn rotted_segments_are_never_served_and_heal_from_peers() {
    let seed = seed_or(0xD04A_0003);
    let key = rotted_log(seed);
    println!(
        "durability-rot: replayed={} delta={} flips={}",
        key.0, key.1, key.2
    );
    assert_eq!(rotted_log(seed), key, "replay must be bit-exact");
}

// ---------------------------------------------------------------------
// Checkpointing: replay cost stops growing with log length
// ---------------------------------------------------------------------

/// Appends `rounds` batches of updates over a small hot key set,
/// checkpointing the last-wins fold after each batch when asked.
/// Returns `(decoded_records, segments_skipped)` for the final replay —
/// the two numbers that define replay cost.
fn replay_cost(seed: u64, rounds: u64, checkpointed: bool) -> (usize, u64) {
    use prism_store::{Record, SegmentStore, SimDisk};
    use std::collections::BTreeMap;
    let disk = Arc::new(SimDisk::new());
    // Small limit so every round seals segments — checkpoints have
    // sealed history to cover.
    let store = SegmentStore::with_limit(disk, "ckpt", 1024);
    let mut rng = SimRng::new(seed ^ 0xC4EC_0001);
    let mut latest: BTreeMap<u64, Record> = BTreeMap::new();
    for _ in 0..rounds {
        for _ in 0..24 {
            let rec = Record {
                epoch: 1,
                inc: 1,
                key: rng.next_u64() % 8,
                payload: (0..VALUE).map(|_| rng.next_u64() as u8).collect(),
            };
            store.append(&rec);
            latest.insert(rec.key, rec);
        }
        store.barrier();
        if checkpointed {
            let fold: Vec<Record> = latest.values().cloned().collect();
            store.checkpoint(&fold);
        }
    }
    let (r, records) = replay_records(&store);
    // Replay must land on the same last-wins state either way.
    let mut folded: BTreeMap<u64, &Record> = BTreeMap::new();
    for rec in &records {
        folded.insert(rec.key, rec);
    }
    assert_eq!(folded.len(), latest.len(), "replay state must match");
    for (k, want) in &latest {
        assert_eq!(folded[k].payload, want.payload, "key {k} diverged");
    }
    (records.len(), r.segments_skipped)
}

#[test]
fn checkpointed_replay_cost_stops_growing_with_log_length() {
    let seed = seed_or(0xD04A_0005);
    // Without checkpoints, replay decodes the whole history: cost is
    // linear in rounds.
    let (short_plain, _) = replay_cost(seed, 4, false);
    let (long_plain, _) = replay_cost(seed, 16, false);
    assert!(
        long_plain >= short_plain * 3,
        "un-checkpointed replay must grow with the log \
         ({short_plain} -> {long_plain})"
    );
    // With checkpoints, the manifest watermark lets replay skip every
    // covered segment: cost is bounded by fold size + one round's tail,
    // independent of how many rounds ran before.
    let (short_ck, _) = replay_cost(seed, 4, true);
    let (long_ck, skipped) = replay_cost(seed, 16, true);
    println!(
        "durability-ckpt: plain {short_plain}->{long_plain} \
         checkpointed {short_ck}->{long_ck} skipped={skipped}"
    );
    assert!(skipped > 0, "the watermark must actually skip segments");
    assert!(
        long_ck <= short_ck + 8,
        "checkpointed replay cost must stop growing \
         ({short_ck} -> {long_ck})"
    );
    assert!(
        long_ck < long_plain / 3,
        "the headline regression: checkpointing must cut long-log replay \
         cost sharply ({long_ck} vs {long_plain})"
    );
    // Same seed, fresh run: bit-exact.
    assert_eq!(
        replay_cost(seed, 16, true),
        (long_ck, skipped),
        "replay must be bit-exact"
    );
}

// ---------------------------------------------------------------------
// KV: the write-ahead barrier discipline makes tears empty
// ---------------------------------------------------------------------

fn drive_put(s: &PrismKvServer, key: &[u8], value: &[u8]) -> KvOutcome {
    let c = s.open_client();
    let (mut op, req) = c.put(key, value);
    kv_drive(s.server(), req, |r| op.on_reply(&c, r)).0
}

#[test]
fn kv_write_ahead_log_leaves_nothing_for_a_tear_to_take() {
    let seed = seed_or(0xD04A_0004);
    let cfg = PrismKvConfig::paper(BLOCKS, VALUE);
    let s = PrismKvServer::new(&cfg);
    let mut rng = SimRng::new(seed);
    let vals: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|_| (0..VALUE).map(|_| rng.next_u64() as u8).collect())
        .collect();
    for (k, v) in vals.iter().enumerate() {
        assert_eq!(
            drive_put(&s, &key_bytes(k as u64), v),
            KvOutcome::Written,
            "seed write for key {k} must land"
        );
    }
    // Every acknowledged install barriered before its ack, so the crash
    // tear finds nothing unsynced — that is the write-ahead contract.
    let torn = s.disk().tear_tail(&mut rng);
    assert_eq!(
        torn, 0,
        "KV syncs every acknowledged append; a tear must come up empty"
    );
    let inc = s.amnesia_restart();
    assert_eq!(
        s.durable_stats().segments_truncated(),
        0,
        "no torn frame can exist in a write-through log"
    );
    assert!(
        s.durable_stats().replayed() >= BLOCKS,
        "every key must rebuild from the log"
    );
    // Full read-back through a refenced client: zero lost records.
    let mut c = s.open_client();
    c.refence(inc);
    for (k, v) in vals.iter().enumerate() {
        let (mut op, req) = c.get(&key_bytes(k as u64));
        let (outcome, _) = kv_drive(s.server(), req, |r| op.on_reply(&c, r));
        assert_eq!(
            outcome,
            KvOutcome::Value(Some(v.clone())),
            "key {k} must survive the amnesia restart"
        );
    }
}
