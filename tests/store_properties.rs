//! Property-based tests for the durable segment tier's on-disk format:
//! headers, record frames, and the manifest must reject every mutated
//! or truncated input with a *typed* [`StoreError`] — never a panic,
//! and never a silent acceptance of damaged bytes. Single-byte
//! mutations sit inside CRC32's guaranteed burst-detection window, so
//! "mutated frame decodes to an error" is a hard property, not a
//! probabilistic one. Runs on the in-repo `prism-testkit` harness;
//! failures print a `PRISM_TEST_SEED` for exact replay.

use std::sync::Arc;

use prism_simnet::rng::SimRng;
use prism_store::segment::{
    decode_header, decode_manifest, decode_record, encode_header, encode_manifest,
    encode_record_into, FRAME_OVERHEAD, HEADER_LEN, MANIFEST_MAGIC, SEGMENT_MAGIC,
};
use prism_store::store::DEFAULT_SEGMENT_LIMIT;
use prism_store::{Record, SealedSeg, SegmentStore, SimDisk};
use prism_testkit::{for_all, gens, Config, Gen};

mod support;
use support::{disk_image_fingerprint, replay_records};

/// An arbitrary record, biased toward small payloads (empty included —
/// that is the DELETE / fence shape the servers actually log).
fn arb_record() -> Gen<Record> {
    gens::t4(
        gens::u64s(),
        gens::u64s(),
        gens::u64s(),
        gens::vec(gens::u8s(), 0..48),
    )
    .map(|(epoch, inc, key, payload)| Record {
        epoch,
        inc,
        key,
        payload,
    })
}

/// A non-zero byte mask: XORing it in changes at least one bit.
fn arb_mask() -> Gen<u8> {
    gens::u8s().map(|m| m | 1)
}

/// Round trip first: an intact frame must decode to exactly what was
/// encoded, consuming exactly its own bytes even with a trailing
/// neighbor frame behind it.
#[test]
fn intact_records_round_trip() {
    let gen = gens::t2(arb_record(), arb_record());
    for_all(
        "intact_records_round_trip",
        &Config::with_cases(256),
        &gen,
        |(a, b)| {
            let mut bytes = Vec::new();
            encode_record_into(a, &mut bytes);
            let first_len = bytes.len();
            encode_record_into(b, &mut bytes);
            let (da, used) = decode_record(&bytes).expect("intact frame must decode");
            assert_eq!(&da, a);
            assert_eq!(used, first_len, "frame must consume exactly itself");
            let (db, _) = decode_record(&bytes[used..]).expect("second frame must decode");
            assert_eq!(&db, b);
        },
    );
}

/// Every single-byte mutation of a record frame decodes to a typed
/// error: the length word is bounds-checked and the frame CRC covers
/// everything else, so no flipped frame can pass as valid data.
#[test]
fn mutated_records_decode_to_typed_errors() {
    let gen = gens::t3(arb_record(), gens::u64s(), arb_mask());
    for_all(
        "mutated_records_decode_to_typed_errors",
        &Config::with_cases(512),
        &gen,
        |(rec, pos, mask)| {
            let mut bytes = Vec::new();
            encode_record_into(rec, &mut bytes);
            let at = (*pos as usize) % bytes.len();
            bytes[at] ^= mask;
            decode_record(&bytes).expect_err("mutated record frame decoded");
        },
    );
}

/// Every strict prefix of a record frame is a typed truncation error,
/// never a panic from a short slice and never a short parse.
#[test]
fn truncated_records_decode_to_typed_errors() {
    let gen = gens::t2(arb_record(), gens::u64s());
    for_all(
        "truncated_records_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(rec, cut)| {
            let mut bytes = Vec::new();
            encode_record_into(rec, &mut bytes);
            let keep = (*cut as usize) % bytes.len();
            decode_record(&bytes[..keep]).expect_err("truncated record frame decoded");
        },
    );
}

/// Segment headers: intact ones verify, every single-byte mutation is
/// rejected (magic, version, flags, and reserved bytes are all under
/// the header CRC), and every truncation is rejected. The same holds
/// with the manifest magic.
#[test]
fn mutated_headers_decode_to_typed_errors() {
    let gen = gens::t3(gens::u64s(), gens::u64s(), arb_mask());
    for_all(
        "mutated_headers_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(pos, cut, mask)| {
            for magic in [SEGMENT_MAGIC, MANIFEST_MAGIC] {
                let mut h = encode_header(magic).to_vec();
                decode_header(&h, magic).expect("intact header must verify");
                // Crossed magics are a typed error too, not a panic.
                let other = if magic == SEGMENT_MAGIC {
                    MANIFEST_MAGIC
                } else {
                    SEGMENT_MAGIC
                };
                decode_header(&h, other).expect_err("wrong-magic header verified");

                let at = (*pos as usize) % HEADER_LEN;
                h[at] ^= mask;
                decode_header(&h, magic).expect_err("mutated header verified");
                h[at] ^= mask; // restore
                let keep = (*cut as usize) % HEADER_LEN;
                decode_header(&h[..keep], magic).expect_err("truncated header verified");
            }
        },
    );
}

/// The manifest: an intact encode round-trips, and any single-byte
/// mutation or truncation is a typed error. A damaged manifest must
/// never yield a wrong-but-plausible segment list — replay falls back
/// to scanning the disk instead.
#[test]
fn mutated_manifests_decode_to_typed_errors() {
    let seg = gens::t3(gens::u32s(), gens::range_u64(0..(1 << 20)), gens::u32s())
        .map(|(seq, len, records)| SealedSeg { seq, len, records });
    let gen = gens::t4(gens::vec(seg, 0..6), gens::u32s(), gens::u64s(), arb_mask());
    for_all(
        "mutated_manifests_decode_to_typed_errors",
        &Config::with_cases(256),
        &gen,
        |(sealed, checkpoint, pos, mask)| {
            let bytes = encode_manifest(sealed, *checkpoint);
            let m = decode_manifest(&bytes).expect("intact manifest must decode");
            assert_eq!(&m.sealed, sealed);
            assert_eq!(m.checkpoint, *checkpoint);
            let mut mutated = bytes.clone();
            let at = (*pos as usize) % mutated.len();
            mutated[at] ^= mask;
            decode_manifest(&mutated).expect_err("mutated manifest decoded");
            let keep = (*pos as usize) % bytes.len();
            decode_manifest(&bytes[..keep]).expect_err("truncated manifest decoded");
        },
    );
}

/// End to end against the store: write a log, then vandalize the raw
/// disk bytes (a flip at an arbitrary offset of an arbitrary file plus
/// a seeded tail tear) and replay. Replay must never panic, never
/// return a record that was not appended, and must stop each segment at
/// its first bad frame — the surviving records are a prefix of what
/// went in, in order.
#[test]
fn replay_of_vandalized_logs_never_yields_foreign_records() {
    let gen = gens::t4(
        gens::vec(arb_record(), 1..24),
        gens::u64s(),
        arb_mask(),
        gens::u64s(),
    );
    for_all(
        "replay_of_vandalized_logs_never_yields_foreign_records",
        &Config::with_cases(128),
        &gen,
        |(recs, pos, mask, tear_seed)| {
            let disk = Arc::new(SimDisk::new());
            // A small limit forces multi-segment logs even at this size.
            let store = SegmentStore::with_limit(Arc::clone(&disk), "p", 256);
            for r in recs {
                store.append(r);
            }
            // Leave the tail unsynced so the tear has something to eat.
            let mut rng = SimRng::new(*tear_seed);
            disk.tear_tail(&mut rng);
            for name in disk.list("p") {
                let len = disk.len(&name).unwrap_or(0);
                if len > 0 && *pos % 2 == 0 {
                    let mut bytes = disk.read(&name).expect("listed file reads");
                    bytes[(*pos as usize) % len] ^= mask;
                    disk.truncate(&name, 0);
                    disk.append(&name, &bytes);
                    break;
                }
            }
            let (_, survivors) = replay_records(&store);
            let mut it = recs.iter();
            for got in &survivors {
                // Every survivor matches the next appended record: no
                // reordering, no invention, no tail past a bad frame.
                assert!(
                    it.any(|want| want == got),
                    "replay yielded a record that was never appended (or out of order)"
                );
            }
        },
    );
}

/// One step of a store's life, as the identity and footprint properties
/// drive it.
#[derive(Debug, Clone)]
enum Step {
    Append(Record),
    /// A stream of `.0` records whose payloads are all `.1` bytes long,
    /// as a server's steady writes log them.
    Run(u32, usize),
    Barrier,
    Checkpoint,
    /// Crash tear (seeded) followed by a replay.
    TearReplay(u64),
    Wipe,
}

fn arb_step() -> Gen<Step> {
    // Appends dominate, as they do in a server's life; the payload
    // range straddles the frame sizes that seal a 128–320 B segment in
    // one to four records.
    let append = || arb_record().map(Step::Append);
    gens::one_of(vec![
        append(),
        append(),
        append(),
        append(),
        gens::constant(Step::Barrier),
        gens::constant(Step::Checkpoint),
        gens::u64s().map(Step::TearReplay),
        gens::constant(Step::Wipe),
    ])
}

/// Drives `store` through one [`Step`]. A checkpoint folds nothing; a
/// torn replay must find the manifest intact, since a tear never
/// reaches synced bytes.
fn apply(store: &SegmentStore, step: &Step) {
    match step {
        Step::Append(r) => store.append(r),
        Step::Run(n, payload) => {
            for key in 0..u64::from(*n) {
                store.append(&Record {
                    epoch: 1,
                    inc: 1,
                    key,
                    payload: vec![key as u8; *payload],
                });
            }
        }
        Step::Barrier => store.barrier(),
        Step::Checkpoint => store.checkpoint(&[]),
        Step::TearReplay(seed) => {
            store.disk().tear_tail(&mut SimRng::new(*seed));
            assert!(store.replay(|_, _| {}).manifest_ok, "manifest lost");
        }
        Step::Wipe => store.wipe(),
    }
}

/// Byte identity of the manifest: whatever sequence of appends (each a
/// potential in-place seal), barriers, checkpoints, torn replays and
/// wipes a store goes through, the manifest file on disk is at every
/// step exactly `encode_manifest` of the table the store tracks, and
/// decodes back to it. This is what pins the O(1) seal patch to the
/// one definition of the format.
#[test]
fn manifest_on_disk_equals_its_encoding_after_every_step() {
    let gen = gens::t2(
        gens::choice(vec![128usize, 192, 320]),
        gens::vec(arb_step(), 1..80),
    );
    for_all(
        "manifest_on_disk_equals_its_encoding_after_every_step",
        &Config::with_cases(96),
        &gen,
        |(limit, steps)| {
            let disk = Arc::new(SimDisk::new());
            let store = SegmentStore::with_limit(Arc::clone(&disk), "m", *limit);
            let mut checkpoint = 0u32;
            for (i, step) in steps.iter().enumerate() {
                apply(&store, step);
                match step {
                    Step::Checkpoint => {
                        checkpoint = store.sealed().last().expect("just sealed").seq + 1;
                    }
                    Step::Wipe => checkpoint = 0,
                    _ => {}
                }
                let on_disk = disk.read("m/manifest").expect("manifest exists");
                assert_eq!(
                    on_disk,
                    encode_manifest(&store.sealed(), checkpoint),
                    "step {i} ({step:?}): manifest bytes diverge from their encoding"
                );
                assert_eq!(disk.synced("m/manifest"), Some(on_disk.len()));
                let m = decode_manifest(&on_disk).expect("manifest decodes");
                assert_eq!(m.sealed, store.sealed());
                assert_eq!(m.checkpoint, checkpoint);
            }
        },
    );
}

/// The disk's RAM is its bytes, not its growth slack: whatever appends,
/// barriers, checkpoints, torn replays and wipes a store at the default
/// segment limit goes through, every file but the active segment and
/// the manifest is held at exactly its length, so the heap the disk
/// holds is at most the bytes on it plus those two files' capacities.
/// Each of the two grows by doubling and never shrinks while it lives,
/// so its capacity is under twice the most it has held: for the active
/// segment the limit plus one frame, for the manifest (which only grows
/// until a wipe) its length now. A sealed 8 KiB segment of 584 B frames
/// grown by doubling is 18 % slack, which a run of a few hundred such
/// records already puts past this bound.
#[test]
fn disk_footprint_is_its_bytes_plus_the_files_still_growing() {
    const MAX_PAYLOAD: usize = 552; // a 584 B frame, PRISM-KV's install
    let run = gens::t2(
        gens::range_u32(1..1_200),
        gens::choice(vec![0usize, 48, 231, MAX_PAYLOAD]),
    )
    .map(|(n, payload)| Step::Run(n, payload));
    let step = gens::one_of(vec![
        run.clone(),
        run.clone(),
        run,
        gens::constant(Step::Barrier),
        gens::constant(Step::Checkpoint),
        gens::u64s().map(Step::TearReplay),
        gens::constant(Step::Wipe),
    ]);
    for_all(
        "disk_footprint_is_its_bytes_plus_the_files_still_growing",
        &Config::with_cases(24),
        &gens::vec(step, 1..12),
        |steps| {
            let disk = Arc::new(SimDisk::new());
            let store = SegmentStore::new(Arc::clone(&disk), "f");
            let active_cap = 2 * (DEFAULT_SEGMENT_LIMIT + FRAME_OVERHEAD + MAX_PAYLOAD);
            for (i, step) in steps.iter().enumerate() {
                apply(&store, step);
                let on_disk: usize = disk.list("").iter().filter_map(|n| disk.len(n)).sum();
                let manifest_cap = 2 * disk.len("f/manifest").expect("manifest exists");
                let held = disk.footprint_bytes();
                assert!(
                    held <= (on_disk + active_cap + manifest_cap) as u64,
                    "step {i} ({step:?}): the disk holds {held} B for {on_disk} B on it"
                );
            }
        },
    );
}

/// Scaling guard by count, not by clock: the bytes a store writes stay
/// within a small constant of the bytes it logs, however long the log
/// grows. Rewriting the whole manifest on every seal made the larger
/// run here write over a hundred times its log.
#[test]
fn write_traffic_is_linear_in_log_bytes() {
    const LIMIT: usize = 256;
    let rec = Record {
        epoch: 1,
        inc: 1,
        key: 0,
        payload: vec![7u8; 48],
    };
    for n in [2_000u64, 20_000] {
        let disk = Arc::new(SimDisk::new());
        let store = SegmentStore::with_limit(Arc::clone(&disk), "w", LIMIT);
        for _ in 0..n {
            store.append(&rec);
            store.barrier();
        }
        let log_bytes: usize = disk
            .list("w/seg-")
            .iter()
            .filter_map(|name| disk.len(name))
            .sum();
        let written = disk.bytes_written();
        assert!(
            written <= 2 * log_bytes as u64,
            "{n} appends at limit {LIMIT}: wrote {written} B for a {log_bytes} B log"
        );
    }
}

/// Golden disk image: a fixed seeded script (seals, one checkpoint, one
/// torn replay, an unsynced tail at the end) must leave every file on
/// the disk byte for byte what the whole-manifest-rewrite store left.
/// The RS gates rot seeded byte offsets across all files, so a single
/// moved byte would shift every rot-bearing schedule. The constant was
/// captured on the commit before the in-place manifest patch landed.
#[test]
fn golden_disk_image_is_byte_identical() {
    let disk = Arc::new(SimDisk::new());
    let store = SegmentStore::with_limit(Arc::clone(&disk), "g", 512);
    let mut rng = SimRng::new(0x601D_D15C);
    let mut append = |n: u64| {
        for i in 0..n {
            store.append(&Record {
                epoch: 1 + i % 3,
                inc: 7,
                key: rng.gen_range(32),
                payload: vec![rng.gen_range(256) as u8; rng.gen_range(96) as usize],
            });
            if i % 5 == 4 {
                store.barrier();
            }
        }
    };
    append(60);
    store.barrier();
    let mut latest = std::collections::BTreeMap::new();
    for r in replay_records(&store).1 {
        latest.insert(r.key, r);
    }
    let fold: Vec<Record> = latest.into_values().collect();
    store.checkpoint(&fold);
    append(33);
    assert!(disk.tear_tail(&mut SimRng::new(9)) > 0, "the script tears");
    let torn = store.replay(|_, _| {});
    assert!(torn.segments_truncated > 0 && torn.segments_skipped > 0);
    append(27);
    assert!(store.sealed().len() > 10, "the script seals");
    assert_eq!(disk_image_fingerprint(&disk), 0xF105_6F6F_53CC_C5CA);
}
