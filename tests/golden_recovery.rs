//! Golden recovery images: what an amnesia restart leaves behind — the
//! rebuilt memory, the allocator, the recovery counters and the disk —
//! pinned as FNV-1a folds at two seeds, for a PRISM-KV shard and for
//! one replica of a PRISM-RS group.
//!
//! Recovery is a fold over a damaged log, and its result depends on
//! details no assertion about "the data came back" sees: which record
//! wins a slot, in which order surviving images are installed when rot
//! has left two slots claiming one buffer, which addresses the allocator
//! reset withholds and in which order it queues the rest, where the
//! refill headroom rewinds to, which tails replay cuts and what manifest
//! it writes back. The scenarios below load every one of those (leaked
//! buffers force a refill so entries live in carved-extent space;
//! hand-appended records reach each rejection branch; a tear and eight
//! rotted bits land on the log), so a change to how replay reads, folds
//! or installs that moves one byte fails here rather than as a drifted
//! fingerprint in a chaos gate. To re-pin after a deliberate change run
//! with `--nocapture`: a mismatch prints the whole table.

use prism_core::msg::execute_local;
use prism_core::op::FreeListId;
use prism_harness::kv_exp::preload_prism;
use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{PrismKvClient, PrismKvConfig, PrismKvServer};
use prism_kv::{entry, KvStep};
use prism_rs::prism_rs::{drive, RsCluster, RsConfig};
use prism_rs::RsOutcome;
use prism_simnet::rng::SimRng;
use prism_store::Record;

mod support;
use support::{disk_image_fingerprint, replay_records};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// One table row as source text.
fn row(seed: u64, image: &[u64]) -> String {
    let cells: Vec<String> = image.iter().map(|v| format!("{v:#X}")).collect();
    format!("    ({seed:#X}, [{}]),", cells.join(", "))
}

fn seeded_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

// ---------------------------------------------------------------------
// PRISM-KV
// ---------------------------------------------------------------------

const KEYS: u64 = 4096;
const VALUE: usize = 512;
const OVERWRITES: u64 = 3000;
const DELETES: u64 = 200;
/// Overwrites whose free notification is lost. The paper configuration
/// provisions 512 spare buffers and refills below 16, so 500 leaks drain
/// the class and the refill that follows carves from the headroom.
const LEAKED: u64 = 500;

/// Drives a PUT or DELETE to completion; `frees` says whether the
/// background reclaim requests reach the server. Withholding them is the
/// point (the leaked buffers force a refill), which is why this loop is
/// not `prism_kv::prism_kv::drive`: that one always delivers them.
fn kv_write(s: &PrismKvServer, c: &PrismKvClient, key: u64, value: Option<&[u8]>, frees: bool) {
    let key = key_bytes(key);
    let (mut op, req) = match value {
        Some(v) => c.put(&key, v),
        None => c.delete(&key),
    };
    let mut reply = execute_local(s.server(), &req);
    loop {
        let (next, background) = match op.on_reply(c, reply) {
            KvStep::Send {
                request,
                background,
            } => (Some(request), background),
            KvStep::Done { background, .. } => (None, background),
        };
        if let (Some(bg), true) = (background, frees) {
            execute_local(s.server(), &bg);
        }
        match next {
            Some(request) => reply = execute_local(s.server(), &request),
            None => return,
        }
    }
}

/// A shard with a history and a damaged log, ready to crash. Fully
/// determined by `seed`.
fn kv_before_crash(seed: u64) -> PrismKvServer {
    let s = PrismKvServer::new(&PrismKvConfig::paper(KEYS, VALUE));
    preload_prism(&s, KEYS, VALUE);
    let c = s.open_client();
    let mut rng = SimRng::new(seed);
    for i in 0..OVERWRITES {
        if i == LEAKED {
            assert!(s.maybe_refill() > 0, "the leaks must force a refill");
        }
        let value = seeded_bytes(&mut rng, VALUE);
        kv_write(&s, &c, rng.gen_range(KEYS), Some(&value), i >= LEAKED);
    }
    for _ in 0..DELETES {
        kv_write(&s, &c, rng.gen_range(KEYS), None, true);
    }

    // Records no client produces, one per branch replay must reject
    // without installing anything: a key past the table, a payload too
    // short to hold a slot word, a null pointer before a valid image, an
    // image whose own checksum fails, and a valid image at an address
    // outside the arena. Each targets a distinct live slot, which the
    // last-record-wins fold therefore empties.
    let store = s.store();
    let image = entry::encode(&key_bytes(7), &seeded_bytes(&mut rng, VALUE));
    let install = |ptr: u64, image: &[u8]| {
        let mut p = ptr.to_le_bytes().to_vec();
        p.extend_from_slice(&(image.len() as u64).to_le_bytes());
        p.extend_from_slice(image);
        p
    };
    let mut rotted = image.clone();
    rotted[40] ^= 0x10;
    let payloads = [
        (KEYS + 3, install(0x4000, &image)),
        (11, vec![0xEE; 9]),
        (12, install(0, &image)),
        (13, install(0x4000, &rotted)),
        (14, install(0x100, &image)),
    ];
    for (key, payload) in payloads {
        store.append(&Record {
            epoch: 0,
            inc: 1,
            key,
            payload,
        });
    }
    store.barrier();
    // The crash catches three more appends before their barrier.
    for key in 20..23 {
        store.append(&Record {
            epoch: 0,
            inc: 1,
            key,
            payload: Vec::new(),
        });
    }
    assert!(s.disk().tear_tail(&mut SimRng::new(seed ^ 0x7EA2)) > 0);
    assert_eq!(s.disk().rot(&mut SimRng::new(seed ^ 0x0707), 8), 8);
    s
}

/// Every pinned observable of one KV recovery, in table order.
fn kv_image(seed: u64) -> [u64; 12] {
    // The store's own report on this disk, taken on a twin so the shard
    // under test replays the damaged log itself.
    let twin = kv_before_crash(seed);
    let (replay, records) = replay_records(twin.store());
    let mut rec_fold = Fnv::new();
    for r in &records {
        rec_fold.eat_u64(r.epoch);
        rec_fold.eat_u64(r.inc);
        rec_fold.eat_u64(r.key);
        rec_fold.eat_u64(r.payload.len() as u64);
        rec_fold.eat(&r.payload);
    }

    let s = kv_before_crash(seed);
    s.amnesia_restart();
    assert_eq!(
        disk_image_fingerprint(s.disk()),
        disk_image_fingerprint(twin.disk()),
        "recovery leaves the disk exactly as the store's replay does"
    );

    // The slot table and every entry it reaches.
    let view = s.view();
    let arena = s.server().arena();
    let mut mem = Fnv::new();
    let mut live = 0u64;
    for i in 0..view.capacity {
        let slot = arena.read(view.slot_addr(i), 16).expect("slot in arena");
        mem.eat(&slot);
        let ptr = u64::from_le_bytes(slot[..8].try_into().unwrap());
        if ptr != 0 {
            let bound = u64::from_le_bytes(slot[8..].try_into().unwrap());
            let len = bound.min(view.max_entry_len as u64);
            mem.eat(&arena.read(ptr, len).expect("entry in arena"));
            live += 1;
        }
    }

    // The allocator: what is free, in the order ALLOCATE will hand it
    // out, and — by draining the class until the refill daemon fires —
    // where the headroom rewound to.
    let id = FreeListId(0);
    let lists = s.server().freelists();
    let available = lists.available(id) as u64;
    let mut free = Fnv::new();
    for a in lists.snapshot(id) {
        free.eat_u64(a);
    }
    while lists.available(id) >= 16 {
        lists.pop(id).expect("non-empty class pops");
    }
    assert!(s.maybe_refill() > 0, "a drained class refills");
    let mut refilled = Fnv::new();
    for a in lists.snapshot(id) {
        refilled.eat_u64(a);
    }

    let d = s.durable_stats();
    [
        live,
        mem.0,
        available,
        free.0,
        refilled.0,
        d.replayed(),
        d.segments_truncated(),
        records.len() as u64,
        rec_fold.0,
        replay.corrupt_frames << 32 | replay.segments_skipped << 1 | replay.manifest_ok as u64,
        replay.segments_truncated,
        disk_image_fingerprint(s.disk()),
    ]
}

/// `(seed, [live slots, fold of slot table + entries, free buffers, fold
/// of the free list, fold of the free list after drain + refill,
/// replayed, segments truncated, records the store yielded, fold of
/// those records, corrupt_frames << 32 | segments_skipped << 1 |
/// manifest_ok, the store's segments_truncated, disk image after
/// recovery])`.
#[rustfmt::skip]
const KV_GOLDEN: [(u64, [u64; 12]); 2] = [
    (0x4B56_0001, [0xF27, 0xA376438CE1AE69B8, 0x320, 0xD9A3A5E4DA2B109E, 0xD05699F9A449CDA3, 0xF27, 0x9, 0x1C49, 0x1ED302F9B8A97A2E, 0x900000001, 0x9, 0xC0EE2BC86F011F0F]),
    (0x4B56_0002, [0xF2C, 0x8EC3FC2512E15D49, 0x32A, 0xD56C148CF80A576A, 0x9B9165221A256D6D, 0xF2C, 0x9, 0x1C3D, 0x9571326D25F1879C, 0x900000001, 0x9, 0xA2762180CD52BB99]),
];

#[test]
fn kv_recovery_image_matches_the_pinned_values() {
    let got: Vec<[u64; 12]> = KV_GOLDEN.iter().map(|&(seed, _)| kv_image(seed)).collect();
    if KV_GOLDEN.iter().zip(&got).any(|(&(_, want), g)| want != *g) {
        for (&(seed, _), g) in KV_GOLDEN.iter().zip(&got) {
            println!("{}", row(seed, g));
        }
        panic!("golden KV recovery image moved (table above is what this build produces)");
    }
}

// ---------------------------------------------------------------------
// PRISM-RS
// ---------------------------------------------------------------------

const BLOCKS: u64 = 64;
const BLOCK: usize = 128;
const WRITES: u64 = 600;
/// The replica that crashes.
const VICTIM: usize = 1;

/// Every pinned observable of one RS replica recovery, in table order.
fn rs_image(seed: u64) -> [u64; 9] {
    let cl = RsCluster::new(3, &RsConfig::paper(BLOCKS, BLOCK as u64));
    let c = cl.open_client();
    let mut rng = SimRng::new(seed);
    for i in 0..WRITES {
        // Every seventh write misses the victim, so its peers hold
        // versions its log never saw and the delta resync has work.
        let mut down = [false; 3];
        down[VICTIM] = i % 7 == 3;
        let (op, step) = c.put(rng.gen_range(BLOCKS), seeded_bytes(&mut rng, BLOCK));
        assert_eq!(drive(&cl, &c, op, step, &down), RsOutcome::Written);
    }
    let victim = cl.replica(VICTIM);
    // A migration fence in the log: the block must not resurrect.
    victim.log_fence(5, 2);
    let (op, step) = c.put(9, seeded_bytes(&mut rng, BLOCK));
    assert_eq!(drive(&cl, &c, op, step, &[false; 3]), RsOutcome::Written);
    // A record for a block the replica does not have, and one whose
    // image fails its own checksum: neither may be installed.
    for key in [BLOCKS + 1, 6] {
        victim.store().append(&Record {
            epoch: 0,
            inc: 1,
            key,
            payload: vec![0xAB; victim.view().buf_len() as usize],
        });
    }
    victim.disk().tear_tail(&mut SimRng::new(seed ^ 0x7EA2));
    assert_eq!(victim.disk().rot(&mut SimRng::new(seed ^ 0x0707), 8), 8);

    cl.amnesia_restart(VICTIM);

    let view = victim.view();
    let arena = victim.server().arena();
    let mut mem = Fnv::new();
    for b in 0..BLOCKS {
        let meta = arena.read(view.meta(b), 16).expect("metadata in arena");
        mem.eat(&meta);
        let addr = u64::from_le_bytes(meta[8..].try_into().unwrap());
        if addr != 0 {
            mem.eat(&arena.read(addr, view.buf_len()).expect("buffer in arena"));
        }
    }
    let mut free = Fnv::new();
    for a in victim.server().freelists().snapshot(view.freelist) {
        free.eat_u64(a);
    }
    let d = cl.durable_stats();
    [
        d.replayed(),
        d.delta_resynced(),
        d.segments_truncated(),
        cl.rejoins(),
        cl.resyncs(),
        mem.0,
        victim.server().freelists().available(view.freelist) as u64,
        free.0,
        disk_image_fingerprint(victim.disk()),
    ]
}

/// `(seed, [replayed, delta_resynced, segments truncated, rejoins,
/// resyncs, fold of the victim's metadata + block buffers, free buffers,
/// fold of the free list, the victim's disk image after recovery])`.
#[rustfmt::skip]
const RS_GOLDEN: [(u64, [u64; 9]); 2] = [
    (0x5253_0001, [0x175, 0x20, 0x7, 0x1, 0x20, 0x588D0BF3D34B1227, 0x40, 0x429B36D50E8550F5, 0x9407885851865DC4]),
    (0x5253_0002, [0x178, 0xD, 0x5, 0x1, 0xD, 0x36079F1FDF056E2B, 0x40, 0x429B36D50E8550F5, 0x5688ACD6322129D3]),
];

#[test]
fn rs_recovery_image_matches_the_pinned_values() {
    let got: Vec<[u64; 9]> = RS_GOLDEN.iter().map(|&(seed, _)| rs_image(seed)).collect();
    if RS_GOLDEN.iter().zip(&got).any(|(&(_, want), g)| want != *g) {
        for (&(seed, _), g) in RS_GOLDEN.iter().zip(&got) {
            println!("{}", row(seed, g));
        }
        panic!("golden RS recovery image moved (table above is what this build produces)");
    }
}
