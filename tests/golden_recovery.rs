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
//! fingerprint in a chaos gate. A mismatch prints the row this build
//! produces (`support::assert_golden`).
//!
//! The reclaim rows pin the other way buffers come back: a write run's
//! withheld frees delivered over the wire (singly, batched, and in a
//! batch a bad address cuts short; on RS and TX also a repeat, an
//! out-of-range and a misaligned free), then a GC sweep, each folded as
//! the free lists it leaves; then the order ALLOCATE hands KV buffers
//! out in, what an amnesia restart leaves on the KV and RS lists, and
//! the TX list a write run leaves.

use prism_core::freelist::Pooled;
use prism_core::msg::{execute_local, Request};
use prism_core::op::FreeListId;
use prism_core::step::{drive_local, Input};
use prism_core::PrismServer;
use prism_harness::kv_exp::preload_prism;
use prism_kv::hash::key_bytes;
use prism_kv::prism_kv::{PrismKvClient, PrismKvConfig, PrismKvServer};
use prism_kv::{entry, KvStep};
use prism_rs::prism_rs::{RsCluster, RsConfig};
use prism_rs::{drive, RsOutcome, RsProtocol};
use prism_simnet::rng::SimRng;
use prism_store::Record;
use prism_tx::{TxCluster, TxConfig, TxProtocol};

mod support;
use support::{assert_golden, disk_image_fingerprint, replay_records, words_key, Fnv};

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
/// background reclaim requests reach the server, and the ones that do
/// not are returned. Withholding them is the point (the leaked buffers
/// force a refill), which is why this loop is not
/// `prism_kv::drive`: that one always delivers them.
fn kv_write(
    s: &PrismKvServer,
    c: &PrismKvClient,
    key: u64,
    value: Option<&[u8]>,
    frees: bool,
) -> Vec<Request> {
    let key = key_bytes(key);
    let (mut op, req) = match value {
        Some(v) => c.put(&key, v),
        None => c.delete(&key),
    };
    let mut reply = execute_local(s.server(), &req);
    let mut withheld = Vec::new();
    loop {
        let (next, background) = match op.on_reply(c, reply) {
            KvStep::Send {
                request,
                background,
            } => (Some(request), background),
            KvStep::Done { background, .. } => (None, background),
        };
        match background {
            Some(bg) if frees => _ = execute_local(s.server(), &bg),
            Some(bg) => withheld.push(bg),
            None => {}
        }
        match next {
            Some(request) => reply = execute_local(s.server(), &request),
            None => return withheld,
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
        rec_fold
            .eat_words(&[r.epoch, r.inc, r.key, r.payload.len() as u64])
            .eat(&r.payload);
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
    let free = words_key(&lists.snapshot(id));
    while lists.available(id) >= 16 {
        lists.pop(id).expect("non-empty class pops");
    }
    assert!(s.maybe_refill() > 0, "a drained class refills");
    let refilled = words_key(&lists.snapshot(id));

    let d = s.durable_stats();
    [
        live,
        mem.finish(),
        available,
        free,
        refilled,
        d.replayed(),
        d.segments_truncated(),
        records.len() as u64,
        rec_fold.finish(),
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
    for (seed, want) in KV_GOLDEN {
        assert_golden(&format!("KV recovery {seed:#x}"), &kv_image(seed), &want);
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
    let mut c = cl.open_client();
    let mut rng = SimRng::new(seed);
    for i in 0..WRITES {
        // Every seventh write misses the victim, so its peers hold
        // versions its log never saw and the delta resync has work.
        let mut down = [false; 3];
        down[VICTIM] = i % 7 == 3;
        let (op, step) = c.put(rng.gen_range(BLOCKS), seeded_bytes(&mut rng, BLOCK));
        assert_eq!(drive(&cl, &mut c, op, step, &down), RsOutcome::Written);
    }
    let victim = cl.replica(VICTIM);
    // A migration fence in the log: the block must not resurrect.
    victim.log_fence(5, 2);
    let (op, step) = c.put(9, seeded_bytes(&mut rng, BLOCK));
    assert_eq!(
        drive(&cl, &mut c, op, step, &[false; 3]),
        RsOutcome::Written
    );
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
    let free = words_key(&victim.server().freelists().snapshot(view.freelist));
    let d = cl.durable_stats();
    [
        d.replayed(),
        d.delta_resynced(),
        d.segments_truncated(),
        cl.rejoins(),
        cl.resyncs(),
        mem.finish(),
        victim.server().freelists().available(view.freelist) as u64,
        free,
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
    for (seed, want) in RS_GOLDEN {
        assert_golden(&format!("RS recovery {seed:#x}"), &rs_image(seed), &want);
    }
}

// ---------------------------------------------------------------------
// Reclamation
// ---------------------------------------------------------------------

/// The buffer a single free, `[0x01, addr u64]`, returns.
fn freed(req: &Request) -> Option<u64> {
    let Request::Rpc(m) = req else { return None };
    let addr = m.strip_prefix(&[0x01])?;
    Some(u64::from_le_bytes(addr.try_into().ok()?))
}

/// Free buffers and the snapshot fold of free list 0, the one list each
/// system here has.
fn list_image(server: &PrismServer) -> [u64; 2] {
    list_image_of(server, FreeListId(0))
}

/// Free buffers and the snapshot fold of free list `id`.
fn list_image_of(server: &PrismServer, id: FreeListId) -> [u64; 2] {
    let lists = server.freelists();
    [lists.available(id) as u64, words_key(&lists.snapshot(id))]
}

/// Delivers withheld `frees` to `server` over the wire — the first third
/// one at a time (`[0x01, addr]`), the next in batches of 16 (`[0x04, n
/// u16, addrs]`), the rest as one batch that `odd[0]` in its middle cuts
/// short — then each of `odd[1..]` alone, and returns [`list_image`].
fn deliver(server: &PrismServer, frees: &[u64], odd: &[u64]) -> [u64; 2] {
    let rpc = |op: u8, head: &[u8], addrs: &[u64]| {
        let addrs = addrs.iter().flat_map(|a| a.to_le_bytes());
        Request::Rpc([op].iter().chain(head).copied().chain(addrs).collect())
    };
    let batch = |addrs: &[u64]| rpc(0x04, &(addrs.len() as u16).to_le_bytes(), addrs);
    let (one_by_one, rest) = frees.split_at(frees.len() / 3);
    let (batched, cut) = rest.split_at(rest.len() / 2);
    let mut cut = cut.to_vec();
    cut.insert(cut.len() / 2, odd[0]);
    let mut reqs: Vec<Request> = one_by_one.iter().map(|&a| rpc(0x01, &[], &[a])).collect();
    reqs.extend(batched.chunks(16).map(batch));
    reqs.push(batch(&cut));
    reqs.extend(odd[1..].iter().map(|&a| rpc(0x01, &[], &[a])));
    reqs.iter().for_each(|req| _ = execute_local(server, req));
    list_image(server)
}

/// A small KV shard whose overwrites land on 16 hot keys with their frees
/// withheld, so the refills they force carve buffers the run also frees.
/// Its one bad address is a misaligned batch member.
fn kv_reclaim(seed: u64) -> Vec<u64> {
    let s = PrismKvServer::new(&PrismKvConfig::paper(256, 64));
    preload_prism(&s, 256, 64);
    let c = s.open_client();
    let mut rng = SimRng::new(seed);
    let (mut frees, mut refilled) = (Vec::new(), 0);
    for _ in 0..160 {
        refilled += s.maybe_refill();
        let value = seeded_bytes(&mut rng, 64);
        let withheld = kv_write(&s, &c, rng.gen_range(16), Some(&value), false);
        frees.extend(withheld.iter().filter_map(freed));
    }
    let delivered = deliver(s.server(), &frees, &[frees[0] + 8]);
    let gc = s.gc_sweep() as u64;
    let swept = list_image(s.server());
    let popped: Vec<u64> = (0..64)
        .map(|_| {
            let list = s.server().freelists();
            list.pop(FreeListId(0)).expect("free buffers").0
        })
        .collect();
    s.amnesia_restart();
    let mut restarted = Vec::new();
    for &(id, _) in &s.view().classes {
        restarted.extend(list_image_of(s.server(), id));
    }
    [
        &[refilled][..],
        &delivered,
        &[gc],
        &swept,
        &[words_key(&popped)],
        &restarted,
    ]
    .concat()
}

/// One RS replica that misses the frees of 48 writes, then gets them back
/// with a repeat, an out-of-range and a misaligned free after them.
fn rs_reclaim(seed: u64) -> Vec<u64> {
    let cl = RsCluster::new(3, &RsConfig::paper(BLOCKS, BLOCK as u64));
    let mut c = cl.open_client();
    let mut rng = SimRng::new(seed);
    let mut frees = Vec::new();
    for _ in 0..48 {
        let (mut op, mut step) = c.put(rng.gen_range(BLOCKS), seeded_bytes(&mut rng, BLOCK));
        // Every step's background is taken out of the loop's hands and
        // run after it, the victim's frees withheld.
        let mut bg = std::mem::take(&mut step.background);
        drive_local(
            step,
            |r| Some(&**cl.replica(r).server()),
            |input| {
                let mut step = match input {
                    Input::Reply(r, phase, _, reply) => c.on_reply(&mut op, phase, r, reply),
                    Input::Resume => c.reissue(&mut op),
                };
                bg.append(&mut step.background);
                step
            },
        );
        for (r, req) in bg {
            match freed(&req) {
                Some(a) if r == VICTIM => frees.push(a),
                _ => _ = execute_local(cl.replica(r).server(), &req),
            }
        }
    }
    let (victim, (pool, len)) = (cl.replica(VICTIM), cl.replica(VICTIM).pool_range());
    let odd = [pool + len, frees[0], victim.view().meta(0), frees[1] + 8];
    let delivered = deliver(victim.server(), &frees, &odd);
    let gc = victim.gc_sweep() as u64;
    let swept = list_image(victim.server());
    cl.amnesia_restart(VICTIM);
    [&delivered[..], &[gc], &swept, &list_image(victim.server())].concat()
}

/// One TX shard whose 48 blind writes have their frees withheld, then
/// delivered as RS's are.
fn tx_reclaim(seed: u64) -> Vec<u64> {
    let cl = TxCluster::new(1, &TxConfig::paper(32, 64));
    let (shard, mut c) = (cl.shard(0), cl.open_client());
    let mut rng = SimRng::new(seed);
    let mut frees = Vec::new();
    for _ in 0..48 {
        let write = (rng.gen_range(32), seeded_bytes(&mut rng, 64));
        let (mut op, pause) = c.begin(Vec::new());
        assert!(pause.awaiting_writes, "a blind write pauses at once");
        let mut step = c.supply_writes(&mut op, vec![write]);
        let mut bg = std::mem::take(&mut step.background);
        drive_local(
            step,
            |_| Some(&**shard.server()),
            |input| {
                let Input::Reply(_, phase, idx, reply) = input else {
                    panic!("a blind write pauses only before its first send");
                };
                let mut step = c.on_reply(&mut op, phase, idx, reply);
                bg.append(&mut step.background);
                step
            },
        );
        frees.extend(bg.iter().filter_map(|(_, req)| freed(req)));
    }
    let written = list_image(shard.server());
    let (pool, len) = shard.pool_range();
    let odd = [pool + len, frees[0], shard.view().slot(0), frees[1] + 8];
    [&written[..], &deliver(shard.server(), &frees, &odd)].concat()
}

/// `(system, seed, [buffers refilled (KV only), free buffers after the
/// write run and their fold (TX only), free buffers after delivery, their
/// fold, buffers the GC sweep reposted (KV and RS), free buffers after it,
/// their fold, the fold of the first 64 addresses ALLOCATE then pops (KV
/// only), free buffers after an amnesia restart and their fold (KV and
/// RS; each KV class in turn)])`.
#[rustfmt::skip]
const RECLAIM_GOLDEN: [(&str, u64, &[u64]); 6] = [
    ("KV", 0x4B56_0001, &[0x80, 0xA5, 0x71A3EF85A7EC0947, 0x1B, 0xC0, 0x16650088059BE8CB, 0x6DFF22EBC155F69F, 0x50, 0xC4A8C10040F55DC5]),
    ("KV", 0x4B56_0002, &[0x80, 0xA5, 0x85B5A4249590CA, 0x1B, 0xC0, 0x4F8FE8CC6B76E99C, 0xD4E64314D40D82AD, 0x50, 0xC4A8C10040F55DC5]),
    ("RS", 0x5253_0001, &[0x38, 0xECE89898B1AF2535, 0x8, 0x40, 0x7C777424A52AA887, 0x40, 0x429B36D50E8550F5]),
    ("RS", 0x5253_0002, &[0x38, 0x3AF45C8C03F58765, 0x8, 0x40, 0xCC6AD0D8CCF40E59, 0x40, 0x429B36D50E8550F5]),
    ("TX", 0x5458_0001, &[0x10, 0x1B9756CAD8F95DD5, 0x38, 0x321CC8FF449B4B6]),
    ("TX", 0x5458_0002, &[0x10, 0x1B9756CAD8F95DD5, 0x38, 0x2A7F996474636B08]),
];

#[test]
fn reclaim_leaves_the_pinned_free_lists() {
    for (system, seed, want) in RECLAIM_GOLDEN {
        let got = match system {
            "KV" => kv_reclaim(seed),
            "RS" => rs_reclaim(seed),
            _ => tx_reclaim(seed),
        };
        assert_golden(&format!("{system} reclaim {seed:#x}"), &got, want);
    }
}
