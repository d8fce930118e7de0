//! End-to-end key-value integration: PRISM-KV and Pilaf side by side on
//! the same workloads, checked against an in-memory model.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use prism_core::{FreeListId, PrismServer};
use prism_harness::kv_exp::preload_prism;
use prism_kv::entry;
use prism_kv::hash::{key_bytes, HashScheme};
use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{LoadError, PrismKvConfig, PrismKvServer, SizeClass};
use prism_kv::{drive, KvOutcome, KvProtocol};
use prism_rdma::arena::MemoryArena;
use prism_simnet::rng::SimRng;
use prism_testkit::seed_or;
use prism_workload::ycsb::value_bytes;

mod support;
use support::{assert_golden, bytes_key, disk_image_fingerprint, words_key};

/// Asserts a value produced by `value_bytes(key, nonce, ..)` is whole:
/// every 16-byte stripe must carry the key and the *same* nonce — a torn
/// read mixing two writes breaks the nonce consistency.
fn assert_untorn(key: u64, v: &[u8]) {
    assert!(v.len() >= 16);
    let nonce = &v[8..16];
    for (i, stripe) in v.chunks(16).enumerate() {
        assert_eq!(
            &stripe[0..8.min(stripe.len())],
            &key.to_le_bytes()[..8.min(stripe.len())],
            "stripe {i}: key"
        );
        if stripe.len() == 16 {
            assert_eq!(&stripe[8..16], nonce, "stripe {i}: torn nonce");
        }
    }
}

/// A GET of `key` (no `value`) or a PUT, driven to its outcome.
fn kv<P: KvProtocol>(s: &PrismServer, c: &P, key: &[u8], value: Option<&[u8]>) -> KvOutcome {
    let (mut op, req) = c.start(key, value);
    drive(s, req, |r| c.on_reply(&mut op, r)).0
}

const MODEL_KEYS: u64 = 256;

/// A random operation sequence over `MODEL_KEYS` keys, checked against
/// an in-memory model.
fn matches_model<P: KvProtocol>(store: &str, s: &PrismServer, c: &P) {
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = SimRng::new(seed_or(99));
    for i in 0..3_000u64 {
        let k = rng.gen_range(MODEL_KEYS);
        let (value, want) = if rng.gen_bool(0.5) {
            let value = value_bytes(k, i, 64);
            model.insert(k, value.clone());
            (Some(value), KvOutcome::Written)
        } else {
            (None, KvOutcome::Value(model.get(&k).cloned()))
        };
        let got = kv(s, c, &key_bytes(k), value.as_deref());
        assert_eq!(got, want, "{store} key {k}");
    }
}

/// Both stores, same random operation sequence, checked against a model.
#[test]
fn random_workload_matches_model_on_both_stores() {
    let prism = PrismKvServer::new(&PrismKvConfig::paper(MODEL_KEYS, 64));
    matches_model("PRISM-KV", prism.server(), &prism.open_client());
    let pilaf = PilafServer::new(&PilafConfig::paper(MODEL_KEYS, 64));
    matches_model("Pilaf", pilaf.server(), &pilaf.open_client());
}

/// Buffer accounting across heavy churn: the free-list population must
/// return to its starting point once all values are deleted.
#[test]
fn prism_kv_reclaims_every_buffer() {
    let cfg = PrismKvConfig {
        capacity: 64,
        scheme: HashScheme::Fnv,
        max_entry_len: 128,
        classes: vec![SizeClass {
            buf_len: 128,
            count: 96,
        }],
    };
    let s = PrismKvServer::new(&cfg);
    let c = s.open_client();
    let start = s.server().freelists().available(prism_core::FreeListId(0));
    for round in 0..5 {
        for k in 0..32u64 {
            let v = value_bytes(k, round, 50);
            assert_eq!(
                kv(s.server(), &c, &key_bytes(k), Some(&v)),
                KvOutcome::Written
            );
        }
    }
    for k in 0..32u64 {
        let (mut op, req) = c.delete(&key_bytes(k));
        let o = drive(s.server(), req, |r| op.on_reply(&c, r)).0;
        assert_eq!(o, KvOutcome::Written);
    }
    assert_eq!(
        s.server().freelists().available(prism_core::FreeListId(0)),
        start,
        "every buffer must come back after deletes"
    );
}

/// Concurrent mixed workload on PRISM-KV: values must never tear and
/// every read must return some complete previously-written value.
#[test]
fn prism_kv_concurrent_mixed_workload_is_atomic() {
    let s = Arc::new(PrismKvServer::new(&PrismKvConfig::paper(32, 64)));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let c = s.open_client();
                for i in 0..200u64 {
                    let k = (t * 7 + i) % 32;
                    let v = value_bytes(k, t << 32 | i, 64);
                    assert_eq!(
                        kv(s.server(), &c, &key_bytes(k), Some(&v)),
                        KvOutcome::Written
                    );
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4u64)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let c = s.open_client();
                let mut rng = SimRng::new(t);
                for _ in 0..500 {
                    let k = rng.gen_range(32);
                    match kv(s.server(), &c, &key_bytes(k), None) {
                        KvOutcome::Value(Some(v)) => {
                            assert_eq!(v.len(), 64);
                            assert_untorn(k, &v);
                        }
                        KvOutcome::Value(None) => {}
                        other => panic!("GET failed: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }
}

/// Pilaf under concurrent churn: CRCs plus out-of-place extents must
/// prevent torn reads, with bounded retries absorbing races.
#[test]
fn pilaf_concurrent_reads_see_complete_values() {
    let s = Arc::new(PilafServer::new(&PilafConfig::paper(16, 64)));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let puts = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let writer = {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        let puts = Arc::clone(&puts);
        std::thread::spawn(move || {
            let c = s.open_client();
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = i % 16;
                kv(s.server(), &c, &key_bytes(k), Some(&value_bytes(k, i, 64)));
                i += 1;
                puts.store(i, std::sync::atomic::Ordering::Release);
                // Pace the writer: an unthrottled in-process loop churns
                // extents far faster than any real 6 us RPC path could,
                // which would make every read a CRC-retry storm.
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        })
    };
    // Wait for one full pass over the key space before reading: on a
    // loaded machine the reader can otherwise finish its entire loop
    // before the writer's first PUT lands, and `hits > 0` below would
    // fail spuriously. The churn being tested still overlaps the reads.
    while puts.load(std::sync::atomic::Ordering::Acquire) < 16 {
        std::thread::yield_now();
    }
    let c = s.open_client();
    let mut rng = SimRng::new(5);
    let mut hits = 0;
    for _ in 0..3_000 {
        let k = rng.gen_range(16);
        match kv(s.server(), &c, &key_bytes(k), None) {
            KvOutcome::Value(Some(v)) => {
                assert_untorn(k, &v);
                hits += 1;
            }
            KvOutcome::Value(None) => {}
            KvOutcome::Failed(_) => {} // CRC retry budget exhausted under churn
            o => panic!("{o:?}"),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    assert!(hits > 0, "reads should observe written values");
}

/// Every arena byte of `s`, from the first address to the last.
fn arena_image(s: &PrismKvServer) -> Vec<u8> {
    let arena = s.server().arena();
    arena
        .read(MemoryArena::BASE, arena.len())
        .expect("the whole arena reads")
}

/// The buffers the next `n` PUTs pop from `s`'s free list: PUT `i`
/// overwrites key `i * 61 % keys` and the address is read back from its
/// slot.
fn next_pops(s: &PrismKvServer, keys: u64, value_len: usize, n: u64) -> Vec<u64> {
    let c = s.open_client();
    let view = s.view();
    (0..n)
        .map(|i| {
            let k = i * 61 % keys;
            let key = key_bytes(k);
            let put = kv(s.server(), &c, &key, Some(&value_bytes(k, 1, value_len)));
            assert_eq!(put, KvOutcome::Written, "PUT {i} of key {k}");
            let slot = view.slot_addr(view.scheme.slot(&key, 0, view.capacity));
            s.server().arena().read_u64(slot).expect("slot reads")
        })
        .collect()
}

/// The YCSB load phase's store, pinned: a 4 096-key x 512 B
/// `preload_prism` store's whole arena, every disk file with its synced
/// length, and the addresses the next 64 PUTs pop. A loader that moved
/// any byte, any sync or the free list's order changes this row.
#[test]
fn preload_prism_store_is_the_golden_image() {
    const KEYS: u64 = 4_096;
    const VALUE: usize = 512;
    let s = PrismKvServer::new(&PrismKvConfig::paper(KEYS, VALUE));
    preload_prism(&s, KEYS, VALUE);
    let row = [
        bytes_key(&arena_image(&s)),
        disk_image_fingerprint(s.disk()),
        words_key(&next_pops(&s, KEYS, VALUE, 64)),
    ];
    assert_golden(
        "preload_prism 4096 x 512 B: arena, disk, next 64 pops",
        &row,
        &[
            0x90e7_7dab_81dc_b96c,
            0x161d_9060_dc13_1a0f,
            0xc0e1_8a69_05f9_95c5,
        ],
    );
}

/// The PUT path's durable image, pinned: after the 4 096-key x 512 B
/// load, 1 536 generated PUTs and DELETEs (fixed seed, a quarter of them
/// DELETEs, fresh value nonces) run through the engine, each logged and
/// synced by the chain observer. The row is the whole arena and every
/// disk file with its synced length, so an allocator, log or sync change
/// that moved any byte, any watermark or the free list's order changes
/// it.
#[test]
fn put_path_durable_image_is_the_golden_image() {
    const KEYS: u64 = 4_096;
    const VALUE: usize = 512;
    let s = PrismKvServer::new(&PrismKvConfig::paper(KEYS, VALUE));
    preload_prism(&s, KEYS, VALUE);
    let c = s.open_client();
    let mut rng = SimRng::new(0x0D15_C0DE);
    for i in 0..1_536 {
        let k = rng.gen_range(KEYS);
        let key = key_bytes(k);
        let (mut op, req) = if rng.gen_bool(0.25) {
            c.delete(&key)
        } else {
            c.put(&key, &value_bytes(k, rng.next_u64(), VALUE))
        };
        let outcome = drive(s.server(), req, |r| op.on_reply(&c, r)).0;
        assert_eq!(outcome, KvOutcome::Written, "op {i} on key {k}");
    }
    let row = [
        bytes_key(&arena_image(&s)),
        disk_image_fingerprint(s.disk()),
    ];
    assert_golden(
        "4096 x 512 B load + 1536 PUTs/DELETEs: arena, disk",
        &row,
        &[0x3080_0954_7fcc_9306, 0x636f_bc9d_fb0c_6bfc],
    );
}

/// The YCSB load phase as it was first written, one PUT machine per key
/// driven to completion: the oracle the server-side load is held to.
/// Key `k` gets `value_bytes(k, 0, len)` for the `len` that `lens`
/// yields `k`th.
fn preload_by_puts(s: &PrismKvServer, lens: impl IntoIterator<Item = usize>) {
    let c = s.open_client();
    for (k, len) in (0..).zip(lens) {
        let put = kv(s.server(), &c, &key_bytes(k), Some(&value_bytes(k, 0, len)));
        assert_eq!(put, KvOutcome::Written, "oracle load of key {k}");
    }
}

/// A disk file as [`store_image`] sees it: name, synced length, bytes.
type DiskFile = (String, usize, Vec<u8>);

/// Every disk file of `s`: name, synced length and bytes.
fn disk_files(s: &PrismKvServer) -> Vec<DiskFile> {
    let disk = s.disk();
    disk.list("")
        .into_iter()
        .map(|name| {
            let synced = disk.synced(&name).expect("listed file has a watermark");
            let bytes = disk.read(&name).expect("listed file reads");
            (name, synced, bytes)
        })
        .collect()
}

/// Every byte a store holds: the whole arena, then every disk file's
/// name, synced length and bytes.
fn store_image(s: &PrismKvServer) -> (Vec<u8>, Vec<DiskFile>) {
    (arena_image(s), disk_files(s))
}

/// A collisionless config of `keys` slots over the size classes whose
/// largest values are `caps` (ascending), `keys + 64` buffers each.
fn classes_config(keys: u64, caps: &[usize]) -> PrismKvConfig {
    let buf_len = |cap: usize| entry::encoded_len(8, cap) as u64;
    PrismKvConfig {
        capacity: keys,
        scheme: HashScheme::Collisionless,
        max_entry_len: buf_len(caps[caps.len() - 1]) as u32,
        classes: caps
            .iter()
            .map(|&cap| SizeClass {
                buf_len: buf_len(cap),
                count: keys + 64,
            })
            .collect(),
    }
}

/// The loader against its oracle at generated scales: a store loaded by
/// `preload_prism` equals one loaded by a PUT per key byte for byte,
/// arena and disk, and stays equal through the same PUTs (fresh value
/// nonces) and DELETEs applied to both. Key counts, value lengths, the
/// operations and their nonces come from `seed_or`. The last two cases
/// load through [`PrismKvServer::load`]: one spreads its keys' value
/// lengths over two or three size classes, so the loader's class choice
/// meets the PUT's; one hashes by FNV into a 1 021-slot table, so keys
/// share home slots and the loader's probe path meets the PUT's. (FNV-1a
/// over sequential keys clusters: at these counts that prime table has
/// collisions and no path longer than 8 slots, where a table sized from
/// the key count can fill a key's whole path, which fails the PUT too.)
#[test]
fn preload_prism_equals_a_put_per_key() {
    let mut rng = SimRng::new(seed_or(0x10AD));
    for case in 0..8 {
        let (mixed, fnv) = (case == 6, case == 7);
        let keys = if fnv {
            66 + rng.gen_range(535)
        } else {
            1 + rng.gen_range(600)
        };
        // `top`: the longest value; a mixed case draws each length in 1..=top.
        let (config, lens, top) = if mixed {
            let classes = 2 + rng.gen_range(2) as usize;
            let mut caps = Vec::new();
            while caps.len() < classes {
                let cap = 1 + rng.gen_range(1_024) as usize;
                if !caps.contains(&cap) {
                    caps.push(cap);
                }
            }
            caps.sort_unstable();
            let top = caps[classes - 1];
            let lens = (0..keys).map(|_| 1 + rng.gen_range(top as u64) as usize);
            (classes_config(keys, &caps), lens.collect(), top)
        } else {
            let top = 1 + rng.gen_range(1_024) as usize;
            let mut config = PrismKvConfig::paper(keys, top);
            if fnv {
                config.scheme = HashScheme::Fnv;
                config.capacity = 1_021;
            }
            (config, vec![top; keys as usize], top)
        };
        let at = format!("case {case}: {keys} keys x {top} B (mixed {mixed}, fnv {fnv})");
        if fnv {
            let home = |k| config.scheme.slot(&key_bytes(k), 0, config.capacity);
            let homes: HashSet<u64> = (0..keys).map(home).collect();
            assert!(homes.len() < keys as usize, "{at}: no key probes");
        }
        let (loaded, oracle) = (PrismKvServer::new(&config), PrismKvServer::new(&config));
        if mixed || fnv {
            let entries = (0..).zip(&lens);
            let entries = entries.map(|(k, &len)| (key_bytes(k), value_bytes(k, 0, len)));
            assert_eq!(loaded.load(entries), Ok(keys));
        } else {
            preload_prism(&loaded, keys, top);
        }
        preload_by_puts(&oracle, lens);
        assert!(
            store_image(&loaded) == store_image(&oracle),
            "{at}: after the load"
        );
        let clients = (loaded.open_client(), oracle.open_client());
        for i in 0..8 {
            let k = rng.gen_range(keys);
            let key = key_bytes(k);
            let nonce = rng.next_u64();
            let delete = rng.gen_bool(0.25);
            let len = if mixed {
                1 + rng.gen_range(top as u64) as usize
            } else {
                top
            };
            for (s, c) in [(&loaded, &clients.0), (&oracle, &clients.1)] {
                let (mut op, req) = if delete {
                    c.delete(&key)
                } else {
                    c.put(&key, &value_bytes(k, nonce, len))
                };
                let outcome = drive(s.server(), req, |r| op.on_reply(c, r)).0;
                assert_eq!(outcome, KvOutcome::Written, "{at}: op {i} on key {k}");
            }
            let same = store_image(&loaded) == store_image(&oracle);
            assert!(same, "{at}: after op {i} (key {k}, delete {delete})");
        }
    }
}

/// `load`'s stream of keys `keys` with `len`-byte values.
fn load_keys(s: &PrismKvServer, keys: std::ops::Range<u64>, len: usize) -> Result<u64, LoadError> {
    s.load(keys.map(|k| (key_bytes(k), value_bytes(k, 0, len))))
}

/// An occupied slot is refused with a typed error, and nothing of the
/// refused key is logged or installed: the disk, the slot and the free
/// list's population are as they were.
#[test]
fn load_refuses_an_occupied_slot() {
    let s = PrismKvServer::new(&PrismKvConfig::paper(8, 64));
    assert_eq!(load_keys(&s, 0..4, 64), Ok(4));
    let view = s.view();
    let slot = view.scheme.slot(&key_bytes(2), 0, view.capacity);
    let word = |s: &PrismKvServer| s.server().arena().read(view.slot_addr(slot), 16);
    let free = |s: &PrismKvServer| s.server().freelists().available(FreeListId(0));
    let before = (disk_files(&s), word(&s), free(&s));
    assert_eq!(
        load_keys(&s, 2..4, 64),
        Err(LoadError::Occupied { at: 0, slot })
    );
    assert!((disk_files(&s), word(&s), free(&s)) == before);
}

/// An entry no size class fits is refused with a typed error before
/// anything is touched: the store equals one that never saw the key.
#[test]
fn load_refuses_an_entry_that_fits_no_size_class() {
    let config = PrismKvConfig::paper(8, 64);
    let (refused, prefix) = (PrismKvServer::new(&config), PrismKvServer::new(&config));
    let too_long = (key_bytes(1), value_bytes(1, 0, 65));
    let entries = [(key_bytes(0), value_bytes(0, 0, 64)), too_long];
    let len = entry::encoded_len(8, 65) as u64;
    assert_eq!(
        refused.load(entries),
        Err(LoadError::TooLarge { at: 1, len })
    );
    assert_eq!(load_keys(&prefix, 0..1, 64), Ok(1));
    assert!(store_image(&refused) == store_image(&prefix));
}

/// A size class whose free list runs dry refuses the next key with a
/// typed error: the store equals one loaded with the keys before it.
#[test]
fn load_refuses_a_key_once_its_free_list_is_empty() {
    let config = PrismKvConfig {
        classes: vec![SizeClass {
            buf_len: entry::encoded_len(8, 64) as u64,
            count: 4,
        }],
        ..PrismKvConfig::paper(8, 64)
    };
    let (refused, prefix) = (PrismKvServer::new(&config), PrismKvServer::new(&config));
    let class = FreeListId(0);
    assert_eq!(
        load_keys(&refused, 0..8, 64),
        Err(LoadError::Exhausted { at: 4, class })
    );
    assert_eq!(load_keys(&prefix, 0..4, 64), Ok(4));
    assert!(store_image(&refused) == store_image(&prefix));
}
