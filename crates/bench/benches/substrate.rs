//! The workspace's one bench binary. Real CPU cost, layer by layer: each
//! PRISM primitive on the software data plane (the per-op execution
//! component of Figure 1; the transport is modelled), the free list
//! behind ALLOCATE, the frame codec, the CRC under every checksum in the
//! workspace, whole KV/RS/TX operations and their baselines executed
//! directly against their servers, the DES kernel's event throughput
//! (which bounds how fast figures regenerate), workload generators, and
//! the cache-cold indirect GET with and without the simulator's
//! lookahead hint.

use prism_bench::runner::Runner;

use prism_core::builder::ops;
use prism_core::freelist::FreeLists;
use prism_core::install::{self, Guard, Installed, Word};
use prism_core::msg::{execute_local, Reply, Request};
use prism_core::op::{field_mask, full_mask, FreeListId, Redirect};
use prism_core::value::CasMode;
use prism_core::{wire, OpResult, OpStatus, PrismServer};
use prism_harness::kv_exp::preload_prism;
use prism_kv::hash::key_bytes;
use prism_kv::pilaf::{PilafConfig, PilafServer};
use prism_kv::prism_kv::{PrismKvConfig, PrismKvServer};
use prism_kv::{drive as kv_drive, KvProtocol};
use prism_rdma::arena::MemoryArena;
use prism_rdma::region::AccessFlags;
use prism_simnet::engine::{Actor, Context, Simulation};
use prism_simnet::rng::SimRng;
use prism_simnet::time::{SimDuration, SimTime};
use prism_tx::farm::{FarmCluster, FarmConfig};
use prism_tx::prism_tx::{TxCluster, TxConfig, TxServer};
use prism_tx::{drive, TxOutcome, TxProtocol};
use prism_workload::dist::ZipfGen;
use prism_workload::PoissonGen;

struct PingPong {
    peer_offset: isize,
    remaining: u32,
}

impl Actor<u32> for PingPong {
    fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
        if self.remaining == 0 {
            ctx.stop();
            return;
        }
        self.remaining -= 1;
        let me = ctx.self_id().index() as isize;
        let dst = prism_simnet::engine::ActorId::from_index((me + self.peer_offset) as usize);
        ctx.send_in(dst, SimDuration::from_nanos(100), msg + 1);
    }
}

fn bench_des(run: &mut Runner) {
    run.bench("des/100k_events_ping_pong", |b| {
        b.iter(|| {
            let mut sim: Simulation<u32> = Simulation::new(1);
            let a = sim.add_actor(Box::new(PingPong {
                peer_offset: 1,
                remaining: 50_000,
            }));
            sim.add_actor(Box::new(PingPong {
                peer_offset: -1,
                remaining: 50_000,
            }));
            sim.post(a, 0);
            sim.run();
            sim.now()
        });
    });
    run.bench("des/send_with_lookahead", |b| {
        // What `Actor::lookahead` adds to a send to another actor that
        // keeps the default and ignores it: the actor-table lookup and
        // the dynamic call, 100k of them — one per event of the
        // ping-pong row above, against which this row is read. (A
        // self-send, which is every event of the timer rows below,
        // skips both.)
        let mut actors: Vec<Box<dyn Actor<u32>>> = (0..2)
            .map(|_| {
                Box::new(PingPong {
                    peer_offset: 0,
                    remaining: 0,
                }) as Box<dyn Actor<u32>>
            })
            .collect();
        b.iter(|| {
            for i in 0..100_000u32 {
                let dst = std::hint::black_box(i as usize & 1);
                if let Some(actor) = actors.get_mut(dst) {
                    actor.lookahead(std::hint::black_box(&i));
                }
            }
        });
    });
}

/// A host with a 1 MiB region, one 576-byte free list, and a pointer at
/// the region's base to a 512-byte object, for the indirect paths.
struct Rig {
    server: PrismServer,
    data: u64,
    rkey: u32,
    scratch: u64,
    scratch_rkey: u32,
}

fn rig() -> Rig {
    let server = PrismServer::new(1 << 22);
    let (data, rkey) = server.carve_region(1 << 20, 64, AccessFlags::FULL);
    server.setup_freelist(FreeListId(0), 576, 1024);
    let conn = server.open_connection();
    server.arena().write(data + 4096, &[7u8; 512]).unwrap();
    server.arena().write_u64(data, data + 4096).unwrap();
    server.arena().write_u64(data + 8, 512).unwrap();
    Rig {
        server,
        data,
        rkey: rkey.0,
        scratch: conn.scratch_addr,
        scratch_rkey: conn.scratch_rkey.0,
    }
}

/// The free list alone: one pop (under the read side of the posting
/// gate, as ALLOCATE pops) and one post of the same buffer, on a pool of
/// 262 144 free buffers, so the FIFO cycles through all of them.
fn bench_freelist(run: &mut Runner) {
    let (lists, id) = (FreeLists::new(), FreeListId(0));
    lists.register_pool(id, 512, MemoryArena::BASE, 262_144, 0);
    run.bench("freelist/pop_post_262144", |b| {
        b.iter(|| {
            let gate = lists.gate_read();
            let (addr, _) = lists.pop(id).unwrap();
            drop(gate);
            lists.post(id, [addr]).unwrap();
        });
    });
}

/// ALLOCATE of 512 B from a cold buffer: one 576-byte free list of
/// 262 144 buffers (`live_kv_ycsb_a`'s key count), each buffer posted
/// back as soon as it is popped, so the FIFO cycles the whole 151 MiB
/// pool and every pop takes a buffer last touched a pool ago, as a PUT
/// on that workload does. The pool is written once before timing, so
/// no iteration takes a first-touch page fault.
fn bench_allocate_cold(run: &mut Runner) {
    const POOL: u64 = 262_144;
    const STRIDE: u64 = 576;
    run.bench("primitive/allocate_cold_512", |b| {
        let server = PrismServer::new(POOL * STRIDE + (1 << 20));
        let base = server.setup_freelist(FreeListId(0), STRIDE, POOL);
        for page in (0..POOL * STRIDE).step_by(4096) {
            server.arena().write_u64(base + page, 0).unwrap();
        }
        let chain = [ops::allocate(FreeListId(0), vec![9u8; 512])];
        let mut results = Vec::new();
        b.iter(|| {
            server.execute_chain_into(&chain, &mut results);
            let addr = u64::from_le_bytes(results[0].data.as_slice().try_into().unwrap());
            server.freelists().post(FreeListId(0), [addr]).unwrap();
        });
    });
}

/// Each PRISM primitive executed as a one-op chain, and the §3.5
/// out-of-place update as one four-op chain.
fn bench_primitives(run: &mut Runner) {
    let r = rig();

    run.bench("primitive/read_512", |b| {
        let op = [ops::read(r.data + 4096, 512, r.rkey)];
        b.iter(|| r.server.execute_chain(std::hint::black_box(&op)));
    });

    run.bench("primitive/write_512", |b| {
        let op = [ops::write(r.data + 8192, vec![1u8; 512], r.rkey)];
        b.iter(|| r.server.execute_chain(std::hint::black_box(&op)));
    });

    run.bench("primitive/read_512_into", |b| {
        // Zero-alloc chain path: the results vector (and its data
        // buffers) are reused across executions.
        let op = [ops::read(r.data + 4096, 512, r.rkey)];
        let mut results = Vec::new();
        b.iter(|| {
            r.server
                .execute_chain_into(std::hint::black_box(&op), &mut results);
            results[0].data.len()
        });
    });

    run.bench("primitive/indirect_read_512", |b| {
        let op = [ops::read_indirect_bounded(r.data, 512, r.rkey)];
        b.iter(|| r.server.execute_chain(std::hint::black_box(&op)));
    });

    run.bench("primitive/enhanced_cas_16", |b| {
        // Version-install CAS that always succeeds (version grows).
        let mut version = 0u64;
        b.iter(|| {
            version += 1;
            let mut word = version.to_be_bytes().to_vec();
            word.extend_from_slice(&[0u8; 8]);
            let op = [ops::cas(
                CasMode::Lt,
                r.data + 16384,
                r.rkey,
                word.clone(),
                word,
                16,
                field_mask(0, 8),
                full_mask(16),
            )];
            r.server.execute_chain(&op)
        });
    });

    run.bench("primitive/allocate_free_512", |b| {
        b.iter_batched(
            || (),
            |()| {
                let res = r
                    .server
                    .execute_chain(&[ops::allocate(FreeListId(0), vec![9u8; 512])]);
                let addr = u64::from_le_bytes(res[0].data.as_slice().try_into().unwrap());
                r.server.freelists().post(FreeListId(0), [addr]).unwrap();
            },
        );
    });

    run.bench("primitive/out_of_place_update_chain", |b| {
        // The §3.5 composite: WRITE + ALLOCATE(redirect) + CAS + READ.
        let slot = r.data + 32768;
        let stage = Redirect {
            addr: r.scratch,
            rkey: r.scratch_rkey,
        };
        b.iter(|| {
            let old = r.server.arena().read(slot, 16).unwrap().try_into().unwrap();
            let guard = Guard::Unchanged { old, bound: 576 };
            let chain = install::chain(slot, r.rkey, stage, FreeListId(0), vec![3u8; 512], guard);
            let res = r.server.execute_chain(&chain);
            // Repost exactly the buffer the install displaced, to keep
            // the pool stable.
            let installed = install::read(&res, Word::PtrBound);
            assert!(matches!(installed, Installed::Won { .. }), "{installed:?}");
            r.server
                .freelists()
                .post(FreeListId(0), installed.garbage())
                .unwrap();
            res
        });
    });
}

/// The GET of §6.1 — one bounded indirect READ of a slot — over a store
/// too big for the private caches: 2 MiB of `(ptr, bound)` slots over
/// 72 MiB of 576-byte entries in scattered order, slots drawn uniformly,
/// so nearly every op is two dependent misses (slot word, then entry)
/// plus their page walks. `unhinted` executes each GET as it comes;
/// `hinted` does what `ServerActor` does with the simulator's lookahead
/// — stage one for the GET that is `AHEAD` ops away, stage two for the
/// one hinted just before it — and then executes the same GET stream.
/// Read against `verbs/read_512_into`, the same copy with everything
/// resident.
fn bench_chain_cold(run: &mut Runner) {
    use std::cell::LazyCell;

    const SLOTS: u64 = 1 << 17;
    const ENTRY: u64 = 576;
    /// Sends between a request's hint and its execution in
    /// `sim_kv_open_1m` at 8 Mops: about a wire delay's worth.
    const AHEAD: usize = 8;

    // Built on first use, so a filtered run that selects neither row
    // does not pay for the store.
    let store = LazyCell::new(|| {
        let server = PrismServer::new(SLOTS * (16 + ENTRY) + (1 << 20));
        let (table, rkey) = server.carve_region(SLOTS * (16 + ENTRY), 64, AccessFlags::FULL);
        let entries = table + SLOTS * 16;
        for i in 0..SLOTS {
            // An odd multiplier permutes the slots' entries.
            let entry = entries + (i.wrapping_mul(0x9E37_79B9) % SLOTS) * ENTRY;
            server
                .arena()
                .write(entry, &[i as u8; ENTRY as usize])
                .unwrap();
            server.arena().write_u64(table + 16 * i, entry).unwrap();
            server.arena().write_u64(table + 16 * i + 8, ENTRY).unwrap();
        }
        (server, table, rkey.0)
    });
    let get = |rng: &mut SimRng, table: u64, rkey: u32| {
        let slot = table + 16 * (rng.next_u64() % SLOTS);
        [ops::read_indirect_bounded(slot, ENTRY as u32, rkey)]
    };

    run.bench("chain/get_indirect_cold/unhinted", |b| {
        let (server, table, rkey) = &*store;
        let mut rng = SimRng::new(7);
        let mut results = Vec::new();
        b.iter(|| {
            let chain = get(&mut rng, *table, *rkey);
            server.execute_chain_into(&chain, &mut results);
            assert_eq!(results[0].data.len(), ENTRY as usize);
        });
    });
    run.bench("chain/get_indirect_cold/hinted", |b| {
        let (server, table, rkey) = &*store;
        let engine = server.engine();
        let mut rng = SimRng::new(7);
        let mut results = Vec::new();
        // The GETs already "sent": hinted, not yet executed.
        let mut ring: [_; AHEAD] = std::array::from_fn(|_| get(&mut rng, *table, *rkey));
        let mut pending = None;
        let mut next = 0;
        b.iter(|| {
            let sent = get(&mut rng, *table, *rkey);
            if let Some(p) = pending.take() {
                engine.hint_target(p);
            }
            pending = engine.hint_chain(&sent);
            let chain = std::mem::replace(&mut ring[next], sent);
            next = (next + 1) % AHEAD;
            server.execute_chain_into(&chain, &mut results);
            assert_eq!(results[0].data.len(), ENTRY as usize);
        });
    });
}

/// Holds a constant population of pending timers (seeded in `on_start`)
/// while every delivered event re-arms one at a pseudo-random offset —
/// the access pattern of open-loop load generation, where each of 10⁵+
/// logical clients keeps a timeout or arrival timer outstanding. At
/// this depth a binary heap would pay its worst constant per event; the
/// timer wheel stays O(1).
struct DeepChurn {
    pending: u32,
    remaining: u32,
    rng: SimRng,
}

impl DeepChurn {
    fn rearm(&mut self, ctx: &mut Context<'_, u8>) {
        let me = ctx.self_id();
        // Offsets up to ~16 µs: events stay spread over thousands of
        // distinct timestamps, so batched same-time dispatch can't hide
        // the queue's per-event cost.
        let d = 1 + (self.rng.next_u64() & 0x3FFF);
        ctx.send_in(me, SimDuration::from_nanos(d), 0);
    }
}

impl Actor<u8> for DeepChurn {
    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        for _ in 0..self.pending {
            self.rearm(ctx);
        }
    }

    fn on_message(&mut self, _msg: u8, ctx: &mut Context<'_, u8>) {
        if self.remaining == 0 {
            ctx.stop();
            return;
        }
        self.remaining -= 1;
        self.rearm(ctx);
    }
}

fn run_deep_churn() -> SimTime {
    let mut sim: Simulation<u8> = Simulation::new(9);
    sim.add_actor(Box::new(DeepChurn {
        pending: 16_384,
        remaining: 65_536,
        rng: SimRng::new(5),
    }));
    sim.run();
    sim.now()
}

/// Event-queue throughput at open-loop depth: 64 k events dispatched
/// through a standing population of 16 k pending timers.
fn bench_deep_queue(run: &mut Runner) {
    run.bench("des/64k_events_16k_timers_wheel", |b| {
        b.iter(run_deep_churn);
    });
}

/// Borrowed-frame encode: `encode_into` appending to a reused buffer vs
/// the owned `encode` allocating per call, over a 4-op chain (the
/// per-message work of every simulated send).
fn bench_wire(run: &mut Runner) {
    let req = Request::Chain(
        (0..4u64)
            .map(|i| ops::read(0x1000 + i * 512, 512, 7))
            .collect(),
    );
    run.bench("wire/chain4_encode_owned", |b| {
        b.iter(|| req.encode().unwrap());
    });
    run.bench("wire/chain4_encode_into_reused", |b| {
        let mut buf = Vec::with_capacity(4096);
        b.iter(|| {
            buf.clear();
            req.encode_into(&mut buf).unwrap();
            buf.len()
        });
    });
    let bytes = req.encode().unwrap();
    run.bench("wire/chain4_decode", |b| {
        b.iter(|| Request::decode(&bytes).unwrap());
    });
    // The two frames that carry a value in PRISM-KV: a PUT's install
    // chain with the 530 B entry inline, and a GET's reply returning it.
    let stage = Redirect {
        addr: 0x7000_0040,
        rkey: 11,
    };
    let old = [7; 16];
    let guard = Guard::Unchanged { old, bound: 530 };
    let put = install::chain(0x1_0000, 5, stage, FreeListId(2), vec![0xA5; 530], guard);
    let put = Request::Chain(put.into());
    run.bench("wire/encode_epoch_put_530", |b| {
        b.iter(|| std::hint::black_box(&put).encode_epoch(7).unwrap());
    });
    let get_reply = Reply::Chain(vec![OpResult {
        status: OpStatus::Ok,
        data: vec![0xA5; 530],
    }]);
    run.bench("wire/reply_encode_get_530", |b| {
        b.iter(|| std::hint::black_box(&get_reply).encode().unwrap());
    });
    // A mixed chain body: bounded indirect READ, redirected ALLOCATE,
    // 16-byte CAS.
    let chain = vec![
        ops::read_indirect_bounded(0x1000, 512, 1),
        ops::allocate(FreeListId(0), vec![0u8; 512]).redirect(Redirect {
            addr: 0x2000,
            rkey: 2,
        }),
        ops::cas(
            CasMode::Lt,
            0x3000,
            1,
            vec![0u8; 16],
            vec![1u8; 16],
            16,
            full_mask(16),
            full_mask(16),
        ),
    ];
    let bytes = wire::encode_chain(&chain).unwrap();
    run.bench("wire/decode_3op_chain", |b| {
        b.iter(|| wire::decode_chain(std::hint::black_box(&bytes)).unwrap());
    });
}

/// `prism_core::crc`'s source compiled into this binary, so that its
/// crate-private paths — the folding kernel and the slice-by-16 tables —
/// can be timed side by side. The library exposes no way to pick one
/// (the CPU decides), and a bench is not a reason to add one.
#[allow(dead_code, unused_imports)]
#[path = "../../core/src/crc.rs"]
mod crc_paths;

/// Both CRC implementations at the sizes the stack checksums: header
/// fields and the tails a 16-byte lane leaves (4, 8, 12, 15 B — below
/// one lane the kernel rows are the dispatch check plus the table's
/// word steps), an RS block (64 B), a KV entry (530 B), a page (4 KiB).
/// On a CPU without PCLMULQDQ only the table rows appear.
fn bench_crc(run: &mut Runner) {
    const INIT: u32 = 0xFFFF_FFFF;
    for len in [4usize, 8, 12, 15, 64, 530, 4096] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        #[cfg(target_arch = "x86_64")]
        if crc_paths::crc32_clmul(INIT, &payload).is_some() {
            run.bench(&format!("crc32/{len}/kernel"), |b| {
                b.iter(|| crc_paths::crc32_clmul(INIT, std::hint::black_box(&payload)))
            });
        }
        run.bench(&format!("crc32/{len}/table"), |b| {
            b.iter(|| crc_paths::crc32_table(INIT, std::hint::black_box(&payload)))
        });
    }
}

fn bench_workload(run: &mut Runner) {
    let mut rng = SimRng::new(7);
    run.bench("workload/zipf_sample_8M", |b| {
        let zipf = ZipfGen::new(8_000_000, 0.99);
        b.iter(|| zipf.sample(&mut rng))
    });
    run.bench("workload/splitmix_next", |b| b.iter(|| rng.next_u64()));
    run.bench("workload/poisson_next_arrival", |b| {
        let mut poisson = PoissonGen::new(1_000_000.0, 11);
        b.iter(|| poisson.next_arrival())
    });
    // Building a generator over `sim_tx_closed`'s pair: a miss sums
    // 262 144 `powf` terms, a hit looks the constants up in the
    // process-wide table. Stepping theta one ulp per iteration makes
    // every construction a pair the table has never held (and its bound
    // keeps the walk from growing it).
    let mut theta = 0.8f64;
    run.bench("workload/zipf_new_262144/miss", |b| {
        b.iter(|| {
            theta = f64::from_bits(theta.to_bits() + 1);
            ZipfGen::new(262_144, theta)
        })
    });
    run.bench("workload/zipf_new_262144/hit", |b| {
        ZipfGen::new(262_144, 0.8);
        b.iter(|| ZipfGen::new(262_144, std::hint::black_box(0.8)))
    });
}

/// The PRISM-TX client path with no simulator around it: one single-key
/// read-modify-write, begun and driven to commit against a local
/// one-shard cluster (execute, prepare, commit: three chains). The
/// per-transaction cost `sim_tx_closed` pays in its adapters, plus the
/// server side of the three chains. And the construction of a fresh
/// 65 536-key shard alone (arena, slots, pool, every key's seed).
fn bench_tx(run: &mut Runner) {
    run.bench("tx/new_shard_65536", |b| {
        let config = TxConfig::paper(65_536, 512);
        b.iter(|| TxServer::new(&config, 0, 1));
    });
    run.bench("tx/rmw_txn_local", |b| {
        let cluster = TxCluster::new(1, &TxConfig::paper(1024, 512));
        let mut client = cluster.open_client();
        let mut key = 0u64;
        b.iter(|| {
            key = (key + 7) % 1024;
            let (op, step) = client.begin(vec![key]);
            let outcome = drive(&cluster, &mut client, op, step, |_| {
                vec![(key, vec![1u8; 512])]
            });
            assert!(matches!(outcome, TxOutcome::Committed(_)));
            outcome
        })
    });
    // The same transaction on FaRM: two execution READs, then lock and
    // update RPCs that the server CPU runs.
    run.bench("tx/farm_rmw_commit", |b| {
        let farm = FarmCluster::new(
            1,
            &FarmConfig {
                keys_per_shard: 1024,
                value_len: 512,
            },
        );
        let mut client = farm.open_client();
        b.iter(|| {
            let (op, step) = client.begin(vec![7]);
            drive(&farm, &mut client, op, step, |_| vec![(7, vec![1u8; 512])])
        });
    });
}

/// Whole KV operations executed directly against the server: PRISM-KV's
/// one-chain GET and PUT, and Pilaf's two-READ GET and its PUT RPC; and
/// the YCSB load phase of a fresh 4 096-key store (construction
/// included).
fn bench_kv(run: &mut Runner) {
    run.bench("kv/preload_prism_4096", |b| {
        b.iter(|| {
            let store = PrismKvServer::new(&PrismKvConfig::paper(4096, 512));
            preload_prism(&store, 4096, 512);
            store
        });
    });

    let prism = PrismKvServer::new(&PrismKvConfig::paper(1024, 512));
    let pc = prism.open_client();
    let val = vec![9u8; 512];
    let put = |value: &[u8]| {
        let (mut op, req) = pc.put(&key_bytes(7), value);
        kv_drive(prism.server(), req, |r| op.on_reply(&pc, r));
    };
    put(&val);

    run.bench("kv/prism_kv_get_512", |b| {
        b.iter(|| {
            let (mut op, req) = pc.get(&key_bytes(7));
            let reply = execute_local(prism.server(), &req);
            op.on_reply(&pc, reply)
        });
    });
    run.bench("kv/prism_kv_put_512", |b| b.iter(|| put(&val)));

    let pilaf = PilafServer::new(&PilafConfig::paper(1024, 512));
    let lc = pilaf.open_client();
    let (_, put_rpc) = lc.start(&key_bytes(7), Some(&val));
    execute_local(pilaf.server(), &put_rpc);
    run.bench("kv/pilaf_get_512", |b| {
        b.iter(|| {
            let (mut op, req) = lc.get(&key_bytes(7));
            kv_drive(pilaf.server(), req, |r| op.on_reply(&lc, r))
        });
    });
    run.bench("kv/pilaf_put_rpc_512", |b| {
        b.iter(|| execute_local(pilaf.server(), &put_rpc));
    });
}

/// A PRISM-RS write and read of one 512-byte block over three replicas,
/// every replica answering; and the construction of a fresh 65 536-block
/// replica alone (arena, metadata, pool, every block's seed).
fn bench_rs(run: &mut Runner) {
    use prism_rs::prism_rs::{PrismRsServer, RsCluster, RsConfig};
    use prism_rs::{drive, RsProtocol};

    run.bench("rs/new_replica_65536", |b| {
        let config = RsConfig::paper(65_536, 512);
        b.iter(|| PrismRsServer::new(&config));
    });
    let cluster = RsCluster::new(3, &RsConfig::paper(64, 512));
    let mut client = cluster.open_client();
    run.bench("rs/prism_rs_put_512_3replicas", |b| {
        b.iter(|| {
            let (op, step) = client.put(3, vec![5u8; 512]);
            drive(&cluster, &mut client, op, step, &[false; 3])
        });
    });
    run.bench("rs/prism_rs_get_512_3replicas", |b| {
        b.iter(|| {
            let (op, step) = client.get(3);
            drive(&cluster, &mut client, op, step, &[false; 3])
        });
    });
}

fn bench_memory(run: &mut Runner) {
    let arena = MemoryArena::new(1 << 20);
    let base = MemoryArena::BASE;
    arena.write(base, &[1u8; 4096]).unwrap();
    run.bench("memory/arena_read_64", |b| {
        let mut buf = [0u8; 64];
        b.iter(|| arena.read_into(base, &mut buf).unwrap());
    });
    run.bench("memory/arena_read_512", |b| {
        let mut buf = [0u8; 512];
        b.iter(|| arena.read_into(base, &mut buf).unwrap());
    });
    run.bench("memory/arena_read_4k", |b| {
        let mut buf = vec![0u8; 4096];
        b.iter(|| arena.read_into(base, &mut buf).unwrap());
    });
    run.bench("memory/arena_write_512", |b| {
        let data = [7u8; 512];
        b.iter(|| arena.write(base + 8192, &data).unwrap());
    });
    run.bench("memory/arena_write_4k", |b| {
        let data = vec![7u8; 4096];
        b.iter(|| arena.write(base + 16384, &data).unwrap());
    });
    run.bench("memory/arena_atomic_16", |b| {
        b.iter(|| {
            arena
                .atomic(base + 4096, 16, |bytes| bytes[0] = bytes[0].wrapping_add(1))
                .unwrap()
        });
    });

    // The set-up fault path: a fresh arena of a store's order of size,
    // one word written per 4 KiB page, then freed — what building a
    // KV/TX store pays before its first op.
    run.bench("arena/first_touch_64MiB", |b| {
        const LEN: u64 = 64 << 20;
        b.iter(|| {
            let arena = MemoryArena::new(LEN);
            for off in (0..LEN).step_by(4096) {
                arena.write_u64(base + off, off).unwrap();
            }
            arena.len()
        });
    });
}

fn bench_verbs(run: &mut Runner) {
    use prism_rdma::RdmaNic;

    let nic = RdmaNic::new(1 << 20);
    let rkey = nic.register(MemoryArena::BASE, 1 << 20, AccessFlags::FULL);
    let base = MemoryArena::BASE;
    nic.arena().write(base, &[5u8; 16384]).unwrap();

    run.bench("verbs/read_512_alloc", |b| {
        b.iter(|| nic.read(rkey, base, 512).unwrap());
    });
    run.bench("verbs/read_512_into", |b| {
        // Zero-alloc verb path: caller-provided buffer.
        let mut buf = vec![0u8; 512];
        b.iter(|| nic.read_into(rkey, base, &mut buf).unwrap());
    });
}

fn bench_recovery(run: &mut Runner) {
    use prism_rs::prism_rs::{RsCluster, RsConfig};
    use prism_rs::{drive, RsOutcome, RsProtocol};

    const BLOCKS: u64 = 64;
    const VALUE: usize = 64;

    let config = RsConfig::paper(BLOCKS, VALUE as u64);
    let cluster = RsCluster::new(3, &config);
    let mut client = cluster.open_client();
    for b in 0..BLOCKS {
        let v: Vec<u8> = (0..VALUE)
            .map(|i| (b as u8).wrapping_add(i as u8))
            .collect();
        let (op, step) = client.put(b, v);
        assert_eq!(
            drive(&cluster, &mut client, op, step, &[false; 3]),
            RsOutcome::Written
        );
    }

    run.bench("recovery/replay_vs_resync_intact_log", |b| {
        // The new recovery path: an amnesia restart replays the local
        // segment log and the delta probe fetches nothing — the whole
        // block set comes back without touching a peer buffer.
        b.iter(|| {
            std::hint::black_box(cluster.amnesia_restart(1));
        });
    });
    run.bench("recovery/replay_vs_resync_wiped_disk", |b| {
        // The pre-durability baseline: every restart was this — no
        // local log, every block fetched from a peer quorum. The wipe
        // inside the loop keeps each iteration a cold, full resync
        // (rejoin re-logs what it adopts, which would otherwise turn
        // iteration two into a replay).
        b.iter(|| {
            cluster.replica(1).store().wipe();
            std::hint::black_box(cluster.amnesia_restart(1));
        });
    });
}

/// The durable tier's write path. Its cost must not depend on how long
/// the log already is: the two `append_barrier` benches differ only in
/// the number of sealed segments behind them (and so in manifest and
/// file-table size) and must read the same.
fn bench_store(run: &mut Runner) {
    use prism_core::crc::crc32_combine;
    use prism_store::{Record, SegmentStore, SimDisk};
    use std::sync::Arc;

    // ~14 records per segment, as PRISM-KV's 560 B installs fill its
    // 8 KB segments, but small so a 32768-segment log stays ~32 MB.
    const LIMIT: usize = 1024;
    let rec = Record {
        epoch: 1,
        inc: 1,
        key: 7,
        payload: vec![0xA5; 44],
    };
    let grown = |limit: usize, segments: usize| {
        let store = SegmentStore::with_limit(Arc::new(SimDisk::new()), "b", limit);
        while store.sealed().len() < segments {
            for _ in 0..64 {
                store.append(&rec);
            }
        }
        store
    };

    for segments in [256usize, 32768] {
        run.bench(&format!("store/append_barrier@{segments}seg"), |b| {
            let store = grown(LIMIT, segments);
            b.iter(|| {
                store.append(std::hint::black_box(&rec));
                store.barrier();
            });
        });
    }
    // Every append passes this limit, so each iteration is one seal:
    // segment sync, manifest entry, next segment's header.
    run.bench("store/manifest_seal", |b| {
        let store = grown(64, 32768);
        b.iter(|| store.append(std::hint::black_box(&rec)));
    });
    run.bench("store/crc32_combine_1MiB", |b| {
        b.iter(|| {
            std::hint::black_box(crc32_combine(
                std::hint::black_box(0xDEAD_BEEF),
                0x1234_5678,
                1 << 20,
            ))
        });
    });
}

fn main() {
    let mut run = Runner::from_args();
    bench_primitives(&mut run);
    bench_allocate_cold(&mut run);
    bench_freelist(&mut run);
    bench_des(&mut run);
    bench_deep_queue(&mut run);
    bench_chain_cold(&mut run);
    bench_wire(&mut run);
    bench_crc(&mut run);
    bench_workload(&mut run);
    bench_kv(&mut run);
    bench_rs(&mut run);
    bench_tx(&mut run);
    bench_memory(&mut run);
    bench_verbs(&mut run);
    bench_recovery(&mut run);
    bench_store(&mut run);
}
