//! CPU cost of each PRISM primitive on the software data plane — the
//! reproduction's analogue of Figure 1's per-op execution component
//! (the transport component is modeled; this measures the real work).

use prism_bench::runner::{BatchSize, Criterion};
use prism_bench::{criterion_group, criterion_main};

use prism_core::builder::ops;
use prism_core::op::{field_mask, full_mask, DataArg, FreeListId, Redirect};
use prism_core::server::PrismServer;
use prism_core::value::CasMode;
use prism_core::wire;
use prism_rdma::region::AccessFlags;

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
    // Seed an object and a pointer for the indirect paths.
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

fn bench_primitives(c: &mut Criterion) {
    let r = rig();
    let mut g = c.benchmark_group("primitive");

    g.bench_function("read_512", |b| {
        let op = [ops::read(r.data + 4096, 512, r.rkey)];
        b.iter(|| r.server.execute_chain(std::hint::black_box(&op)));
    });

    g.bench_function("write_512", |b| {
        let op = [ops::write(r.data + 8192, vec![1u8; 512], r.rkey)];
        b.iter(|| r.server.execute_chain(std::hint::black_box(&op)));
    });

    g.bench_function("read_512_into", |b| {
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

    g.bench_function("indirect_read_512", |b| {
        let op = [ops::read_indirect_bounded(r.data, 512, r.rkey)];
        b.iter(|| r.server.execute_chain(std::hint::black_box(&op)));
    });

    g.bench_function("enhanced_cas_16", |b| {
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

    g.bench_function("allocate_free_512", |b| {
        b.iter_batched(
            || (),
            |()| {
                let res = r
                    .server
                    .execute_chain(&[ops::allocate(FreeListId(0), vec![9u8; 512])]);
                let addr = u64::from_le_bytes(res[0].data.as_slice().try_into().unwrap());
                r.server.freelists().post(FreeListId(0), [addr]).unwrap();
            },
            BatchSize::SmallInput,
        );
    });

    g.bench_function("out_of_place_update_chain", |b| {
        // The §3.5 composite: WRITE + ALLOCATE(redirect) + CAS + READ.
        let slot = r.data + 32768;
        b.iter(|| {
            let old = r.server.arena().read(slot, 16).unwrap();
            let chain = vec![
                ops::write(r.scratch + 8, 576u64.to_le_bytes().to_vec(), r.scratch_rkey),
                ops::allocate(FreeListId(0), vec![3u8; 512]).redirect(Redirect {
                    addr: r.scratch,
                    rkey: r.scratch_rkey,
                }),
                ops::cas_args(
                    CasMode::Eq,
                    slot,
                    r.rkey,
                    DataArg::Inline(old),
                    DataArg::Remote {
                        addr: r.scratch,
                        rkey: r.scratch_rkey,
                    },
                    16,
                    full_mask(16),
                    full_mask(16),
                )
                .conditional(),
                ops::read(r.scratch, 8, r.scratch_rkey),
            ];
            let res = r.server.execute_chain(&chain);
            // Reclaim the previous buffer to keep the pool stable.
            if let Ok(d) = res[2].expect_data() {
                let old_ptr = u64::from_le_bytes(d[8..16].try_into().unwrap());
                if old_ptr != 0 {
                    r.server.freelists().post(FreeListId(0), [old_ptr]).unwrap();
                }
            }
            res
        });
    });

    g.finish();

    let mut g = c.benchmark_group("wire");
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
    g.bench_function("encode_3op_chain", |b| {
        b.iter(|| wire::encode_chain(std::hint::black_box(&chain)).unwrap());
    });
    let bytes = wire::encode_chain(&chain).unwrap();
    g.bench_function("decode_3op_chain", |b| {
        b.iter(|| wire::decode_chain(std::hint::black_box(&bytes)).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
