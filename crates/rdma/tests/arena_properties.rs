//! Property tests: the arena behaves exactly like a flat byte array
//! under any sequence of reads, writes, and atomics, and the region
//! table never grants access outside a registration. Runs on the
//! in-repo `prism-testkit` harness; failures print a `PRISM_TEST_SEED`
//! for exact replay.

use prism_rdma::arena::MemoryArena;
use prism_rdma::region::{Access, AccessFlags, RegionTable};
use prism_rdma::RdmaError;
use prism_testkit::{for_all, gens, Config, Gen};

const LEN: u64 = 4096;

#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, data: Vec<u8> },
    Read { off: u64, len: u64 },
    Atomic { off: u64, len: u64, xor: u8 },
}

fn arb_op() -> Gen<Op> {
    gens::one_of(vec![
        gens::t2(gens::range_u64(0..LEN), gens::vec(gens::u8s(), 1..128))
            .map(|(off, data)| Op::Write { off, data }),
        gens::t2(gens::range_u64(0..LEN), gens::range_u64(1..256))
            .map(|(off, len)| Op::Read { off, len }),
        gens::t3(gens::range_u64(0..LEN), gens::range_u64(1..33), gens::u8s()).map(
            |(off, len, xor)| Op::Atomic {
                off: off & !7, // atomics naturally aligned in app usage
                len,
                xor,
            },
        ),
    ])
}

/// Sequential arena operations match a plain Vec<u8> model exactly,
/// including out-of-bounds rejection.
#[test]
fn arena_matches_flat_array_model() {
    let gen = gens::vec(arb_op(), 1..64);
    for_all(
        "arena_matches_flat_array_model",
        &Config::with_cases(128),
        &gen,
        |ops| {
            let arena = MemoryArena::new(LEN);
            let mut model = vec![0u8; LEN as usize];
            let base = MemoryArena::BASE;
            for op in ops.clone() {
                match op {
                    Op::Write { off, data } => {
                        let r = arena.write(base + off, &data);
                        if off + data.len() as u64 <= LEN {
                            assert!(r.is_ok());
                            model[off as usize..off as usize + data.len()].copy_from_slice(&data);
                        } else {
                            let oob = matches!(r, Err(RdmaError::OutOfBounds { .. }));
                            assert!(oob);
                        }
                    }
                    Op::Read { off, len } => {
                        let r = arena.read(base + off, len);
                        if off + len <= LEN {
                            assert_eq!(
                                r.expect("in bounds"),
                                &model[off as usize..(off + len) as usize]
                            );
                        } else {
                            assert!(r.is_err());
                        }
                    }
                    Op::Atomic { off, len, xor } => {
                        let r = arena.atomic(base + off, len, |bytes| {
                            bytes.iter_mut().for_each(|b| *b ^= xor)
                        });
                        if off + len <= LEN {
                            assert!(r.is_ok());
                            model[off as usize..(off + len) as usize]
                                .iter_mut()
                                .for_each(|b| *b ^= xor);
                        } else {
                            assert!(r.is_err());
                        }
                    }
                }
            }
            // Final state identical.
            assert_eq!(arena.read(base, LEN).expect("whole arena"), model);
        },
    );
}

/// Region validation grants exactly the registered ranges and rights.
#[test]
fn region_validation_is_exact() {
    let gen = gens::t2(
        gens::vec(
            gens::t5(
                gens::range_u64(0..LEN),
                gens::range_u64(1..512),
                gens::bools(),
                gens::bools(),
                gens::bools(),
            ),
            1..8,
        ),
        gens::vec(
            gens::t4(
                gens::range_usize(0..8),
                gens::range_u64(0..LEN),
                gens::range_u64(1..64),
                gens::range_u64(0..3).map(|v| v as u8),
            ),
            1..64,
        ),
    );
    for_all(
        "region_validation_is_exact",
        &Config::with_cases(128),
        &gen,
        |(regions, probes)| {
            let table = RegionTable::new();
            let mut keys = Vec::new();
            for &(addr, len, read, write, atomic) in regions {
                keys.push(table.register(
                    addr,
                    len,
                    AccessFlags {
                        read,
                        write,
                        atomic,
                    },
                ));
            }
            for &(ri, addr, len, access) in probes {
                let ri = ri % regions.len();
                let key = keys[ri];
                let (raddr, rlen, read, write, atomic) = regions[ri];
                let access = match access {
                    0 => Access::Read,
                    1 => Access::Write,
                    _ => Access::Atomic,
                };
                let inside = addr >= raddr && addr + len <= raddr + rlen;
                let allowed = match access {
                    Access::Read => read,
                    Access::Write => write,
                    Access::Atomic => atomic,
                };
                let r = table.validate(key, addr, len, access);
                assert_eq!(r.is_ok(), inside && allowed, "addr {} len {}", addr, len);
            }
        },
    );
}

/// Addresses and lengths a hint may be handed: anything at all, with
/// the arena's edges, zero and `u64::MAX` drawn often.
fn arb_hint_span() -> Gen<(u64, u64)> {
    let base = MemoryArena::BASE;
    let addr = gens::one_of(vec![
        gens::u64s(),
        gens::range_u64(base - 64..base + LEN + 64),
        gens::choice(vec![
            0,
            base - 1,
            base,
            base + LEN - 1,
            base + LEN,
            u64::MAX - 7,
            u64::MAX,
        ]),
    ]);
    let len = gens::one_of(vec![
        gens::u64s(),
        gens::range_u64(0..2 * LEN),
        gens::choice(vec![0, 1, 8, 16, LEN, LEN + 1, u64::MAX]),
    ]);
    gens::t2(addr, len)
}

/// A hint is not an access: `prefetch` takes any span and `peek_u64`
/// any address without panicking, neither moves a byte or a stripe
/// sequence, and a peek answers exactly for aligned in-bounds words.
#[test]
fn hints_accept_anything_and_change_nothing() {
    for_all(
        "hints_accept_anything_and_change_nothing",
        &Config::with_cases(128),
        &gens::vec(arb_hint_span(), 1..64),
        |spans| {
            let arena = MemoryArena::new(LEN);
            let base = MemoryArena::BASE;
            let model: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
            arena.write(base, &model).expect("fill");
            let seqs = arena.stripe_sequences();
            for &(addr, len) in spans {
                arena.prefetch(addr, len);
                let peeked = arena.peek_u64(addr);
                let word_inside =
                    addr >= base && addr.checked_add(8).is_some_and(|e| e <= base + LEN);
                if addr % 8 == 0 && word_inside {
                    let off = (addr - base) as usize;
                    let word = u64::from_le_bytes(model[off..off + 8].try_into().expect("8 bytes"));
                    assert_eq!(peeked, Some(word), "addr {addr:#x}");
                } else {
                    assert_eq!(peeked, None, "addr {addr:#x}");
                }
            }
            assert_eq!(arena.stripe_sequences(), seqs);
            assert_eq!(arena.read(base, LEN).expect("whole arena"), model);
        },
    );
}

/// `wipe` zeroes every byte whatever was written, and takes exactly the
/// stripes of the groups that held a non-zero byte.
#[test]
fn wipe_zeroes_all_and_touches_only_dirty_groups() {
    let gen = gens::vec(
        gens::t2(gens::range_u64(0..LEN), gens::vec(gens::u8s(), 1..128)),
        0..16,
    );
    for_all(
        "wipe_zeroes_all_and_touches_only_dirty_groups",
        &Config::with_cases(128),
        &gen,
        |writes| {
            let arena = MemoryArena::new(LEN);
            let base = MemoryArena::BASE;
            let mut model = vec![0u8; LEN as usize];
            for (off, data) in writes {
                if off + data.len() as u64 <= LEN {
                    arena.write(base + off, data).expect("in bounds");
                    model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
                }
            }
            let before = arena.stripe_sequences();
            arena.wipe();
            let after = arena.stripe_sequences();
            // LEN / GROUP groups, one stripe each at this size.
            for (g, group) in model.chunks(prism_rdma::arena::GROUP).enumerate() {
                let dirty = group.iter().any(|&b| b != 0);
                assert_eq!(before[g] != after[g], dirty, "group {g}");
            }
            assert_eq!(
                arena.read(base, LEN).expect("whole arena"),
                vec![0u8; LEN as usize]
            );
        },
    );
}
