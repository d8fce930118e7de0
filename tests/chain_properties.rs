//! Property-based tests over the PRISM core: wire-format round trips,
//! enhanced-CAS algebra against a reference model, free-list integrity,
//! conditional-chain semantics, and the §3.5 install's verdict. Runs on
//! the in-repo `prism-testkit` harness; failures print a
//! `PRISM_TEST_SEED` for exact replay.

use prism_core::builder::ops;
use prism_core::install::{self, Failure, Guard, Installed, Word};
use prism_core::msg::{self, Request, Verb};
use prism_core::op::{FreeListId, PrismOp, Redirect};
use prism_core::server::PrismServer;
use prism_core::value::{cas_compare, cas_swap, CasMode};
use prism_core::wire;
use prism_core::{OpResult, OpStatus};
use prism_rdma::region::AccessFlags;
use prism_testkit::{for_all, gens, Config, Gen};

mod support;
use support::{arb_mode, arb_op};

/// Any chain survives encode/decode unchanged.
#[test]
fn wire_round_trips() {
    let gen = gens::vec(arb_op(), 0..8);
    for_all(
        "wire_round_trips",
        &Config::with_cases(256),
        &gen,
        |chain| {
            let bytes = wire::encode_chain(chain).expect("encode");
            let decoded = wire::decode_chain(&bytes).expect("decode");
            assert_eq!(&decoded, chain);
        },
    );
}

/// Decoding never panics on arbitrary bytes.
#[test]
fn wire_decode_is_total() {
    let gen = gens::vec(gens::u8s(), 0..256);
    for_all(
        "wire_decode_is_total",
        &Config::with_cases(256),
        &gen,
        |bytes| {
            let _ = wire::decode_chain(bytes);
            let _ = wire::decode_response(bytes);
        },
    );
}

/// The CAS comparison agrees with a big-integer reference model.
#[test]
fn cas_compare_matches_reference() {
    let gen = gens::t4(
        arb_mode(),
        gens::vec_exact(gens::u8s(), 16),
        gens::vec_exact(gens::u8s(), 16),
        gens::vec_exact(gens::u8s(), 16),
    );
    for_all(
        "cas_compare_matches_reference",
        &Config::with_cases(256),
        &gen,
        |(mode, target, data, mask)| {
            let masked = |v: &[u8]| -> u128 {
                let mut out = [0u8; 16];
                for i in 0..16 {
                    out[i] = v[i] & mask[i];
                }
                u128::from_be_bytes(out)
            };
            let (t, d) = (masked(target), masked(data));
            let expected = match mode {
                CasMode::Eq => t == d,
                CasMode::Ne => t != d,
                CasMode::Lt => t < d,
                CasMode::Le => t <= d,
                CasMode::Gt => t > d,
                CasMode::Ge => t >= d,
            };
            assert_eq!(cas_compare(*mode, target, data, mask), expected);
        },
    );
}

/// The swap only changes masked bits, and is idempotent.
#[test]
fn cas_swap_respects_mask() {
    let gen = gens::t3(
        gens::vec_exact(gens::u8s(), 16),
        gens::vec_exact(gens::u8s(), 16),
        gens::vec_exact(gens::u8s(), 16),
    );
    for_all(
        "cas_swap_respects_mask",
        &Config::with_cases(256),
        &gen,
        |(target, data, mask)| {
            let mut after = target.clone();
            cas_swap(&mut after, data, mask);
            for i in 0..16 {
                assert_eq!(
                    after[i] & !mask[i],
                    target[i] & !mask[i],
                    "unmasked bits changed"
                );
                assert_eq!(
                    after[i] & mask[i],
                    data[i] & mask[i],
                    "masked bits not swapped"
                );
            }
            let mut twice = after.clone();
            cas_swap(&mut twice, data, mask);
            assert_eq!(twice, after, "swap must be idempotent");
        },
    );
}

/// Random conditional chains of CAS ops on one word behave exactly
/// like a sequential reference interpreter.
#[test]
fn conditional_chains_match_reference() {
    let gen = gens::t2(
        gens::u64s(),
        gens::vec(
            gens::t4(arb_mode(), gens::u64s(), gens::u64s(), gens::bools()),
            1..10,
        ),
    );
    for_all(
        "conditional_chains_match_reference",
        &Config::with_cases(256),
        &gen,
        |(initial, steps)| {
            let initial = *initial;
            let server = PrismServer::new(1 << 16);
            let (addr, rkey) = server.carve_region(64, 64, AccessFlags::FULL);
            server.arena().write(addr, &initial.to_be_bytes()).unwrap();

            let chain: Vec<PrismOp> = steps
                .iter()
                .map(|&(mode, cmp, swp, conditional)| {
                    let mut op = ops::cas(
                        mode,
                        addr,
                        rkey.0,
                        cmp.to_be_bytes().to_vec(),
                        swp.to_be_bytes().to_vec(),
                        8,
                        prism_core::op::full_mask(8),
                        prism_core::op::full_mask(8),
                    );
                    if conditional {
                        op = op.conditional();
                    }
                    op
                })
                .collect();
            let results = server.execute_chain(&chain);

            // Reference interpreter.
            let mut word = initial;
            let mut prev_ok = true;
            for (i, &(mode, cmp, swp, conditional)) in steps.iter().enumerate() {
                if conditional && !prev_ok {
                    assert_eq!(&results[i].status, &OpStatus::Skipped, "step {}", i);
                    prev_ok = false;
                    continue;
                }
                let t = word.to_be_bytes();
                let c = cmp.to_be_bytes();
                let ok = cas_compare(mode, &t, &c, &[0xFF; 8]);
                if ok {
                    assert_eq!(&results[i].status, &OpStatus::Ok, "step {}", i);
                    word = swp;
                } else {
                    assert_eq!(&results[i].status, &OpStatus::CasFailed, "step {}", i);
                }
                assert_eq!(results[i].data.as_slice(), &t, "old value at step {}", i);
                prev_ok = ok;
            }
            let final_word =
                u64::from_be_bytes(server.arena().read(addr, 8).unwrap().try_into().unwrap());
            assert_eq!(final_word, word);
        },
    );
}

/// ALLOCATE never hands out the same buffer twice while in use, for
/// any interleaving of allocations and frees.
#[test]
fn allocator_integrity() {
    let gen = gens::vec(gens::bools(), 1..200);
    for_all(
        "allocator_integrity",
        &Config::with_cases(256),
        &gen,
        |script| {
            let server = PrismServer::new(1 << 18);
            let fl = FreeListId(0);
            server.setup_freelist(fl, 64, 16);
            let mut live: Vec<u64> = Vec::new();
            for &alloc in script {
                if alloc {
                    let r = server.execute_chain(&[ops::allocate(fl, vec![0xAB; 8])]);
                    match &r[0].status {
                        OpStatus::Ok => {
                            let addr = u64::from_le_bytes(r[0].data.clone().try_into().unwrap());
                            assert!(!live.contains(&addr), "double allocation of {addr:#x}");
                            live.push(addr);
                        }
                        OpStatus::Error(prism_rdma::RdmaError::ReceiverNotReady) => {
                            assert_eq!(live.len(), 16, "RNR only when exhausted");
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                } else if let Some(addr) = live.pop() {
                    server.freelists().free(addr).unwrap();
                }
            }
        },
    );
}

/// An install run on a server either wins — the word holds the new
/// pointer, and the garbage is the buffer it displaced — or loses — the
/// word is unchanged, and the garbage is the orphan. Either buffer is
/// live, so `FreeLists::free` takes it back. The word holds a buffer or
/// null beside a tag or bound `have`; the guard wants `want`.
#[test]
fn installs_free_the_buffer_they_displace_or_orphan() {
    let small = || gens::range_u64(0..4);
    let gen = gens::t4(gens::bools(), gens::bools(), small(), small());
    for_all(
        "installs_free_the_buffer_they_displace_or_orphan",
        &Config::with_cases(256),
        &gen,
        |&(tagged, occupied, have, want)| {
            let server = PrismServer::new(1 << 16);
            let (at, rkey) = server.carve_region(16, 16, AccessFlags::FULL);
            let fl = FreeListId(0);
            server.setup_freelist(fl, 64, 4);
            let conn = server.open_connection();
            let stage = Redirect {
                addr: conn.scratch_addr,
                rkey: conn.scratch_rkey.0,
            };
            let prior = match occupied {
                true => {
                    let r = server.execute_chain(&[ops::allocate(fl, vec![1])]);
                    u64::from_le_bytes(r[0].data[..].try_into().unwrap())
                }
                false => 0,
            };
            // `[tag (big-endian) | ptr]` or `[ptr | bound]`.
            let word = |p: u64, x: u64| match tagged {
                true => [x.to_be_bytes(), p.to_le_bytes()].concat(),
                false => [p.to_le_bytes(), x.to_le_bytes()].concat(),
            };
            let (tag, old) = (want.to_be_bytes(), word(prior, want).try_into().unwrap());
            let wins = if tagged { have < want } else { have == want };
            let (layout, guard) = match tagged {
                true => (Word::TagPtr, Guard::TagBelow { tag }),
                false => (Word::PtrBound, Guard::Unchanged { old, bound: want }),
            };
            server.arena().write(at, &word(prior, have)).unwrap();
            let chain = install::chain(at, rkey.0, stage, fl, b"fresh".to_vec(), guard);
            let installed = install::read(&server.execute_chain(&chain), layout);
            let after = server.arena().read(at, 16).unwrap();
            match installed {
                Installed::Won { displaced } => {
                    assert!(wins && displaced == prior, "{installed:?}");
                    let new = layout.ptr(&after);
                    assert_eq!(after, word(new, want));
                    assert_eq!(server.arena().read(new, 5).unwrap(), b"fresh");
                }
                Installed::Lost { orphan, found } => {
                    assert!(!wins && installed.garbage() == Some(orphan));
                    assert_eq!(after, word(prior, have), "a lost install moved the word");
                    assert_eq!(found[..], after, "a loss reports the word it found");
                }
                Installed::Failed(f) => panic!("install failed: {f:?}"),
            }
            if let Some(buf) = installed.garbage() {
                assert_eq!(server.freelists().free(buf), Ok(()), "{installed:?}");
            }
        },
    );
}

/// The reader takes any result vector: short ones read as `Short`, and
/// it never names a null buffer.
#[test]
fn install_reader_is_total() {
    let abort = OpStatus::Error(prism_rdma::RdmaError::ChainAborted);
    let status = gens::choice(vec![
        OpStatus::Ok,
        OpStatus::CasFailed,
        OpStatus::Skipped,
        abort,
    ]);
    let data =
        gens::t2(gens::choice(vec![0, 8, 16, 23]), gens::u8s()).map(|(len, fill)| vec![fill; len]);
    let result = gens::t2(status, data).map(|(status, data)| OpResult { status, data });
    for_all(
        "install_reader_is_total",
        &Config::with_cases(512),
        &gens::vec(result, 0..10),
        |results| {
            for word in [Word::PtrBound, Word::TagPtr] {
                let first = install::read(results, word);
                if results.len() < install::OPS {
                    assert_eq!(first, Installed::Failed(Failure::Short));
                }
                for installed in std::iter::once(first).chain(install::read_each(results, word)) {
                    assert_ne!(installed.garbage(), Some(0));
                }
            }
        },
    );
}

/// Where a hinted op may point: anywhere (`None` keeps the arbitrary
/// address `arb_op` drew), one of the planted pointer slots of
/// `hints_execute_nothing`, or the arena's edges.
fn arb_hint_target() -> Gen<Option<u64>> {
    gens::one_of(vec![
        gens::constant(None),
        gens::range_u64(0..8 * 16).map(Some), // a slot, any alignment
        gens::range_u64(0..1 << 16).map(Some),
        gens::choice(vec![Some(u64::MAX), Some(u64::MAX - 7)]),
    ])
}

/// Lookahead hints (DESIGN.md §8) cannot hurt: whatever chain they are
/// given — bad rkeys, null, misaligned and out-of-range pointers, a
/// bound of 0 or `u64::MAX`, the RS fence word, a wiped arena, a
/// pending hint carried across an amnesia restart — neither stage
/// panics, moves a byte of the arena or a stripe sequence, touches a
/// free list or the incarnation.
#[test]
fn hints_execute_nothing() {
    let gen = gens::t4(
        gens::vec(
            gens::t3(
                arb_op(),
                arb_hint_target(),
                gens::option(gens::choice(vec![0u32, 8, 64, 576, u32::MAX])),
            ),
            0..8,
        ),
        gens::bools(),
        gens::bools(),
        gens::bools(),
    );
    for_all(
        "hints_execute_nothing",
        &Config::with_cases(256),
        &gen,
        |(steered, mixed, wiped, restart_between)| {
            let server = PrismServer::new(1 << 16);
            let arena = server.arena();
            let (data, _rkey) = server.carve_region(8192, 64, AccessFlags::FULL);
            let fl = FreeListId(0);
            server.setup_freelist(fl, 128, 8);
            // Pointer slots, `(ptr, bound)` each: a good pointer, null,
            // one past the end with bound 0, the RS fence word
            // `[Tag::MAX | addr 0]` (garbage whose second half is a null
            // pointer), a span that crosses `end()`, and `BASE - 1`.
            let slots: [(u64, u64); 6] = [
                (data + 1024, 64),
                (0, u64::MAX),
                (arena.end(), 0),
                (u64::MAX, 0),
                (arena.end() - 4, 576),
                (prism_rdma::arena::MemoryArena::BASE - 1, 8),
            ];
            for (i, (ptr, bound)) in slots.iter().enumerate() {
                arena.write_u64(data + 16 * i as u64, *ptr).unwrap();
                arena.write_u64(data + 16 * i as u64 + 8, *bound).unwrap();
            }
            arena.write(data + 1024, &[0x5A; 576]).unwrap();
            if *wiped {
                arena.wipe();
            }
            let chain: Vec<PrismOp> = steered
                .iter()
                .cloned()
                .map(|(mut op, target, op_len)| {
                    if let PrismOp::Read { addr, len, .. }
                    | PrismOp::Write { addr, len, .. }
                    | PrismOp::Cas {
                        target: addr, len, ..
                    } = &mut op
                    {
                        if let Some(t) = target {
                            // Small values are offsets into the data
                            // region; the rest are taken as they are.
                            *addr = if t < 1 << 16 { data + t } else { t };
                        }
                        if let Some(l) = op_len {
                            *len = l;
                        }
                    }
                    op
                })
                .collect();
            // The chain alone, or among a verb and an RPC on each side,
            // hinted one request at a time as they would be sent.
            let reqs = if *mixed {
                vec![
                    Request::Verb(Verb::Read {
                        addr: data + 1024,
                        len: 576,
                        rkey: 0,
                    }),
                    Request::Rpc(vec![1, 2, 3]),
                    Request::Chain(chain),
                    Request::Verb(Verb::Cas64 {
                        addr: u64::MAX,
                        compare: 0,
                        swap: 1,
                        rkey: 7,
                    }),
                ]
            } else {
                vec![Request::Chain(chain)]
            };
            let state = || {
                (
                    arena
                        .read(prism_rdma::arena::MemoryArena::BASE, arena.len())
                        .unwrap(),
                    arena.stripe_sequences(),
                    server.freelists().snapshot(fl),
                    server.regions().current_incarnation(),
                )
            };
            let before = state();
            let pending: Vec<_> = reqs
                .iter()
                .filter_map(|req| msg::hint_local(&server, req))
                .collect();
            assert_eq!(state(), before, "stage one changed something");
            if *restart_between {
                server.amnesia_restart();
            }
            let before = state();
            for pending in pending {
                server.engine().hint_target(pending);
            }
            assert_eq!(state(), before, "stage two changed something");
        },
    );
}
