//! Property-based tests for the message wire format: every request and
//! reply kind (chain, verb, RPC) survives encode/decode unchanged, on
//! the plain framing and on the routing-epoch framing; a frame with
//! 1–3 bytes mutated is rejected, never misread; and decoding arbitrary
//! bytes never panics. Runs on the in-repo `prism-testkit` harness;
//! failures print a `PRISM_TEST_SEED` for exact replay.

use prism_core::builder::ops;
use prism_core::crc::crc32;
use prism_core::msg::{Reply, Request, Verb, FRAME_TRAILER};
use prism_core::{OpResult, OpStatus};
use prism_rdma::RdmaError;
use prism_testkit::{for_all, gens, Config, Gen};

/// A verb or an RPC request, biased toward small payloads (including
/// empty ones).
fn arb_verb_or_rpc() -> Gen<Request> {
    gens::one_of(vec![
        gens::vec(gens::u8s(), 0..32).map(Request::Rpc),
        gens::t3(gens::u64s(), gens::u32s(), gens::u32s())
            .map(|(addr, len, rkey)| Request::Verb(Verb::Read { addr, len, rkey })),
        gens::t3(gens::u64s(), gens::u32s(), gens::vec(gens::u8s(), 0..32))
            .map(|(addr, rkey, data)| Request::Verb(Verb::Write { addr, data, rkey })),
        gens::t4(gens::u64s(), gens::u64s(), gens::u64s(), gens::u32s()).map(
            |(addr, compare, swap, rkey)| {
                Request::Verb(Verb::Cas64 {
                    addr,
                    compare,
                    swap,
                    rkey,
                })
            },
        ),
    ])
}

/// A PRISM chain request with a mix of op shapes, so the streamed chain
/// encoder (`encode_chain_into` writing straight into the frame) is
/// exercised against real op layouts, not just the RPC/verb bodies.
fn arb_chain_request() -> Gen<Request> {
    let op = gens::one_of(vec![
        gens::t3(gens::u64s(), gens::u32s(), gens::u32s())
            .map(|(addr, len, rkey)| ops::read(addr, len, rkey)),
        gens::t3(gens::u64s(), gens::u32s(), gens::vec(gens::u8s(), 0..16))
            .map(|(addr, rkey, data)| ops::write(addr, data, rkey)),
        gens::t4(gens::u64s(), gens::u32s(), gens::u64s(), gens::u64s())
            .map(|(target, rkey, compare, swap)| ops::cas64(target, rkey, compare, swap)),
    ]);
    gens::vec(op, 0..5).map(Request::Chain)
}

/// Any request: a chain, a verb or an RPC.
fn arb_request() -> Gen<Request> {
    gens::one_of(vec![arb_verb_or_rpc(), arb_chain_request()])
}

/// Any reply, including chain responses and verb errors.
fn arb_reply() -> Gen<Reply> {
    let result = gens::t2(
        gens::choice(vec![OpStatus::Ok, OpStatus::CasFailed]),
        gens::vec(gens::u8s(), 0..32),
    )
    .map(|(status, data)| OpResult { status, data });
    gens::one_of(vec![
        gens::vec(gens::u8s(), 0..32).map(Reply::Rpc),
        gens::vec(gens::u8s(), 0..32).map(|d| Reply::Verb(Ok(d))),
        gens::choice(vec![
            RdmaError::ReceiverNotReady,
            RdmaError::InvalidRkey(7),
            RdmaError::Misaligned {
                addr: 13,
                required: 8,
            },
            RdmaError::StaleEpoch {
                seen: 3,
                current: 4,
            },
        ])
        .map(|e| Reply::Verb(Err(e))),
        gens::vec(result, 0..4).map(Reply::Chain),
    ])
}

/// 1–3 `(position, nonzero mask)` pairs; positions wrap to the frame.
fn arb_mutations() -> Gen<Vec<(u64, u8)>> {
    gens::vec(gens::t2(gens::u64s(), gens::u8s().map(|m| m | 1)), 1..4)
}

/// XORs each mask into its byte, skipping a position already hit, so
/// the result differs from `clean` in every byte it names. Returns the
/// mutated copy and the positions it changed.
fn mutate(clean: &[u8], mutations: &[(u64, u8)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = clean.to_vec();
    let mut hit = Vec::new();
    for &(pos, mask) in mutations {
        let at = pos as usize % bytes.len();
        if !hit.contains(&at) {
            hit.push(at);
            bytes[at] ^= mask;
        }
    }
    (bytes, hit)
}

/// `body` under a valid CRC trailer — the header checksum over its
/// first eight bytes, then the whole-body checksum — so the decoders
/// get past the frame check and parse it.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut frame = body.to_vec();
    frame.extend_from_slice(&crc32(&body[..body.len().min(8)]).to_le_bytes());
    frame.extend_from_slice(&crc32(body).to_le_bytes());
    frame
}

/// The borrowed-frame encoders are byte-identical to the owned path:
/// `encode_into` after an arbitrary prefix produces exactly
/// `prefix ++ encode()` for every request and reply shape — including
/// chains, whose bodies stream straight into the frame instead of
/// passing through an intermediate `Vec` — and the appended frame
/// decodes back to the original message.
#[test]
fn borrowed_encoders_match_owned_encoders() {
    let gen = gens::t3(arb_request(), arb_reply(), gens::vec(gens::u8s(), 0..16));
    for_all(
        "borrowed_encoders_match_owned_encoders",
        &Config::with_cases(256),
        &gen,
        |(req, reply, prefix)| {
            let owned = req.encode().expect("owned encode");
            let mut buf = prefix.clone();
            req.encode_into(&mut buf).expect("encode_into");
            assert_eq!(&buf[..prefix.len()], &prefix[..], "prefix clobbered");
            assert_eq!(&buf[prefix.len()..], &owned[..], "request frames diverge");
            assert_eq!(&Request::decode(&buf[prefix.len()..]).expect("decode"), req);

            let owned = reply.encode().expect("owned encode");
            let mut buf = prefix.clone();
            reply.encode_into(&mut buf).expect("encode_into");
            assert_eq!(&buf[prefix.len()..], &owned[..], "reply frames diverge");
            assert_eq!(&Reply::decode(&buf[prefix.len()..]).expect("decode"), reply);
        },
    );
}

/// Every single-byte mutation of a chain-bearing frame surfaces as the
/// *typed* corrupt error on the borrowed decode path — the CRC trailer
/// is verified before any body bytes are borrowed, so a damaged frame
/// can never leak a partially-parsed chain or a generic parse error.
#[test]
fn mutated_chain_frames_decode_to_typed_corrupt() {
    let gen = gens::t3(
        arb_chain_request(),
        gens::u64s(),
        gens::u8s().map(|m| m | 1),
    );
    for_all(
        "mutated_chain_frames_decode_to_typed_corrupt",
        &Config::with_cases(256),
        &gen,
        |(req, pos, mask)| {
            let mut bytes = req.encode().expect("encode");
            let at = (*pos as usize) % bytes.len();
            bytes[at] ^= mask;
            let err = Request::decode(&bytes).expect_err("mutated frame decoded");
            assert!(err.is_corrupt(), "expected typed corrupt, got {err:?}");
        },
    );
}

/// Mutated frames never decode: take a valid sealed frame of any kind,
/// XOR 1–3 distinct bytes with nonzero masks, and decoding must return
/// a clean error — no panic, no over-read, and never a silently
/// different message. The frame CRCs (header and payload) are what make
/// this hold for *every* mutation, not just structurally invalid ones.
#[test]
fn mutated_frames_are_rejected_not_misread() {
    let gen = gens::t2(arb_request(), arb_mutations());
    for_all(
        "mutated_request_frames_are_rejected",
        &Config::with_cases(256),
        &gen,
        |(req, mutations)| {
            let clean = req.encode().expect("encode");
            let (bytes, hit) = mutate(&clean, mutations);
            assert!(
                Request::decode(&bytes).is_err(),
                "mutated frame decoded: flipped {hit:?} of {} bytes",
                bytes.len()
            );
            // The pristine copy still decodes: the mutation, not the
            // frame, was at fault.
            assert_eq!(Request::decode(&clean).expect("clean decode"), *req);
        },
    );

    let gen = gens::t2(arb_reply(), arb_mutations());
    for_all(
        "mutated_reply_frames_are_rejected",
        &Config::with_cases(256),
        &gen,
        |(reply, mutations)| {
            let clean = reply.encode().expect("encode");
            let (bytes, hit) = mutate(&clean, mutations);
            assert!(
                Reply::decode(&bytes).is_err(),
                "mutated frame decoded: flipped {hit:?} of {} bytes",
                bytes.len()
            );
            assert_eq!(Reply::decode(&clean).expect("clean decode"), *reply);
        },
    );
}

/// The routing-epoch framing every sharded request rides: any request
/// under any epoch round-trips through `encode_epoch`/`decode_epoch`,
/// and 1–3 mutated bytes anywhere — the epoch word included — are
/// rejected as corrupt, so a damaged epoch never reads as a stale (or
/// fresh) route.
#[test]
fn epoch_frames_round_trip_and_reject_mutations() {
    let gen = gens::t3(arb_request(), gens::u64s(), arb_mutations());
    for_all(
        "epoch_frames_round_trip_and_reject_mutations",
        &Config::with_cases(256),
        &gen,
        |(req, epoch, mutations)| {
            let clean = req.encode_epoch(*epoch).expect("encode_epoch");
            assert_eq!(
                Request::decode_epoch(&clean).expect("decode_epoch"),
                (*epoch, req.clone())
            );
            let (bytes, hit) = mutate(&clean, mutations);
            let err = Request::decode_epoch(&bytes).expect_err("mutated epoch frame decoded");
            assert!(
                err.is_corrupt(),
                "flipped {hit:?} of {} bytes: {err:?}",
                bytes.len()
            );
        },
    );
}

/// Decoding never panics on arbitrary bytes: neither raw, where the
/// frame check refuses almost everything, nor sealed under a valid
/// trailer, where the body parsers see them — starting with each
/// message marker, an unknown one, or an epoch word then a marker.
#[test]
fn decode_is_total() {
    let clean = Request::Rpc(vec![1, 2, 3]).encode().expect("encode");
    assert_eq!(seal(&clean[..clean.len() - FRAME_TRAILER]), clean);

    let gen = gens::t2(
        gens::option(gens::range_u64(0..5).map(|m| m as u8)),
        gens::vec(gens::u8s(), 0..64),
    );
    for_all(
        "decode_is_total",
        &Config::with_cases(256),
        &gen,
        |(marker, tail)| {
            let body: Vec<u8> = marker.iter().copied().chain(tail.iter().copied()).collect();
            for bytes in [body.clone(), seal(&body)] {
                let _ = Request::decode(&bytes);
                let _ = Reply::decode(&bytes);
                let _ = Request::decode_epoch(&bytes);
            }
            let mut epoch_body = 7u64.to_le_bytes().to_vec();
            epoch_body.extend_from_slice(&body);
            let _ = Request::decode_epoch(&seal(&epoch_body));
        },
    );
}
