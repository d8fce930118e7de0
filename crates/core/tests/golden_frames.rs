//! Golden frames: the encoded bytes of a fixed request/reply set and the
//! CRC-32 of a fixed buffer set, pinned so that a change to the codec or
//! to the checksum implementation that alters a single byte fails here
//! rather than as a corrupt-frame retry three layers up.
//!
//! Each message is folded through every encoder it has (`encode`,
//! `encode_epoch(0)`, `encode_epoch(7)`, `encode_into` at a non-zero
//! start, and for chain bodies `wire::encode_chain` /
//! `wire::encode_response`) into one FNV-1a value, each encoding prefixed
//! by its length so a byte cannot migrate between two of them unseen.
//! To re-pin after a deliberate format change, run with
//! `--nocapture`: a mismatch prints the whole table.

use prism_core::builder::ops;
use prism_core::crc::crc32;
use prism_core::install::{self, Guard};
use prism_core::msg::{Reply, Request, Verb};
use prism_core::op::{full_mask, DataArg, FreeListId, Redirect};
use prism_core::value::CasMode;
use prism_core::{wire, OpResult, OpStatus};
use prism_rdma::RdmaError;

/// The payload the KV benchmark moves: an encoded entry (16 B header,
/// short key, 512 B value) that a PUT's ALLOCATE carries and a GET's
/// indirect READ returns.
const ENTRY: usize = 530;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.next() as u8)
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Folds one encoding, length first.
fn fold(h: &mut u64, bytes: &[u8]) {
    fnv1a(h, &(bytes.len() as u64).to_le_bytes());
    fnv1a(h, bytes);
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A non-empty prefix the append-style encoders must frame after.
const PREFIX: &[u8] = b"prior frame bytes";

fn fold_request(req: &Request) -> u64 {
    let mut h = FNV_OFFSET;
    let plain = req.encode().expect("encode");
    fold(&mut h, &plain);
    fold(&mut h, &req.encode_epoch(0).expect("encode_epoch(0)"));
    fold(&mut h, &req.encode_epoch(7).expect("encode_epoch(7)"));
    let mut buf = PREFIX.to_vec();
    req.encode_into(&mut buf).expect("encode_into");
    assert_eq!(&buf[..PREFIX.len()], PREFIX, "prefix must survive");
    assert_eq!(&buf[PREFIX.len()..], &plain[..], "encode_into != encode");
    fold(&mut h, &buf);
    if let Request::Chain(chain) = req {
        fold(&mut h, &wire::encode_chain(chain).expect("encode_chain"));
    }
    h
}

fn fold_reply(reply: &Reply) -> u64 {
    let mut h = FNV_OFFSET;
    let plain = reply.encode().expect("encode");
    fold(&mut h, &plain);
    let mut buf = PREFIX.to_vec();
    reply.encode_into(&mut buf).expect("encode_into");
    assert_eq!(&buf[..PREFIX.len()], PREFIX, "prefix must survive");
    assert_eq!(&buf[PREFIX.len()..], &plain[..], "encode_into != encode");
    fold(&mut h, &buf);
    if let Reply::Chain(results) = reply {
        fold(
            &mut h,
            &wire::encode_response(results).expect("encode_response"),
        );
    }
    h
}

/// The lone CAS that installs a tombstone (both operands inline).
fn cas_install_chain(rng: &mut SplitMix) -> Request {
    Request::Chain(vec![ops::cas_args(
        CasMode::Eq,
        0x1_0000 + 16 * 77,
        5,
        DataArg::Inline(rng.bytes(16)),
        DataArg::Inline(vec![0u8; 16]),
        16,
        full_mask(16),
        full_mask(16),
    )])
}

fn golden_requests() -> Vec<(&'static str, Request)> {
    let mut rng = SplitMix(0x5EED_F00D);
    // The §3.5 install chains: a PRISM-KV PUT, one replica's PRISM-RS
    // write phase, and a two-key PRISM-TX commit on one shard (installs
    // staged 16 bytes apart, each on its key's commit word, slot + 16).
    let stage = |addr, rkey| Redirect { addr, rkey };
    let payload = rng.bytes(ENTRY);
    let (old, bound) = (rng.array(), ENTRY as u64);
    let guard = Guard::Unchanged { old, bound };
    let put = install::chain(
        0x1_0000 + 16 * 4093,
        5,
        stage(0x7000_0040, 11),
        FreeListId(2),
        payload,
        guard,
    );
    let cas = cas_install_chain(&mut rng);
    let get = Request::Chain(vec![ops::read_indirect_bounded(
        0x1_0000 + 16 * 4093,
        ENTRY as u32,
        5,
    )]);
    let read = Request::Verb(Verb::Read {
        addr: 0x2_0000,
        len: 512,
        rkey: 9,
    });
    let write = Request::Verb(Verb::Write {
        addr: 0x2_0200,
        data: rng.bytes(512),
        rkey: 9,
    });
    let cas64 = Request::Verb(Verb::Cas64 {
        addr: 0x2_0400,
        compare: 0x0123_4567_89AB_CDEF,
        swap: 0xFEDC_BA98_7654_3210,
        rkey: 9,
    });
    let rpc = Request::Rpc(rng.bytes(96));
    let empty_rpc = Request::Rpc(Vec::new());
    let guard = Guard::TagBelow { tag: rng.array() };
    let payload = rng.bytes(16 + 512);
    let rs_write = install::chain(
        0x3_0000 + 16 * 9,
        6,
        stage(0x7000_0080, 12),
        FreeListId(0),
        payload,
        guard,
    );
    let guard = Guard::TagBelow { tag: rng.array() };
    let tx_commit: Vec<_> = [3, 70]
        .into_iter()
        .enumerate()
        .flat_map(|(j, i)| {
            let (slot, payload) = (0x4_0000 + 32 * i + 16, rng.bytes(24 + 64));
            install::chain(
                slot,
                7,
                stage(0x7000_00C0 + 16 * j as u64, 13),
                FreeListId(1),
                payload,
                guard,
            )
        })
        .collect();
    vec![
        ("req.put_stage_530", Request::Chain(put.into())),
        ("req.cas_install", cas),
        ("req.get_indirect", get),
        ("req.verb_read", read),
        ("req.verb_write_512", write),
        ("req.verb_cas64", cas64),
        ("req.rpc_96", rpc),
        ("req.rpc_empty", empty_rpc),
        ("req.rs_write_528", Request::Chain(rs_write.into())),
        ("req.tx_commit_2", Request::Chain(tx_commit)),
    ]
}

fn golden_replies() -> Vec<(&'static str, Reply)> {
    let mut rng = SplitMix(0xBEEF_CAFE);
    let ok = |data: Vec<u8>| OpResult {
        status: OpStatus::Ok,
        data,
    };
    let get = Reply::Chain(vec![ok(rng.bytes(ENTRY))]);
    let put = Reply::Chain(vec![
        ok(Vec::new()),
        ok(0x4_0000u64.to_le_bytes().to_vec()),
        OpResult {
            status: OpStatus::CasFailed,
            data: rng.bytes(16),
        },
        OpResult {
            status: OpStatus::Skipped,
            data: Vec::new(),
        },
    ]);
    let nack = Reply::Chain(vec![OpResult {
        status: OpStatus::Error(RdmaError::ChainAborted),
        data: Vec::new(),
    }]);
    let verb_ok = Reply::Verb(Ok(rng.bytes(512)));
    let verb_err = Reply::Verb(Err(RdmaError::StaleEpoch {
        seen: 3,
        current: 4,
    }));
    let rpc = Reply::Rpc(rng.bytes(96));
    vec![
        ("reply.get_530", get),
        ("reply.put_stage", put),
        ("reply.chain_nack", nack),
        ("reply.verb_ok_512", verb_ok),
        ("reply.verb_err", verb_err),
        ("reply.rpc_96", rpc),
    ]
}

const GOLDEN_FRAMES: [(&str, u64); 16] = [
    ("req.put_stage_530", 0x93F65B2F2548692C),
    ("req.cas_install", 0x9E09A89691C90EBA),
    ("req.get_indirect", 0x89BE95E59416BF33),
    ("req.verb_read", 0xEEF5C6D2A642325E),
    ("req.verb_write_512", 0x79DDCD2F95E0878C),
    ("req.verb_cas64", 0xB11075DB77574905),
    ("req.rpc_96", 0xEDD9701F1EBDE09A),
    ("req.rpc_empty", 0xB30BBFF80CE9685E),
    ("req.rs_write_528", 0x5D5D56E7FEADDD42),
    ("req.tx_commit_2", 0x8C4E6321E72A4C07),
    ("reply.get_530", 0x086FB8025C2C0E8C),
    ("reply.put_stage", 0x4C557CD481306163),
    ("reply.chain_nack", 0x350D134AE63AFD97),
    ("reply.verb_ok_512", 0xEE44AFB267B78C50),
    ("reply.verb_err", 0xE3FC3FA7121E8EBC),
    ("reply.rpc_96", 0x1325FCEC3609CDD4),
];

#[test]
fn encoded_frames_match_the_pinned_bytes() {
    let got: Vec<(&str, u64)> = golden_requests()
        .iter()
        .map(|(name, req)| (*name, fold_request(req)))
        .chain(
            golden_replies()
                .iter()
                .map(|(name, reply)| (*name, fold_reply(reply))),
        )
        .collect();
    if got != GOLDEN_FRAMES {
        for (name, h) in &got {
            println!("    (\"{name}\", {h:#018X}),");
        }
    }
    assert_eq!(got, GOLDEN_FRAMES, "an encoder changed the bytes it emits");
}

/// Lengths that straddle every boundary a blocked CRC implementation
/// has (16 B lanes, 64 B blocks, the benchmark's 530 B entry), then
/// random ones up to 4096.
const EDGE_LENS: [usize; 16] = [
    0, 1, 7, 15, 16, 17, 31, 63, 64, 65, 127, 128, 129, 530, 1100, 4096,
];

const GOLDEN_CRCS: [u32; 64] = [
    0x00000000, 0xF500AE27, 0xF4050933, 0x3A9618B1, 0xDF88B2C9, 0xFC291BC7, 0xE692A7B9, 0x7862361F,
    0xDDEC71BB, 0x1334D2CE, 0x5A93DDE8, 0xA6FE5E8A, 0x7517D722, 0xF499E97F, 0x65C012D4, 0x95870845,
    0x8C2331D4, 0xAB31E4A8, 0x59063396, 0xEE25746E, 0xC9AB7AC5, 0x30F01757, 0x96BFC839, 0xAE0F0BA5,
    0x56013DF5, 0xD20B5694, 0x45E55F8F, 0x60E7294A, 0x3597FA84, 0xF248746C, 0x65C62466, 0x580ECDFC,
    0x0EFD0F2A, 0x86ADF7A9, 0xB07BAB97, 0xE3D06CBD, 0xD73A1FCF, 0xF7B866DF, 0x127CF40C, 0xCFF0765C,
    0x15EDB254, 0x1D9662FB, 0xEF154A92, 0x88C1A829, 0x4955E97A, 0x5CA4EEB6, 0x5C6BDD16, 0xBA006BCE,
    0x7D15D28E, 0x615C675A, 0x510999E1, 0x260756F3, 0xA7A518EA, 0x9FF2D932, 0x44AEC30A, 0xBBE597D7,
    0x44B46843, 0x87A35BAF, 0xC4091384, 0x1862922A, 0x9474C201, 0xF6AEA2F8, 0xD7EC9BFF, 0x396E18CF,
];

#[test]
fn crc32_of_the_pinned_buffers_is_unchanged() {
    let mut rng = SplitMix(0xC4C3_2D1E);
    let got: Vec<u32> = (0..64)
        .map(|i| {
            let len = match EDGE_LENS.get(i) {
                Some(&len) => len,
                None => (rng.next() % 4097) as usize,
            };
            crc32(&rng.bytes(len))
        })
        .collect();
    if got != GOLDEN_CRCS {
        for row in got.chunks(4) {
            let cells: Vec<String> = row.iter().map(|c| format!("{c:#010X}")).collect();
            println!("    {},", cells.join(", "));
        }
    }
    assert_eq!(got, GOLDEN_CRCS, "crc32 changed for a pinned buffer");
}

/// Every owned encoder reserves the frame's exact size before its first
/// byte, so the buffer it returns was allocated once and never regrown:
/// its capacity is its length. (A `Vec` that had to grow on the way ends
/// with amortized slack — at the latest when the trailer lands.)
#[test]
fn owned_encoders_allocate_exactly_once() {
    fn assert_exact(what: &str, name: &str, buf: Vec<u8>) {
        assert_eq!(buf.capacity(), buf.len(), "{name}: {what} regrew");
    }
    for (name, req) in golden_requests() {
        assert_exact("Request::encode", name, req.encode().expect("encode"));
        for epoch in [0, 7] {
            let framed = req.encode_epoch(epoch).expect("encode_epoch");
            assert_exact("Request::encode_epoch", name, framed);
        }
        if let Request::Chain(chain) = &req {
            let body = wire::encode_chain(chain).expect("encode_chain");
            assert_exact("wire::encode_chain", name, body);
        }
    }
    for (name, reply) in golden_replies() {
        assert_exact("Reply::encode", name, reply.encode().expect("encode"));
        if let Reply::Chain(results) = &reply {
            let body = wire::encode_response(results).expect("encode_response");
            assert_exact("wire::encode_response", name, body);
        }
    }
}
