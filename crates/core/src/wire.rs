//! Wire encoding of PRISM chains and responses.
//!
//! The paper adds five flag bits to the RDMA base transport header
//! (§4.2): two indirection flags, a bounded-pointer flag, and the
//! conditional and redirection flags. This module defines the concrete
//! request format the reproduction uses — one header per op, flags in a
//! single byte — plus the response format. Besides round-tripping chains
//! between client and server, the encoders give the experiment harness
//! exact request/response byte counts for link-bandwidth accounting.

use crate::buf::{Buf, BufMut};

use crate::engine::{OpResult, OpStatus};
use crate::op::{DataArg, FreeListId, PrismOp, Redirect, MAX_CAS_LEN};
use crate::value::CasMode;
use prism_rdma::RdmaError;

/// Wire failure: a decode found a truncated or malformed buffer, or an
/// encode was handed a payload/count too large for its length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError(pub &'static str);

/// Largest inline payload the `u32` length prefix can carry.
pub const MAX_INLINE_LEN: usize = u32::MAX as usize;

/// Largest op/result count the `u16` count prefix can carry.
pub const MAX_COUNT: usize = u16::MAX as usize;

/// Checked `u32` length prefix: payloads beyond [`MAX_INLINE_LEN`] are
/// rejected instead of silently truncated (`len as u32` used to wrap,
/// corrupting every later byte of the message).
pub fn u32_len(len: usize) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| WireError("payload exceeds u32 length prefix"))
}

/// Checked `u16` count prefix: chains/results beyond
/// [`MAX_COUNT`] entries are rejected instead of silently truncated.
pub fn u16_count(n: usize) -> Result<u16, WireError> {
    u16::try_from(n).map_err(|_| WireError("count exceeds u16 prefix"))
}

impl WireError {
    /// The frame-level checksum failure: the message framing CRCs
    /// (header and whole-body, appended by `msg::{Request,Reply}::encode`)
    /// did not match the received bytes. Distinguished from the
    /// truncation/malformed-structure errors so callers can route
    /// corruption to the retry path instead of treating it as a
    /// protocol bug.
    pub const CORRUPT: WireError = WireError("corrupt frame: checksum mismatch");

    /// Whether this error is the frame-corruption error.
    pub fn is_corrupt(&self) -> bool {
        self.0 == Self::CORRUPT.0
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

const OP_READ: u8 = 0;
const OP_WRITE: u8 = 1;
const OP_ALLOCATE: u8 = 2;
const OP_CAS: u8 = 3;

// Flag bits (the paper's five BTH flags, plus one distinguishing the two
// operand sources of our Mellanox-style CAS).
const F_INDIRECT: u8 = 1 << 0;
const F_BOUNDED: u8 = 1 << 1;
const F_CONDITIONAL: u8 = 1 << 2;
const F_REDIRECT: u8 = 1 << 3;
const F_COMPARE_REMOTE: u8 = 1 << 4;
const F_SWAP_REMOTE: u8 = 1 << 5;

fn put_data_arg(buf: &mut Vec<u8>, arg: &DataArg) -> Result<(), WireError> {
    match arg {
        DataArg::Inline(d) => {
            buf.put_u32_le(u32_len(d.len())?);
            buf.put_slice(d);
        }
        DataArg::Remote { addr, rkey } => {
            buf.put_u64_le(*addr);
            buf.put_u32_le(*rkey);
        }
    }
    Ok(())
}

fn get_inline(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError("truncated inline length"));
    }
    let len = buf.get_u32_le() as usize;
    // `take` + `to_vec` is one memcpy into an uninitialized allocation;
    // the previous `vec![0u8; len]` + `copy_to_slice` zero-filled the
    // buffer first, paying for every payload byte twice.
    match crate::buf::take(buf, len) {
        Some(bytes) => Ok(bytes.to_vec()),
        None => Err(WireError("truncated inline data")),
    }
}

fn get_data_arg(buf: &mut &[u8], remote: bool) -> Result<DataArg, WireError> {
    if remote {
        if buf.remaining() < 12 {
            return Err(WireError("truncated remote data arg"));
        }
        let addr = buf.get_u64_le();
        let rkey = buf.get_u32_le();
        Ok(DataArg::Remote { addr, rkey })
    } else {
        Ok(DataArg::Inline(get_inline(buf)?))
    }
}

fn put_redirect(buf: &mut Vec<u8>, r: &Redirect) {
    buf.put_u64_le(r.addr);
    buf.put_u32_le(r.rkey);
}

fn get_redirect(buf: &mut &[u8]) -> Result<Redirect, WireError> {
    if buf.remaining() < 12 {
        return Err(WireError("truncated redirect"));
    }
    let addr = buf.get_u64_le();
    let rkey = buf.get_u32_le();
    Ok(Redirect { addr, rkey })
}

/// Encodes a chain into a request message.
///
/// Fails (rather than truncating the length prefixes) if the chain has
/// more than [`MAX_COUNT`] ops or an inline payload exceeds
/// [`MAX_INLINE_LEN`] bytes.
pub fn encode_chain(chain: &[PrismOp]) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(chain_wire_len(chain)? as usize);
    encode_chain_into(chain, &mut buf)?;
    Ok(buf)
}

/// [`encode_chain`] writing into a caller-supplied buffer (appended),
/// so message framing can build a whole frame without the intermediate
/// chain-body `Vec`. Byte-for-byte identical output to [`encode_chain`].
pub fn encode_chain_into(chain: &[PrismOp], buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.put_u16_le(u16_count(chain.len())?);
    for op in chain {
        match op {
            PrismOp::Read {
                addr,
                len,
                rkey,
                indirect,
                bounded,
                conditional,
                redirect,
            } => {
                buf.put_u8(OP_READ);
                let mut flags = 0;
                if *indirect {
                    flags |= F_INDIRECT;
                }
                if *bounded {
                    flags |= F_BOUNDED;
                }
                if *conditional {
                    flags |= F_CONDITIONAL;
                }
                if redirect.is_some() {
                    flags |= F_REDIRECT;
                }
                buf.put_u8(flags);
                buf.put_u64_le(*addr);
                buf.put_u32_le(*len);
                buf.put_u32_le(*rkey);
                if let Some(r) = redirect {
                    put_redirect(buf, r);
                }
            }
            PrismOp::Write {
                addr,
                rkey,
                data,
                len,
                addr_indirect,
                addr_bounded,
                conditional,
            } => {
                buf.put_u8(OP_WRITE);
                let mut flags = 0;
                if *addr_indirect {
                    flags |= F_INDIRECT;
                }
                if *addr_bounded {
                    flags |= F_BOUNDED;
                }
                if *conditional {
                    flags |= F_CONDITIONAL;
                }
                if matches!(data, DataArg::Remote { .. }) {
                    flags |= F_SWAP_REMOTE;
                }
                buf.put_u8(flags);
                buf.put_u64_le(*addr);
                buf.put_u32_le(*len);
                buf.put_u32_le(*rkey);
                put_data_arg(buf, data)?;
            }
            PrismOp::Allocate {
                freelist,
                data,
                conditional,
                redirect,
            } => {
                buf.put_u8(OP_ALLOCATE);
                let mut flags = 0;
                if *conditional {
                    flags |= F_CONDITIONAL;
                }
                if redirect.is_some() {
                    flags |= F_REDIRECT;
                }
                buf.put_u8(flags);
                buf.put_u32_le(freelist.0);
                buf.put_u32_le(u32_len(data.len())?);
                buf.put_slice(data);
                if let Some(r) = redirect {
                    put_redirect(buf, r);
                }
            }
            PrismOp::Cas {
                mode,
                target,
                rkey,
                compare,
                swap,
                len,
                compare_mask,
                swap_mask,
                target_indirect,
                conditional,
            } => {
                buf.put_u8(OP_CAS);
                let mut flags = 0;
                if *target_indirect {
                    flags |= F_INDIRECT;
                }
                if *conditional {
                    flags |= F_CONDITIONAL;
                }
                if matches!(compare, DataArg::Remote { .. }) {
                    flags |= F_COMPARE_REMOTE;
                }
                if matches!(swap, DataArg::Remote { .. }) {
                    flags |= F_SWAP_REMOTE;
                }
                buf.put_u8(flags);
                buf.put_u8(mode.code());
                buf.put_u64_le(*target);
                buf.put_u32_le(*len);
                buf.put_u32_le(*rkey);
                put_data_arg(buf, compare)?;
                put_data_arg(buf, swap)?;
                buf.put_slice(compare_mask);
                buf.put_slice(swap_mask);
            }
        }
    }
    Ok(())
}

/// Decodes a request message back into a chain.
pub fn decode_chain(mut buf: &[u8]) -> Result<Vec<PrismOp>, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError("truncated chain header"));
    }
    let count = buf.get_u16_le() as usize;
    let mut chain = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 2 {
            return Err(WireError("truncated op header"));
        }
        let opcode = buf.get_u8();
        let flags = buf.get_u8();
        let conditional = flags & F_CONDITIONAL != 0;
        let op = match opcode {
            OP_READ => {
                if buf.remaining() < 16 {
                    return Err(WireError("truncated READ"));
                }
                let addr = buf.get_u64_le();
                let len = buf.get_u32_le();
                let rkey = buf.get_u32_le();
                let redirect = if flags & F_REDIRECT != 0 {
                    Some(get_redirect(&mut buf)?)
                } else {
                    None
                };
                PrismOp::Read {
                    addr,
                    len,
                    rkey,
                    indirect: flags & F_INDIRECT != 0,
                    bounded: flags & F_BOUNDED != 0,
                    conditional,
                    redirect,
                }
            }
            OP_WRITE => {
                if buf.remaining() < 16 {
                    return Err(WireError("truncated WRITE"));
                }
                let addr = buf.get_u64_le();
                let len = buf.get_u32_le();
                let rkey = buf.get_u32_le();
                let data = get_data_arg(&mut buf, flags & F_SWAP_REMOTE != 0)?;
                PrismOp::Write {
                    addr,
                    rkey,
                    data,
                    len,
                    addr_indirect: flags & F_INDIRECT != 0,
                    addr_bounded: flags & F_BOUNDED != 0,
                    conditional,
                }
            }
            OP_ALLOCATE => {
                if buf.remaining() < 4 {
                    return Err(WireError("truncated ALLOCATE"));
                }
                let freelist = FreeListId(buf.get_u32_le());
                let data = get_inline(&mut buf)?;
                let redirect = if flags & F_REDIRECT != 0 {
                    Some(get_redirect(&mut buf)?)
                } else {
                    None
                };
                PrismOp::Allocate {
                    freelist,
                    data,
                    conditional,
                    redirect,
                }
            }
            OP_CAS => {
                if buf.remaining() < 17 {
                    return Err(WireError("truncated CAS"));
                }
                let mode = CasMode::from_code(buf.get_u8()).ok_or(WireError("bad CAS mode"))?;
                let target = buf.get_u64_le();
                let len = buf.get_u32_le();
                let rkey = buf.get_u32_le();
                let compare = get_data_arg(&mut buf, flags & F_COMPARE_REMOTE != 0)?;
                let swap = get_data_arg(&mut buf, flags & F_SWAP_REMOTE != 0)?;
                if buf.remaining() < 2 * MAX_CAS_LEN {
                    return Err(WireError("truncated CAS masks"));
                }
                let compare_mask: [u8; MAX_CAS_LEN] = crate::buf::take(&mut buf, MAX_CAS_LEN)
                    .expect("length checked")
                    .try_into()
                    .expect("exact length");
                let swap_mask: [u8; MAX_CAS_LEN] = crate::buf::take(&mut buf, MAX_CAS_LEN)
                    .expect("length checked")
                    .try_into()
                    .expect("exact length");
                PrismOp::Cas {
                    mode,
                    target,
                    rkey,
                    compare,
                    swap,
                    len,
                    compare_mask,
                    swap_mask,
                    target_indirect: flags & F_INDIRECT != 0,
                    conditional,
                }
            }
            _ => return Err(WireError("unknown opcode")),
        };
        chain.push(op);
    }
    Ok(chain)
}

const ST_OK: u8 = 0;
const ST_CAS_FAILED: u8 = 1;
const ST_SKIPPED: u8 = 2;
const ST_ERROR: u8 = 3;

/// Encodes the per-op results of a chain into a response message.
///
/// Fails (rather than truncating the length prefixes) if there are
/// more than [`MAX_COUNT`] results or a result payload exceeds
/// [`MAX_INLINE_LEN`] bytes.
pub fn encode_response(results: &[OpResult]) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(response_wire_len(results)? as usize);
    encode_response_into(results, &mut buf)?;
    Ok(buf)
}

/// [`encode_response`] writing into a caller-supplied buffer (appended);
/// byte-for-byte identical output, no intermediate `Vec`.
pub fn encode_response_into(results: &[OpResult], buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.put_u16_le(u16_count(results.len())?);
    for r in results {
        match &r.status {
            OpStatus::Ok => buf.put_u8(ST_OK),
            OpStatus::CasFailed => buf.put_u8(ST_CAS_FAILED),
            OpStatus::Skipped => buf.put_u8(ST_SKIPPED),
            OpStatus::Error(_) => buf.put_u8(ST_ERROR),
        }
        buf.put_u32_le(u32_len(r.data.len())?);
        buf.put_slice(&r.data);
    }
    Ok(())
}

/// Decodes a response message. Error detail is collapsed to
/// [`RdmaError::ChainAborted`] — real NACKs carry only a syndrome byte,
/// and clients only branch on success/failure class.
pub fn decode_response(mut buf: &[u8]) -> Result<Vec<OpResult>, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError("truncated response header"));
    }
    let count = buf.get_u16_le() as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 5 {
            return Err(WireError("truncated result"));
        }
        let status = buf.get_u8();
        let len = buf.get_u32_le() as usize;
        let data = match crate::buf::take(&mut buf, len) {
            Some(bytes) => bytes.to_vec(),
            None => return Err(WireError("truncated result data")),
        };
        let status = match status {
            ST_OK => OpStatus::Ok,
            ST_CAS_FAILED => OpStatus::CasFailed,
            ST_SKIPPED => OpStatus::Skipped,
            ST_ERROR => OpStatus::Error(RdmaError::ChainAborted),
            _ => return Err(WireError("bad status byte")),
        };
        out.push(OpResult { status, data });
    }
    Ok(out)
}

fn data_arg_len(arg: &DataArg) -> Result<u64, WireError> {
    Ok(match arg {
        DataArg::Inline(d) => 4 + u32_len(d.len())? as u64,
        DataArg::Remote { .. } => 12,
    })
}

/// Encoded size of a chain, computed arithmetically — no buffer is
/// built. Mirrors [`encode_chain`] exactly; the `sizes_match_encoders`
/// test pins the two together op-by-op.
pub fn chain_wire_len(chain: &[PrismOp]) -> Result<u64, WireError> {
    u16_count(chain.len())?;
    let mut n = 2u64;
    for op in chain {
        n += match op {
            PrismOp::Read { redirect, .. } => 18 + if redirect.is_some() { 12 } else { 0 },
            PrismOp::Write { data, .. } => 18 + data_arg_len(data)?,
            PrismOp::Allocate { data, redirect, .. } => {
                10 + u32_len(data.len())? as u64 + if redirect.is_some() { 12 } else { 0 }
            }
            PrismOp::Cas { compare, swap, .. } => {
                19 + data_arg_len(compare)? + data_arg_len(swap)? + 2 * MAX_CAS_LEN as u64
            }
        };
    }
    Ok(n)
}

/// Encoded size of a result set, computed arithmetically (see
/// [`chain_wire_len`]).
pub fn response_wire_len(results: &[OpResult]) -> Result<u64, WireError> {
    u16_count(results.len())?;
    let mut n = 2u64;
    for r in results {
        n += 5 + u32_len(r.data.len())? as u64;
    }
    Ok(n)
}

/// Request size of a chain, for link-bandwidth accounting. Computed
/// without encoding: this runs on every simulated send, where the old
/// encode-and-measure implementation allocated a throwaway buffer.
///
/// # Panics
///
/// Panics if the chain exceeds the wire limits ([`MAX_COUNT`] ops,
/// [`MAX_INLINE_LEN`]-byte payloads): such a chain cannot exist on the
/// wire, so accounting for it would be meaningless.
pub fn request_len(chain: &[PrismOp]) -> u64 {
    chain_wire_len(chain).expect("chain exceeds wire limits")
}

/// Response size of a result set, for link-bandwidth accounting (see
/// [`request_len`]).
///
/// # Panics
///
/// Panics if the results exceed the wire limits (see [`request_len`]).
pub fn response_len(results: &[OpResult]) -> u64 {
    response_wire_len(results).expect("results exceed wire limits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ops;
    use crate::op::full_mask;

    fn sample_chain() -> Vec<PrismOp> {
        vec![
            ops::read_indirect_bounded(0x1_0000, 512, 7),
            ops::write(0x2_0000, vec![1, 2, 3], 7).conditional(),
            ops::allocate(FreeListId(3), vec![9; 40]).redirect(Redirect {
                addr: 0x3_0000,
                rkey: 8,
            }),
            ops::cas_args(
                CasMode::Lt,
                0x4_0000,
                7,
                DataArg::Inline(vec![0xAA; 16]),
                DataArg::Remote {
                    addr: 0x3_0000,
                    rkey: 8,
                },
                16,
                full_mask(8),
                full_mask(16),
            )
            .conditional(),
        ]
    }

    #[test]
    fn chain_round_trips() {
        let chain = sample_chain();
        let bytes = encode_chain(&chain).expect("encode");
        let decoded = decode_chain(&bytes).unwrap();
        assert_eq!(decoded, chain);
    }

    #[test]
    fn empty_chain_round_trips() {
        let bytes = encode_chain(&[]).expect("encode");
        assert_eq!(decode_chain(&bytes).unwrap(), Vec::<PrismOp>::new());
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let bytes = encode_chain(&sample_chain()).expect("encode");
        for cut in 0..bytes.len() {
            // Every prefix must either fail cleanly or decode to a valid
            // (shorter) chain — never panic.
            let _ = decode_chain(&bytes[..cut]);
        }
        assert!(decode_chain(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bytes = encode_chain(&sample_chain()).expect("encode");
        bytes[2] = 0x7F; // first opcode byte
        assert!(decode_chain(&bytes).is_err());
    }

    #[test]
    fn response_round_trips() {
        let results = vec![
            OpResult {
                status: OpStatus::Ok,
                data: vec![1, 2, 3],
            },
            OpResult {
                status: OpStatus::CasFailed,
                data: vec![9; 16],
            },
            OpResult {
                status: OpStatus::Skipped,
                data: vec![],
            },
        ];
        let bytes = encode_response(&results).expect("encode");
        let decoded = decode_response(&bytes).unwrap();
        assert_eq!(decoded, results);
    }

    #[test]
    fn length_prefix_guards_hold_at_the_boundary() {
        assert_eq!(u16_count(MAX_COUNT), Ok(u16::MAX));
        assert_eq!(
            u16_count(MAX_COUNT + 1),
            Err(WireError("count exceeds u16 prefix"))
        );
        assert_eq!(u32_len(MAX_INLINE_LEN), Ok(u32::MAX));
        assert_eq!(
            u32_len(MAX_INLINE_LEN + 1),
            Err(WireError("payload exceeds u32 length prefix"))
        );
    }

    #[test]
    fn oversize_chain_is_rejected_not_truncated() {
        // `chain.len() as u16` used to wrap to 0 at 65 536 ops and the
        // decoder would return an empty chain; now the boundary encodes
        // and one-past-the-boundary errors.
        let op = ops::read(0, 8, 1);
        let max = vec![op.clone(); MAX_COUNT];
        let bytes = encode_chain(&max).expect("max-count chain encodes");
        assert_eq!(decode_chain(&bytes).unwrap().len(), MAX_COUNT);
        let over = vec![op; MAX_COUNT + 1];
        assert_eq!(
            encode_chain(&over),
            Err(WireError("count exceeds u16 prefix"))
        );
    }

    #[test]
    fn oversize_response_is_rejected_not_truncated() {
        let r = OpResult {
            status: OpStatus::Ok,
            data: vec![],
        };
        let max = vec![r.clone(); MAX_COUNT];
        let bytes = encode_response(&max).expect("max-count response encodes");
        assert_eq!(decode_response(&bytes).unwrap().len(), MAX_COUNT);
        let over = vec![r; MAX_COUNT + 1];
        assert_eq!(
            encode_response(&over),
            Err(WireError("count exceeds u16 prefix"))
        );
    }

    #[test]
    fn sizes_match_encoders() {
        // The arithmetic length functions must track the encoders
        // byte-for-byte, for every op shape: flags-dependent fields
        // (redirects, remote args) change the length.
        let mut variants = sample_chain();
        variants.push(ops::read(0x10, 64, 2).redirect(Redirect {
            addr: 0x99,
            rkey: 4,
        }));
        variants.push(PrismOp::Write {
            addr: 0,
            rkey: 1,
            data: DataArg::Remote { addr: 7, rkey: 9 },
            len: 128,
            addr_indirect: true,
            addr_bounded: true,
            conditional: true,
        });
        variants.push(ops::allocate(FreeListId(1), vec![3; 17]));
        for op in &variants {
            let one = std::slice::from_ref(op);
            assert_eq!(
                request_len(one),
                encode_chain(one).expect("encode").len() as u64,
                "length mismatch for {op:?}"
            );
        }
        assert_eq!(
            request_len(&variants),
            encode_chain(&variants).expect("encode").len() as u64
        );
        assert_eq!(request_len(&[]), 2);

        let results = vec![
            OpResult {
                status: OpStatus::Ok,
                data: vec![1; 37],
            },
            OpResult {
                status: OpStatus::Error(RdmaError::ChainAborted),
                data: vec![],
            },
        ];
        assert_eq!(
            response_len(&results),
            encode_response(&results).expect("encode").len() as u64
        );
        assert_eq!(response_len(&[]), 2);
    }

    #[test]
    fn into_encoders_append_identically() {
        let chain = sample_chain();
        let owned = encode_chain(&chain).expect("encode");
        let mut buf = vec![0xEE; 3]; // pre-existing bytes must survive
        encode_chain_into(&chain, &mut buf).expect("encode_into");
        assert_eq!(&buf[..3], &[0xEE; 3]);
        assert_eq!(&buf[3..], &owned[..]);

        let results = vec![OpResult {
            status: OpStatus::CasFailed,
            data: vec![5; 9],
        }];
        let owned = encode_response(&results).expect("encode");
        let mut buf = vec![0xAB];
        encode_response_into(&results, &mut buf).expect("encode_into");
        assert_eq!(buf[0], 0xAB);
        assert_eq!(&buf[1..], &owned[..]);
    }

    #[test]
    fn sizes_track_payloads() {
        let small = request_len(&[ops::read(0, 8, 1)]);
        let big = request_len(&[ops::write(0, vec![0; 512], 1)]);
        assert!(big > small + 500, "inline data dominates request size");
        // Remote data args are pointer-sized on the wire.
        let remote = request_len(&[PrismOp::Write {
            addr: 0,
            rkey: 1,
            data: DataArg::Remote { addr: 0, rkey: 2 },
            len: 512,
            addr_indirect: false,
            addr_bounded: false,
            conditional: false,
        }]);
        assert!(remote < small + 32);
    }
}
