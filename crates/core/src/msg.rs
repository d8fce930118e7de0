//! Transport-neutral request/reply messages.
//!
//! The application protocols (PRISM-KV, PRISM-RS, PRISM-TX and their
//! baselines) are written sans-I/O: client state machines emit
//! [`Request`]s and consume [`Reply`]s without knowing whether the
//! transport is a direct function call (live mode, unit tests), worker
//! threads, or the discrete-event simulator (figure regeneration). A
//! request is either a PRISM chain, a classic one-sided verb, or a
//! two-sided RPC — the three kinds of traffic in the paper's systems.

use crate::engine::{OpResult, OpStatus, PendingHint};
use crate::op::PrismOp;
use crate::wire;
use prism_rdma::RdmaError;

/// A classic one-sided RDMA verb (the baselines' vocabulary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// One-sided READ of `len` bytes.
    Read {
        /// Target address.
        addr: u64,
        /// Bytes to read.
        len: u32,
        /// Region key.
        rkey: u32,
    },
    /// One-sided WRITE.
    Write {
        /// Target address.
        addr: u64,
        /// Data to store.
        data: Vec<u8>,
        /// Region key.
        rkey: u32,
    },
    /// Classic 8-byte compare-and-swap.
    Cas64 {
        /// Target address (8-byte aligned).
        addr: u64,
        /// Expected value.
        compare: u64,
        /// Replacement value.
        swap: u64,
        /// Region key.
        rkey: u32,
    },
}

impl Verb {
    /// Request bytes on the wire (header + inline payload).
    pub fn request_len(&self) -> u64 {
        match self {
            Verb::Read { .. } => 28,
            Verb::Write { data, .. } => 28 + data.len() as u64,
            Verb::Cas64 { .. } => 44,
        }
    }

    /// Response payload bytes.
    pub fn response_len(&self) -> u64 {
        match self {
            Verb::Read { len, .. } => *len as u64,
            Verb::Write { .. } => 4,
            Verb::Cas64 { .. } => 8,
        }
    }
}

/// One message from a client to a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A PRISM chain, executed by the PRISM data plane.
    Chain(Vec<PrismOp>),
    /// A classic one-sided verb, executed by the (simulated) NIC.
    Verb(Verb),
    /// A two-sided RPC, executed by a server CPU core.
    Rpc(Vec<u8>),
}

impl Request {
    /// Request size for link-bandwidth accounting.
    pub fn wire_len(&self) -> u64 {
        match self {
            Request::Chain(c) => wire::request_len(c),
            Request::Verb(v) => v.request_len(),
            Request::Rpc(b) => b.len() as u64 + 8,
        }
    }

    /// Number of PRISM primitives (for dispatch-core occupancy); zero for
    /// verbs and RPCs.
    pub fn chain_ops(&self) -> u64 {
        match self {
            Request::Chain(c) => c.len() as u64,
            _ => 0,
        }
    }
}

/// The server's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Per-op results of a chain.
    Chain(Vec<OpResult>),
    /// Verb outcome: returned bytes (READ data, CAS old value) or error.
    Verb(Result<Vec<u8>, RdmaError>),
    /// RPC response bytes.
    Rpc(Vec<u8>),
}

impl Reply {
    /// Response size for link-bandwidth accounting.
    pub fn wire_len(&self) -> u64 {
        match self {
            Reply::Chain(r) => wire::response_len(r),
            Reply::Verb(Ok(d)) => d.len() as u64 + 8,
            Reply::Verb(Err(_)) => 8,
            Reply::Rpc(b) => b.len() as u64 + 8,
        }
    }

    /// The error a reply of the wrong kind stands for (see
    /// [`Reply::into_chain`]).
    fn mismatch<T>(self) -> Result<T, RdmaError> {
        match self {
            Reply::Verb(Err(e)) => Err(e),
            _ => Err(RdmaError::BadResponse),
        }
    }

    /// The chain results. A reply of another kind is an error, never a
    /// panic: the fault layer answers a timed-out request of any kind
    /// with a synthesized [`Reply::Verb`]`(Err(e))`, which yields `e`,
    /// and any other mismatch yields [`RdmaError::BadResponse`]. Either
    /// way the caller has lost a round trip.
    pub fn into_chain(self) -> Result<Vec<OpResult>, RdmaError> {
        match self {
            Reply::Chain(r) => Ok(r),
            other => other.mismatch(),
        }
    }

    /// The RPC payload (errors as for [`Reply::into_chain`]).
    pub fn into_rpc(self) -> Result<Vec<u8>, RdmaError> {
        match self {
            Reply::Rpc(b) => Ok(b),
            other => other.mismatch(),
        }
    }

    /// The verb outcome: its own error, or [`RdmaError::BadResponse`]
    /// for a reply of another kind.
    pub fn into_verb(self) -> Result<Vec<u8>, RdmaError> {
        match self {
            Reply::Verb(r) => r,
            other => other.mismatch(),
        }
    }

    /// If the reply reports a fenced rkey ([`RdmaError::StaleIncarnation`]
    /// in a verb error or a chain op NACK), the server's current
    /// incarnation. Clients use this as the re-handshake trigger after an
    /// amnesia restart: the rkeys they cached belong to a dead
    /// incarnation and must be restamped before retrying.
    pub fn stale_incarnation(&self) -> Option<u64> {
        match self {
            Reply::Verb(Err(RdmaError::StaleIncarnation { current, .. })) => Some(*current),
            Reply::Verb(_) | Reply::Rpc(_) => None,
            Reply::Chain(results) => results.iter().find_map(|r| match r.status {
                OpStatus::Error(RdmaError::StaleIncarnation { current, .. }) => Some(current),
                _ => None,
            }),
        }
    }

    /// If the reply reports a stale-routed request
    /// ([`RdmaError::StaleEpoch`] in a verb error or a chain op NACK),
    /// the server's current shard-map epoch. The routing analog of
    /// [`Reply::stale_incarnation`]: clients use it as the
    /// refetch-and-reroute trigger after a live reshard — the shard map
    /// they routed with belongs to a dead epoch and the key may live on a
    /// different server now.
    pub fn stale_epoch(&self) -> Option<u64> {
        match self {
            Reply::Verb(Err(RdmaError::StaleEpoch { current, .. })) => Some(*current),
            Reply::Verb(_) | Reply::Rpc(_) => None,
            Reply::Chain(results) => results.iter().find_map(|r| match r.status {
                OpStatus::Error(RdmaError::StaleEpoch { current, .. }) => Some(current),
                _ => None,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Message-level wire framing.
//
// `wire` encodes chain bodies; this layer frames whole requests and
// replies so they round-trip as bytes. The format is one marker byte,
// then a kind-specific body.

const MSG_CHAIN: u8 = 0;
const MSG_VERB: u8 = 1;
const MSG_RPC: u8 = 2;

const VERB_READ: u8 = 0;
const VERB_WRITE: u8 = 1;
const VERB_CAS64: u8 = 2;

const REPLY_ERR: u8 = 0;
const REPLY_OK: u8 = 1;

use crate::buf::{BufMut, Reader};
use crate::crc::Crc32;
use crate::wire::WireError;

/// Bytes of the CRC frame trailer every encoded message carries:
/// a header checksum (first `FRAME_HDR` body bytes, cheap to verify
/// before parsing) and a whole-body checksum. The trailer is part of
/// the *encoded* form only; [`Request::wire_len`]/[`Reply::wire_len`]
/// model the payload the cost accounting has always charged for, so
/// adding the trailer does not perturb simulated timings.
pub const FRAME_TRAILER: usize = 8;

/// Body prefix covered by the header checksum.
const FRAME_HDR: usize = 8;

/// Header and whole-body checksums of `body` in one pass: the running
/// CRC is read off after the first [`FRAME_HDR`] bytes and carried on
/// over the rest, so no byte is checksummed twice.
fn frame_crcs(body: &[u8]) -> (u32, u32) {
    let (head, rest) = body.split_at(body.len().min(FRAME_HDR));
    let mut c = Crc32::new();
    let hdr = c.update(head).finish();
    (hdr, c.update(rest).finish())
}

/// Appends one frame to `buf`: the optional routing-epoch word, the
/// body `fill` writes, and the CRC trailer. `body_len` is what `fill`
/// will write; the whole frame is reserved before its first byte, so
/// an empty `buf` is allocated exactly once and a reused one not at
/// all. The checksums cover only the bytes written here, not whatever
/// the caller had accumulated before.
fn put_frame(
    buf: &mut Vec<u8>,
    epoch: Option<u64>,
    body_len: usize,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = buf.len();
    let epoch_len = if epoch.is_some() { 8 } else { 0 };
    buf.reserve(epoch_len + body_len + FRAME_TRAILER);
    if let Some(epoch) = epoch {
        buf.put_u64_le(epoch);
    }
    fill(buf)?;
    debug_assert_eq!(buf.len() - start, epoch_len + body_len, "body_len drifted");
    let (hdr, whole) = frame_crcs(&buf[start..]);
    buf.put_u32_le(hdr);
    buf.put_u32_le(whole);
    Ok(())
}

/// Checks the CRC trailer and hands back a reader over the body.
fn open_frame(buf: &[u8]) -> Result<Reader<'_>, WireError> {
    let (body, trailer) = buf
        .split_last_chunk::<FRAME_TRAILER>()
        .ok_or(WireError("truncated frame trailer"))?;
    let mut t = Reader::new(trailer);
    if (t.u32()?, t.u32()?) != frame_crcs(body) {
        return Err(WireError::CORRUPT);
    }
    Ok(Reader::new(body))
}

/// Encoded size of a length-prefixed byte section (see [`put_bytes`]).
fn bytes_len(data: &[u8]) -> Result<usize, WireError> {
    Ok(4 + wire::u32_len(data.len())? as usize)
}

fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) -> Result<(), WireError> {
    buf.put_u32_le(wire::u32_len(data.len())?);
    buf.put_slice(data);
    Ok(())
}

/// Appends a u32-length-prefixed section whose body `fill` writes
/// directly into `buf`: a zero length slot is reserved, the body lands
/// in place, and the slot is backfilled. This is how chain bodies are
/// framed without materializing them in a throwaway `Vec` first.
fn put_len_prefixed(
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    buf.put_u32_le(0);
    let start = buf.len();
    fill(buf)?;
    let len = wire::u32_len(buf.len() - start)?;
    buf[start - 4..start].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

impl Request {
    /// Encodes the request into its wire form, CRC-framed (header and
    /// whole-body checksums appended; see [`FRAME_TRAILER`]). Fails on
    /// counts or payloads that would overflow their length prefixes.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the framed wire form to `buf` — byte-identical to
    /// [`Request::encode`], but reusing the caller's buffer so hot send
    /// paths can encode without allocating in steady state.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        put_frame(buf, None, self.body_len()?, |b| self.encode_body(b))
    }

    /// Bytes [`Request::encode_body`] writes, computed arithmetically so
    /// a frame can be reserved before it is built; the encoders assert
    /// the two agree.
    fn body_len(&self) -> Result<usize, WireError> {
        Ok(1 + match self {
            Request::Chain(chain) => 4 + wire::chain_wire_len(chain)? as usize,
            Request::Verb(Verb::Read { .. }) => 17,
            Request::Verb(Verb::Write { data, .. }) => 13 + bytes_len(data)?,
            Request::Verb(Verb::Cas64 { .. }) => 29,
            Request::Rpc(bytes) => bytes_len(bytes)?,
        })
    }

    fn encode_body(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::Chain(chain) => {
                buf.put_u8(MSG_CHAIN);
                put_len_prefixed(buf, |b| wire::encode_chain_into(chain, b))?;
            }
            Request::Verb(v) => {
                buf.put_u8(MSG_VERB);
                match v {
                    Verb::Read { addr, len, rkey } => {
                        buf.put_u8(VERB_READ);
                        buf.put_u64_le(*addr);
                        buf.put_u32_le(*len);
                        buf.put_u32_le(*rkey);
                    }
                    Verb::Write { addr, data, rkey } => {
                        buf.put_u8(VERB_WRITE);
                        buf.put_u64_le(*addr);
                        buf.put_u32_le(*rkey);
                        put_bytes(buf, data)?;
                    }
                    Verb::Cas64 {
                        addr,
                        compare,
                        swap,
                        rkey,
                    } => {
                        buf.put_u8(VERB_CAS64);
                        buf.put_u64_le(*addr);
                        buf.put_u64_le(*compare);
                        buf.put_u64_le(*swap);
                        buf.put_u32_le(*rkey);
                    }
                }
            }
            Request::Rpc(bytes) => {
                buf.put_u8(MSG_RPC);
                put_bytes(buf, bytes)?;
            }
        }
        Ok(())
    }

    /// Decodes a request from its wire form. The frame checksums are
    /// verified first — a damaged frame yields [`WireError::CORRUPT`],
    /// never a panic or a silently truncated parse — then the body is
    /// parsed, rejecting trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let mut r = open_frame(buf)?;
        let req = Request::read(&mut r)?;
        r.end()?;
        Ok(req)
    }

    /// Encodes the request with the client's routing epoch in the wire
    /// frame: the body is `[epoch u64 LE][request body]`, sealed under
    /// the same CRC trailer as [`Request::encode`]. The epoch therefore
    /// sits inside the header-checksum window (it occupies the first
    /// [`FRAME_TRAILER`]-sized prefix the header CRC covers), so a
    /// flipped epoch is detected before the server compares it against
    /// its own. Epoch `0` means "not sharded" — servers skip the fence
    /// for it. Like the CRC trailer, the epoch word is part of the
    /// encoded form only; [`Request::wire_len`] is unchanged.
    pub fn encode_epoch(&self, epoch: u64) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        put_frame(&mut buf, Some(epoch), self.body_len()?, |b| {
            self.encode_body(b)
        })?;
        Ok(buf)
    }

    /// Decodes an epoch-framed request (see [`Request::encode_epoch`]):
    /// verifies the frame checksums, then returns the routing epoch and
    /// the request, rejecting trailing bytes.
    pub fn decode_epoch(buf: &[u8]) -> Result<(u64, Request), WireError> {
        let mut r = open_frame(buf)?;
        let epoch = r.u64()?;
        let req = Request::read(&mut r)?;
        r.end()?;
        Ok((epoch, req))
    }

    fn read(r: &mut Reader) -> Result<Request, WireError> {
        Ok(match r.u8()? {
            MSG_CHAIN => Request::Chain(wire::decode_chain(r.prefixed()?)?),
            MSG_VERB => Request::Verb(match r.u8()? {
                VERB_READ => Verb::Read {
                    addr: r.u64()?,
                    len: r.u32()?,
                    rkey: r.u32()?,
                },
                VERB_WRITE => Verb::Write {
                    addr: r.u64()?,
                    rkey: r.u32()?,
                    data: r.prefixed()?.to_vec(),
                },
                VERB_CAS64 => Verb::Cas64 {
                    addr: r.u64()?,
                    compare: r.u64()?,
                    swap: r.u64()?,
                    rkey: r.u32()?,
                },
                _ => return Err(WireError("unknown verb kind")),
            }),
            MSG_RPC => Request::Rpc(r.prefixed()?.to_vec()),
            _ => return Err(WireError("unknown request marker")),
        })
    }
}

impl Reply {
    /// Encodes the reply into its CRC-framed wire form (see
    /// [`Request::encode`]).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the framed wire form to `buf` — byte-identical to
    /// [`Reply::encode`], but reusing the caller's buffer (see
    /// [`Request::encode_into`]).
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        put_frame(buf, None, self.body_len()?, |b| self.encode_body(b))
    }

    /// Bytes [`Reply::encode_body`] writes (see [`Request::body_len`]).
    fn body_len(&self) -> Result<usize, WireError> {
        Ok(1 + match self {
            Reply::Chain(results) => 4 + wire::response_wire_len(results)? as usize,
            Reply::Verb(Ok(data)) => 1 + bytes_len(data)?,
            Reply::Verb(Err(_)) => 1 + prism_rdma::error::ERROR_WIRE_LEN,
            Reply::Rpc(bytes) => bytes_len(bytes)?,
        })
    }

    fn encode_body(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Reply::Chain(results) => {
                buf.put_u8(MSG_CHAIN);
                put_len_prefixed(buf, |b| wire::encode_response_into(results, b))?;
            }
            Reply::Verb(outcome) => {
                buf.put_u8(MSG_VERB);
                match outcome {
                    Ok(data) => {
                        buf.put_u8(REPLY_OK);
                        put_bytes(buf, data)?;
                    }
                    Err(e) => {
                        buf.put_u8(REPLY_ERR);
                        buf.put_slice(&e.to_wire());
                    }
                }
            }
            Reply::Rpc(bytes) => {
                buf.put_u8(MSG_RPC);
                put_bytes(buf, bytes)?;
            }
        }
        Ok(())
    }

    /// Decodes a reply from its wire form, verifying the frame
    /// checksums first (see [`Request::decode`]) and rejecting
    /// trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Reply, WireError> {
        let mut r = open_frame(buf)?;
        let reply = Reply::read(&mut r)?;
        r.end()?;
        Ok(reply)
    }

    fn read(r: &mut Reader) -> Result<Reply, WireError> {
        Ok(match r.u8()? {
            MSG_CHAIN => Reply::Chain(wire::decode_response(r.prefixed()?)?),
            MSG_VERB => Reply::Verb(match r.u8()? {
                REPLY_OK => Ok(r.prefixed()?.to_vec()),
                REPLY_ERR => Err(RdmaError::from_wire(&r.array()?)
                    .ok_or(WireError("unknown verb error code"))?),
                _ => return Err(WireError("bad verb outcome flag")),
            }),
            MSG_RPC => Reply::Rpc(r.prefixed()?.to_vec()),
            _ => return Err(WireError("unknown reply marker")),
        })
    }
}

/// Executes a request against a local server — the live-mode transport,
/// also used by every unit and integration test.
pub fn execute_local(server: &crate::server::PrismServer, req: &Request) -> Reply {
    match req {
        Request::Chain(chain) => Reply::Chain(server.execute_chain(chain)),
        Request::Verb(v) => Reply::Verb(match v {
            Verb::Read { addr, len, rkey } => {
                server
                    .nic()
                    .read(prism_rdma::Rkey(*rkey), *addr, *len as u64)
            }
            Verb::Write { addr, data, rkey } => server
                .nic()
                .write(prism_rdma::Rkey(*rkey), *addr, data)
                .map(|()| Vec::new()),
            Verb::Cas64 {
                addr,
                compare,
                swap,
                rkey,
            } => server
                .nic()
                .cas64(prism_rdma::Rkey(*rkey), *addr, *compare, *swap)
                .map(|old| old.to_le_bytes().to_vec()),
        }),
        Request::Rpc(bytes) => Reply::Rpc(server.handle_rpc(bytes)),
    }
}

/// Hints a request that [`execute_local`] will run later: prefetches
/// what it names (chains through
/// [`crate::engine::PrismEngine::hint_chain`], verbs by their target
/// span, nothing for an RPC), and returns the first indirect op's
/// pointer location for [`crate::engine::PrismEngine::hint_target`]. A
/// hint executes and validates nothing; see `hint_chain` for what it
/// may not do.
pub fn hint_local(server: &crate::server::PrismServer, req: &Request) -> Option<PendingHint> {
    match req {
        Request::Chain(chain) => server.engine().hint_chain(chain),
        Request::Verb(v) => {
            let (addr, len) = match v {
                Verb::Read { addr, len, .. } => (*addr, *len as u64),
                Verb::Write { addr, data, .. } => (*addr, data.len() as u64),
                Verb::Cas64 { addr, .. } => (*addr, 8),
            };
            server.arena().prefetch(addr, len);
            None
        }
        Request::Rpc(_) => None,
    }
}

/// Whether every op in a chain reply succeeded.
pub fn chain_all_ok(results: &[OpResult]) -> bool {
    !results.is_empty() && results.iter().all(|r| r.status == OpStatus::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ops;
    use crate::server::PrismServer;
    use prism_rdma::region::AccessFlags;

    #[test]
    fn verb_sizes() {
        let w = Verb::Write {
            addr: 0,
            data: vec![0; 512],
            rkey: 1,
        };
        assert_eq!(w.request_len(), 540);
        assert_eq!(
            Verb::Read {
                addr: 0,
                len: 512,
                rkey: 1
            }
            .response_len(),
            512
        );
    }

    #[test]
    fn local_execution_of_all_request_kinds() {
        let s = PrismServer::new(1 << 20);
        let (addr, rkey) = s.carve_region(64, 64, AccessFlags::FULL);
        s.set_rpc_handler(std::sync::Arc::new(|req: &[u8]| req.to_vec()));

        // Verb write then chain read.
        let w = execute_local(
            &s,
            &Request::Verb(Verb::Write {
                addr,
                data: b"12345678".to_vec(),
                rkey: rkey.0,
            }),
        );
        assert!(w.into_verb().is_ok());
        let r = execute_local(&s, &Request::Chain(vec![ops::read(addr, 8, rkey.0)]));
        assert_eq!(r.into_chain().unwrap()[0].data, b"12345678");

        // Classic CAS through the same memory.
        s.arena().write_u64(addr, 5).unwrap();
        let c = execute_local(
            &s,
            &Request::Verb(Verb::Cas64 {
                addr,
                compare: 5,
                swap: 6,
                rkey: rkey.0,
            }),
        );
        assert_eq!(c.into_verb().unwrap(), 5u64.to_le_bytes());

        // RPC echo.
        let rpc = execute_local(&s, &Request::Rpc(b"ping".to_vec()));
        assert_eq!(rpc.into_rpc().unwrap(), b"ping");
    }

    #[test]
    fn many_threads_share_one_server() {
        let s = std::sync::Arc::new(PrismServer::new(1 << 20));
        let (addr, rkey) = s.carve_region(4096, 64, AccessFlags::FULL);
        let rkey = rkey.0;
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // Each thread owns an 8-byte cell; verbs and
                        // chains interleave on the same host.
                        let cell = addr + t * 8;
                        let v = (t << 32 | i).to_le_bytes().to_vec();
                        let w = execute_local(&s, &Request::Chain(vec![ops::write(cell, v, rkey)]));
                        assert!(w.into_chain().unwrap()[0].succeeded());
                        let r = execute_local(
                            &s,
                            &Request::Verb(Verb::Read {
                                addr: cell,
                                len: 8,
                                rkey,
                            }),
                        );
                        let got = u64::from_le_bytes(r.into_verb().unwrap().try_into().unwrap());
                        // Our own write is the only writer of this cell,
                        // so it must read back.
                        assert_eq!(got, t << 32 | i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn reply_accessors_return_typed_errors_never_panic() {
        use prism_rdma::RdmaError::{BadResponse, ReceiverNotReady};
        let timeout = || Reply::Verb(Err(ReceiverNotReady));
        assert_eq!(timeout().into_chain().unwrap_err(), ReceiverNotReady);
        assert_eq!(timeout().into_rpc().unwrap_err(), ReceiverNotReady);
        assert_eq!(timeout().into_verb().unwrap_err(), ReceiverNotReady);
        assert_eq!(Reply::Rpc(vec![0]).into_chain().unwrap_err(), BadResponse);
        assert_eq!(
            Reply::Chain(Vec::new()).into_rpc().unwrap_err(),
            BadResponse
        );
        assert_eq!(Reply::Rpc(Vec::new()).into_verb().unwrap_err(), BadResponse);
        assert_eq!(Reply::Verb(Ok(vec![1])).into_verb(), Ok(vec![1]));
    }

    #[test]
    fn request_and_reply_wire_framing_round_trips() {
        let reqs = [
            Request::Chain(vec![ops::read(0x10, 8, 1)]),
            Request::Verb(Verb::Cas64 {
                addr: 8,
                compare: 1,
                swap: 2,
                rkey: 3,
            }),
            Request::Rpc(vec![1, 2, 3]),
            Request::Rpc(vec![]),
            Request::Verb(Verb::Read {
                addr: 0,
                len: 64,
                rkey: 9,
            }),
        ];
        for r in &reqs {
            assert_eq!(&Request::decode(&r.encode().unwrap()).unwrap(), r);
        }
        let replies = [
            Reply::Chain(vec![OpResult {
                status: OpStatus::CasFailed,
                data: vec![7; 16],
            }]),
            Reply::Verb(Err(prism_rdma::RdmaError::ReceiverNotReady)),
            Reply::Verb(Ok(vec![])),
            Reply::Rpc(vec![0xAB]),
        ];
        for r in &replies {
            assert_eq!(&Reply::decode(&r.encode().unwrap()).unwrap(), r);
        }
    }

    #[test]
    fn encode_into_appends_framed_bytes_identically() {
        // The append-style encoders must frame at the buffer tail:
        // checksums cover only the new frame, the prefix survives, and
        // the appended bytes match the owned encoders exactly.
        let req = Request::Chain(vec![ops::read(0x10, 8, 1), ops::read(0x20, 8, 1)]);
        let mut buf = b"prefix".to_vec();
        req.encode_into(&mut buf).unwrap();
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(&buf[6..], &req.encode().unwrap()[..]);
        assert_eq!(Request::decode(&buf[6..]).unwrap(), req);

        let reply = Reply::Chain(vec![OpResult {
            status: OpStatus::Ok,
            data: vec![3; 12],
        }]);
        let mut buf = vec![0xEE; 4];
        reply.encode_into(&mut buf).unwrap();
        assert_eq!(&buf[4..], &reply.encode().unwrap()[..]);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Rpc(vec![5]).encode().unwrap();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Reply::Rpc(vec![5]).encode().unwrap();
        bytes.push(0);
        assert!(Reply::decode(&bytes).is_err());
    }

    #[test]
    fn flipped_frames_decode_to_typed_corrupt_errors() {
        let req = Request::Chain(vec![ops::read(0x10, 64, 1)]);
        let bytes = req.encode().unwrap();
        // Every single-bit flip — body or trailer — must surface as the
        // typed corrupt error, never a panic or a silently wrong parse.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                let err = Request::decode(&m).expect_err("flip must not decode");
                assert!(err.is_corrupt(), "flip at {byte}:{bit} gave {err:?}");
            }
        }
        let reply = Reply::Verb(Ok(vec![0xAA; 32]));
        let bytes = reply.encode().unwrap();
        for byte in 0..bytes.len() {
            let mut m = bytes.clone();
            m[byte] ^= 0x40;
            assert!(Reply::decode(&m)
                .expect_err("flip must not decode")
                .is_corrupt());
        }
    }

    #[test]
    fn frames_shorter_than_the_trailer_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[1, 2, 3]).is_err());
        assert!(Reply::decode(&[0; 7]).is_err());
    }

    #[test]
    fn epoch_framing_round_trips_and_flips_are_detected() {
        let reqs = [
            Request::Chain(vec![ops::read(0x10, 8, 1)]),
            Request::Rpc(vec![1, 2, 3]),
            Request::Rpc(vec![]),
        ];
        for r in &reqs {
            for epoch in [0u64, 1, 7, u64::MAX] {
                let bytes = r.encode_epoch(epoch).unwrap();
                assert_eq!(Request::decode_epoch(&bytes).unwrap(), (epoch, r.clone()));
            }
        }
        // The epoch word rides inside the checksummed frame: every
        // single-bit flip — epoch bytes included — is a typed corrupt
        // error, so a damaged epoch can never masquerade as a stale
        // (or fresh) route.
        let bytes = reqs[0].encode_epoch(3).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                let err = Request::decode_epoch(&m).expect_err("flip must not decode");
                assert!(err.is_corrupt(), "flip at {byte}:{bit} gave {err:?}");
            }
        }
        // Trailing bytes are rejected the same way the plain framing
        // rejects them, and a plain frame is not an epoch frame.
        let mut extended = reqs[0].encode_epoch(3).unwrap();
        extended.insert(extended.len() - FRAME_TRAILER, 0);
        assert!(Request::decode_epoch(&extended).is_err());
    }

    #[test]
    fn stale_incarnation_is_found_in_any_reply_shape() {
        let stale = prism_rdma::RdmaError::StaleIncarnation {
            seen: 0,
            current: 3,
        };
        assert_eq!(Reply::Verb(Err(stale)).stale_incarnation(), Some(3));
        assert_eq!(
            Reply::Chain(vec![
                OpResult {
                    status: OpStatus::Ok,
                    data: vec![],
                },
                OpResult {
                    status: OpStatus::Error(stale),
                    data: vec![],
                },
            ])
            .stale_incarnation(),
            Some(3)
        );
        assert_eq!(
            Reply::Verb(Err(prism_rdma::RdmaError::ReceiverNotReady)).stale_incarnation(),
            None
        );
        assert_eq!(Reply::Rpc(vec![1]).stale_incarnation(), None);
    }

    #[test]
    fn chain_all_ok_semantics() {
        assert!(!chain_all_ok(&[]));
        let ok = OpResult {
            status: OpStatus::Ok,
            data: vec![],
        };
        let failed = OpResult {
            status: OpStatus::CasFailed,
            data: vec![],
        };
        assert!(chain_all_ok(std::slice::from_ref(&ok)));
        assert!(!chain_all_ok(&[ok, failed]));
    }
}
