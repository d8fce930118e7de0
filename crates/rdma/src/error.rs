//! Error codes for the simulated RDMA substrate.
//!
//! These mirror the NACK classes a real NIC generates: remote access
//! errors for bad addresses or keys, alignment faults for atomics, and
//! Receiver-Not-Ready flow control. PRISM's chaining treats any of these
//! as "operation unsuccessful" (Table 1).

use std::fmt;

/// An error produced by a simulated RDMA or PRISM operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// The access touches bytes outside the arena.
    OutOfBounds {
        /// First byte of the offending access.
        addr: u64,
        /// Length of the offending access.
        len: u64,
    },
    /// No registered region carries this rkey.
    InvalidRkey(u32),
    /// The target range is not fully covered by the region with this rkey,
    /// or the region lacks the required access right.
    AccessDenied {
        /// The rkey presented with the operation.
        rkey: u32,
        /// First byte of the offending access.
        addr: u64,
        /// Length of the offending access.
        len: u64,
    },
    /// Atomic operand address not naturally aligned.
    Misaligned {
        /// The unaligned address.
        addr: u64,
        /// Required alignment in bytes.
        required: u64,
    },
    /// An ALLOCATE found the free list empty (maps to Receiver Not Ready;
    /// §4.2 uses RNR as the flow-control backstop).
    ReceiverNotReady,
    /// Atomic operand longer than the 32-byte maximum (§3.3).
    OperandTooLong(u64),
    /// An ALLOCATE payload does not fit the free list's buffer size class.
    BufferTooSmall {
        /// Bytes the payload needs.
        need: u64,
        /// Bytes the size class provides.
        have: u64,
    },
    /// An ALLOCATE named a free list that was never registered.
    UnknownFreeList(u32),
    /// A chained operation was skipped because a previous operation in the
    /// chain failed or a conditional CAS did not execute (§3.4).
    ChainAborted,
    /// An indirect pointer dereference produced an address that failed
    /// validation (§3.1: both the pointer and its target must be covered
    /// by the same rkey).
    BadIndirectTarget(u64),
    /// The rkey was minted under an older incarnation of the server's
    /// memory: the server crashed with amnesia and re-registered its
    /// arena since the key was issued. Fencing pre-crash keys turns
    /// "silently read garbage from reinitialized memory" into a
    /// deterministic NACK the client can recover from by refreshing its
    /// connection state (the crux of RDMA fault tolerance in Aguilera
    /// et al., "The Impact of RDMA on Agreement").
    StaleIncarnation {
        /// Incarnation encoded in the presented rkey.
        seen: u64,
        /// The server's current incarnation.
        current: u64,
    },
    /// The frame failed its integrity check: the receiving NIC's CRC
    /// over the message did not match, so the payload was discarded
    /// before execution. The transport-level NACK for in-flight
    /// corruption — clients treat it like a lost message and retry;
    /// it never carries partial data.
    Corrupt,
    /// The request was routed under an older shard-map epoch: the
    /// cluster resharded since the client fetched its map, so the key
    /// the request targets may live on a different server now. The
    /// routing analog of [`RdmaError::StaleIncarnation`]: instead of
    /// silently serving (or mutating) a possibly-moved key, the server
    /// fences the request with a deterministic NACK and the client
    /// recovers by refetching the shard map and rerouting.
    StaleEpoch {
        /// Epoch the request was stamped with.
        seen: u64,
        /// The server's current shard-map epoch.
        current: u64,
    },
    /// The server refused admission: its dispatch queue was already
    /// deep enough that this request's queueing delay would exceed the
    /// configured admission bound. Overload protection for gray
    /// failures — a degraded server NACKs the overflow immediately
    /// instead of building a convoy, and clients shed load (give the
    /// op up against its deadline budget) instead of retry-storming.
    Busy {
        /// The queueing delay this request would have seen, in ns.
        wait_ns: u64,
    },
    /// The reply is not of the kind the request asked for — a real
    /// NIC's bad-response completion (`IBV_WC_BAD_RESP_ERR`). No server
    /// produces it: a client reply accessor reports it, and the client
    /// treats the round trip as lost.
    BadResponse,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RdmaError::OutOfBounds { addr, len } => {
                write!(f, "access [{addr:#x}, +{len}) outside arena")
            }
            RdmaError::InvalidRkey(rkey) => write!(f, "invalid rkey {rkey:#x}"),
            RdmaError::AccessDenied { rkey, addr, len } => {
                write!(f, "rkey {rkey:#x} does not permit [{addr:#x}, +{len})")
            }
            RdmaError::Misaligned { addr, required } => {
                write!(f, "address {addr:#x} not {required}-byte aligned")
            }
            RdmaError::ReceiverNotReady => write!(f, "receiver not ready (free list empty)"),
            RdmaError::OperandTooLong(len) => {
                write!(f, "atomic operand of {len} bytes exceeds 32-byte maximum")
            }
            RdmaError::BufferTooSmall { need, have } => {
                write!(
                    f,
                    "payload of {need} bytes exceeds buffer size class {have}"
                )
            }
            RdmaError::UnknownFreeList(id) => write!(f, "free list {id} not registered"),
            RdmaError::ChainAborted => write!(f, "chained operation skipped"),
            RdmaError::BadIndirectTarget(addr) => {
                write!(f, "indirect pointer target {addr:#x} failed validation")
            }
            RdmaError::StaleIncarnation { seen, current } => {
                write!(
                    f,
                    "rkey from incarnation {seen} fenced (server is at incarnation {current})"
                )
            }
            RdmaError::Corrupt => write!(f, "frame failed integrity check (CRC mismatch)"),
            RdmaError::StaleEpoch { seen, current } => {
                write!(
                    f,
                    "request routed under shard-map epoch {seen} fenced (server is at epoch {current})"
                )
            }
            RdmaError::Busy { wait_ns } => {
                write!(
                    f,
                    "admission refused (queueing delay would be {wait_ns} ns)"
                )
            }
            RdmaError::BadResponse => write!(f, "reply of the wrong kind for the request"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// Fixed wire size of an encoded [`RdmaError`]: a code byte plus three
/// little-endian parameter words (`u64`, `u64`, `u32`).
pub const ERROR_WIRE_LEN: usize = 21;

impl RdmaError {
    /// Encodes the error into its fixed-size wire form (a NACK code
    /// plus parameters), for reply serialization.
    pub fn to_wire(self) -> [u8; ERROR_WIRE_LEN] {
        let (code, a, b, c): (u8, u64, u64, u32) = match self {
            RdmaError::OutOfBounds { addr, len } => (0, addr, len, 0),
            RdmaError::InvalidRkey(rkey) => (1, 0, 0, rkey),
            RdmaError::AccessDenied { rkey, addr, len } => (2, addr, len, rkey),
            RdmaError::Misaligned { addr, required } => (3, addr, required, 0),
            RdmaError::ReceiverNotReady => (4, 0, 0, 0),
            RdmaError::OperandTooLong(len) => (5, len, 0, 0),
            RdmaError::BufferTooSmall { need, have } => (6, need, have, 0),
            RdmaError::UnknownFreeList(id) => (7, 0, 0, id),
            RdmaError::ChainAborted => (8, 0, 0, 0),
            RdmaError::BadIndirectTarget(addr) => (9, addr, 0, 0),
            RdmaError::StaleIncarnation { seen, current } => (10, seen, current, 0),
            RdmaError::Corrupt => (11, 0, 0, 0),
            RdmaError::StaleEpoch { seen, current } => (12, seen, current, 0),
            RdmaError::Busy { wait_ns } => (13, wait_ns, 0, 0),
            RdmaError::BadResponse => (14, 0, 0, 0),
        };
        let mut out = [0u8; ERROR_WIRE_LEN];
        out[0] = code;
        out[1..9].copy_from_slice(&a.to_le_bytes());
        out[9..17].copy_from_slice(&b.to_le_bytes());
        out[17..21].copy_from_slice(&c.to_le_bytes());
        out
    }

    /// Decodes an error from its wire form; `None` for unknown codes.
    pub fn from_wire(bytes: &[u8; ERROR_WIRE_LEN]) -> Option<RdmaError> {
        let a = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
        let c = u32::from_le_bytes(bytes[17..21].try_into().expect("4 bytes"));
        Some(match bytes[0] {
            0 => RdmaError::OutOfBounds { addr: a, len: b },
            1 => RdmaError::InvalidRkey(c),
            2 => RdmaError::AccessDenied {
                rkey: c,
                addr: a,
                len: b,
            },
            3 => RdmaError::Misaligned {
                addr: a,
                required: b,
            },
            4 => RdmaError::ReceiverNotReady,
            5 => RdmaError::OperandTooLong(a),
            6 => RdmaError::BufferTooSmall { need: a, have: b },
            7 => RdmaError::UnknownFreeList(c),
            8 => RdmaError::ChainAborted,
            9 => RdmaError::BadIndirectTarget(a),
            10 => RdmaError::StaleIncarnation {
                seen: a,
                current: b,
            },
            11 => RdmaError::Corrupt,
            12 => RdmaError::StaleEpoch {
                seen: a,
                current: b,
            },
            13 => RdmaError::Busy { wait_ns: a },
            14 => RdmaError::BadResponse,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RdmaError::AccessDenied {
            rkey: 0x10,
            addr: 0x2000,
            len: 8,
        };
        let s = e.to_string();
        assert!(s.contains("0x10") && s.contains("0x2000"));
        assert!(RdmaError::ReceiverNotReady
            .to_string()
            .contains("free list"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RdmaError::InvalidRkey(1), RdmaError::InvalidRkey(1));
        assert_ne!(RdmaError::InvalidRkey(1), RdmaError::InvalidRkey(2));
    }

    #[test]
    fn wire_form_round_trips_every_variant() {
        let all = [
            RdmaError::OutOfBounds { addr: 7, len: 9 },
            RdmaError::InvalidRkey(3),
            RdmaError::AccessDenied {
                rkey: 1,
                addr: 2,
                len: 3,
            },
            RdmaError::Misaligned {
                addr: 11,
                required: 8,
            },
            RdmaError::ReceiverNotReady,
            RdmaError::OperandTooLong(64),
            RdmaError::BufferTooSmall { need: 10, have: 4 },
            RdmaError::UnknownFreeList(5),
            RdmaError::ChainAborted,
            RdmaError::BadIndirectTarget(0xDEAD),
            RdmaError::StaleIncarnation {
                seen: 2,
                current: 5,
            },
            RdmaError::Corrupt,
            RdmaError::StaleEpoch {
                seen: 1,
                current: 3,
            },
            RdmaError::Busy { wait_ns: 12_345 },
            RdmaError::BadResponse,
        ];
        for e in all {
            assert_eq!(RdmaError::from_wire(&e.to_wire()), Some(e));
        }
        let mut bad = RdmaError::ChainAborted.to_wire();
        bad[0] = 0xFF;
        assert_eq!(RdmaError::from_wire(&bad), None);
    }
}
