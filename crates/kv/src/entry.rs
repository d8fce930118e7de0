//! On-disk — rather, in-remote-memory — entry format shared by both
//! stores: `[klen u32 | vlen u32 | version u32 | crc u32 | key | value]`.
//!
//! PRISM-KV stores entries in ALLOCATE'd buffers referenced by
//! `(ptr, bound)` hash slots; Pilaf stores them in its extents region.
//! The header makes entries self-describing so a bounded indirect READ
//! (which may return more bytes than the entry if the request length
//! exceeds the bound — it returns `min(len, bound)`) can be parsed
//! without out-of-band length information.
//!
//! The `crc` field is a Pilaf-style self-verification checksum over
//! `klen || vlen || version || key || value`. PRISM-KV's out-of-place
//! updates make it unnecessary against *racing* writers (the paper's
//! Figure 3 point stands — GETs never pay a verify-retry loop in the
//! common case), but it is what turns a torn install or at-rest bit
//! rot from a silently wrong answer into a typed
//! [`EntryError::Corrupt`] the client can re-read or abort on. The
//! `version` binds the checksum to a specific install, so an old CRC
//! can never vouch for a newer value's bytes.

use prism_core::crc::Crc32;

/// Header bytes preceding key and value.
pub const HEADER: usize = 16;

/// Bytes of the header covered by the checksum (everything before the
/// `crc` field itself).
const CRC_COVER: usize = 12;

/// A failed [`decode_verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryError {
    /// The bytes are too short for the lengths the header claims —
    /// either a short read or a header so damaged its lengths point
    /// past the buffer.
    Truncated,
    /// Structure intact but the checksum does not match: a torn
    /// install or bit rot in key, value, or header.
    Corrupt,
}

fn entry_crc(header: &[u8], key: &[u8], value: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&header[..CRC_COVER]).update(key).update(value);
    c.finish()
}

/// Encodes an entry with an explicit version stamp.
pub fn encode_versioned(key: &[u8], value: &[u8], version: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(HEADER + key.len() + value.len());
    encode_versioned_into(&mut v, key, value, version);
    v
}

/// [`encode_versioned`] into `v`, replacing what it held: a caller that
/// encodes many entries reuses one buffer.
pub fn encode_versioned_into(v: &mut Vec<u8>, key: &[u8], value: &[u8], version: u32) {
    v.clear();
    v.extend_from_slice(&(key.len() as u32).to_le_bytes());
    v.extend_from_slice(&(value.len() as u32).to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend_from_slice(&[0u8; 4]); // crc placeholder
    v.extend_from_slice(key);
    v.extend_from_slice(value);
    let crc = entry_crc(&v[..HEADER], key, value);
    v[CRC_COVER..HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes an entry (version 0 — callers that don't track install
/// versions, e.g. the Pilaf baseline, whose extents carry their own
/// index-level checksums).
pub fn encode(key: &[u8], value: &[u8]) -> Vec<u8> {
    encode_versioned(key, value, 0)
}

/// Total encoded length for a key/value pair.
pub fn encoded_len(key_len: usize, value_len: usize) -> usize {
    HEADER + key_len + value_len
}

/// Structural decode, tolerating trailing garbage (bounded reads return
/// exactly the bound, which equals the entry length, but defensive
/// parsing costs nothing). Returns `(key, value)` without verifying
/// the checksum — callers that need integrity use [`decode_verified`].
pub fn decode(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (k, v, _) = split(bytes).ok()?;
    Some((k, v))
}

/// Verified decode: structural parse plus checksum check. Returns
/// `(key, value, version)` or a typed error — a damaged entry is never
/// silently returned as data.
pub fn decode_verified(bytes: &[u8]) -> Result<(&[u8], &[u8], u32), EntryError> {
    let (key, value, version) = split(bytes)?;
    let stored = u32::from_le_bytes(bytes[CRC_COVER..HEADER].try_into().expect("4 bytes"));
    if stored != entry_crc(&bytes[..HEADER], key, value) {
        return Err(EntryError::Corrupt);
    }
    Ok((key, value, version))
}

fn split(bytes: &[u8]) -> Result<(&[u8], &[u8], u32), EntryError> {
    if bytes.len() < HEADER {
        return Err(EntryError::Truncated);
    }
    let klen = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let vlen = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let total = HEADER
        .checked_add(klen)
        .and_then(|t| t.checked_add(vlen))
        .ok_or(EntryError::Truncated)?;
    if bytes.len() < total {
        return Err(EntryError::Truncated);
    }
    Ok((
        &bytes[HEADER..HEADER + klen],
        &bytes[HEADER + klen..total],
        version,
    ))
}

/// Just the key, for probe verification. Unlike [`decode`], this only
/// needs the header and key bytes to be present — PUT probes read
/// exactly `HEADER + key_len` bytes of the entry (§6.1), not the value.
pub fn decode_key(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < HEADER {
        return None;
    }
    let klen = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
    let end = HEADER.checked_add(klen)?;
    if bytes.len() < end {
        return None;
    }
    Some(&bytes[HEADER..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let e = encode(b"key-1", b"some value bytes");
        let (k, v) = decode(&e).unwrap();
        assert_eq!(k, b"key-1");
        assert_eq!(v, b"some value bytes");
        assert_eq!(e.len(), encoded_len(5, 16));
        assert_eq!(
            decode_verified(&e).unwrap(),
            (&b"key-1"[..], &b"some value bytes"[..], 0)
        );
    }

    #[test]
    fn version_round_trips_and_is_covered_by_crc() {
        let e = encode_versioned(b"k", b"v", 41);
        assert_eq!(decode_verified(&e).unwrap().2, 41);
        let mut rotted = e.clone();
        rotted[8] ^= 1; // flip a version bit
        assert_eq!(decode_verified(&rotted), Err(EntryError::Corrupt));
    }

    #[test]
    fn empty_key_and_value() {
        let e = encode(b"", b"");
        assert_eq!(decode(&e).unwrap(), (&b""[..], &b""[..]));
        assert!(decode_verified(&e).is_ok());
    }

    #[test]
    fn truncated_inputs_rejected() {
        let e = encode(b"abc", b"defgh");
        for cut in 0..e.len() {
            if cut < encoded_len(3, 5) {
                assert!(decode(&e[..cut]).is_none(), "cut={cut}");
                assert_eq!(
                    decode_verified(&e[..cut]),
                    Err(EntryError::Truncated),
                    "cut={cut}"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let e = encode_versioned(b"key", b"payload bytes", 7);
        for byte in 0..e.len() {
            for bit in 0..8 {
                let mut m = e.clone();
                m[byte] ^= 1 << bit;
                // A flip either breaks the structure (header lengths now
                // point past the buffer) or fails the checksum; it never
                // decodes to different bytes.
                match decode_verified(&m) {
                    Err(_) => {}
                    Ok(got) => panic!("flip at {byte}:{bit} decoded as {got:?}"),
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_tolerated() {
        let mut e = encode(b"k", b"v");
        e.extend_from_slice(&[0xFF; 32]);
        assert_eq!(decode(&e).unwrap(), (&b"k"[..], &b"v"[..]));
        assert!(decode_verified(&e).is_ok());
    }

    #[test]
    fn hostile_lengths_do_not_overflow() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        assert!(decode(&bytes).is_none());
        assert_eq!(decode_verified(&bytes), Err(EntryError::Truncated));
    }
}
