//! On-disk formats: segment header, record frames, and the manifest.
//!
//! Every file begins with a fixed 20-byte header — magic (8 B ASCII
//! tag), version (u16 LE), flags (u16 LE), reserved (u32 LE), then a
//! CRC32 over those 16 bytes — so a damaged header is detected before
//! any record is trusted. Records are length-prefixed and carry their
//! own CRC over the entire frame body, so a torn tail or a rotted bit
//! surfaces as a typed [`StoreError`], never as silently-wrong bytes.
//!
//! ```text
//! segment file            record frame (repeated after header)
//! +------------------+    +-------------------------------------+
//! | magic    8 B     |    | len       u32 LE   payload length   |
//! | version  u16 LE  |    | epoch     u64 LE                    |
//! | flags    u16 LE  |    | inc       u64 LE   incarnation      |
//! | reserved u32 LE  |    | key       u64 LE   slot / block id  |
//! | hdr_crc  u32 LE  |    | payload   len B                     |
//! +------------------+    | crc       u32 LE   over all above   |
//! | record frames …  |    +-------------------------------------+
//! ```
//!
//! The manifest (`PRSMMAN1`) shares the header, then holds a count and
//! `(seq, len, records)` per sealed segment, a checkpoint sequence
//! number (segments below it are fully covered by a checkpoint fold
//! and replay skips decoding them), all closed by a CRC over the entry
//! table.
//!
//! [`encode_manifest`] is the one definition of that layout. Sealing a
//! segment does not re-encode the file: [`manifest_push`] computes the
//! 28 bytes that differ (count word, then `entry | checkpoint | crc`
//! over the old tail) at a cost independent of the table's length, and
//! the patched file equals `encode_manifest` of the grown table byte
//! for byte.

use prism_core::crc::{crc32, Crc32, CrcShift};

/// Magic tag opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PRSMSEG1";
/// Magic tag opening the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"PRSMMAN1";
/// Current format version for both file kinds.
pub const VERSION: u16 = 1;
/// Fixed header length (magic + version + flags + reserved + CRC).
pub const HEADER_LEN: usize = 20;
/// Bytes of a record frame ahead of its payload: len + epoch + inc + key.
pub const PAYLOAD_OFFSET: usize = 4 + 8 + 8 + 8;
/// Record frame overhead: the prefix ahead of the payload plus the CRC.
pub const FRAME_OVERHEAD: usize = PAYLOAD_OFFSET + 4;
/// Ceiling on a record payload; a corrupted length field past this is
/// rejected as [`StoreError::RecordOverrun`] instead of driving a huge
/// allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Typed decode failure. Every way a header, record, or manifest can be
/// damaged maps to one of these — decode never panics and never accepts
/// bytes whose CRC disagrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Fewer than [`HEADER_LEN`] bytes where a header must be.
    HeaderTruncated,
    /// The 8-byte magic tag does not match the expected file kind.
    BadMagic,
    /// Unknown format version.
    BadVersion { seen: u16 },
    /// Flags word carries bits this version does not define.
    BadFlags { seen: u16 },
    /// Header CRC mismatch.
    HeaderCorrupt { seen: u32, want: u32 },
    /// A record frame runs past the end of the segment (torn write).
    RecordTruncated,
    /// A record length field exceeds [`MAX_PAYLOAD`].
    RecordOverrun { len: u32 },
    /// Record CRC mismatch (bit rot or a tear inside the frame).
    RecordCorrupt { seen: u32, want: u32 },
    /// The manifest ends before its declared entry table.
    ManifestTruncated,
    /// Manifest entry-table CRC mismatch.
    ManifestCorrupt { seen: u32, want: u32 },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::HeaderTruncated => write!(f, "file shorter than its header"),
            StoreError::BadMagic => write!(f, "magic tag mismatch"),
            StoreError::BadVersion { seen } => write!(f, "unknown format version {seen}"),
            StoreError::BadFlags { seen } => write!(f, "undefined flag bits {seen:#06x}"),
            StoreError::HeaderCorrupt { seen, want } => {
                write!(f, "header crc {seen:#010x} != {want:#010x}")
            }
            StoreError::RecordTruncated => write!(f, "record frame torn at end of segment"),
            StoreError::RecordOverrun { len } => {
                write!(f, "record length {len} exceeds payload ceiling")
            }
            StoreError::RecordCorrupt { seen, want } => {
                write!(f, "record crc {seen:#010x} != {want:#010x}")
            }
            StoreError::ManifestTruncated => write!(f, "manifest shorter than its entry table"),
            StoreError::ManifestCorrupt { seen, want } => {
                write!(f, "manifest crc {seen:#010x} != {want:#010x}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One durable record: the unit of replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Cluster epoch in force when the record was appended; replay uses
    /// it to fence entries whose home moved in a reshard.
    pub epoch: u64,
    /// Server incarnation that wrote the record.
    pub inc: u64,
    /// Application key: KV slot index or RS block index.
    pub key: u64,
    /// Application payload (self-verifying entry or block image; empty
    /// payloads are tombstones/fences by caller convention).
    pub payload: Vec<u8>,
}

/// One valid record frame read where it lies: the header fields by
/// value, the payload borrowed from the bytes the frame was decoded
/// from. What replay hands its visitor — a server folds and installs
/// from this without owning a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    pub epoch: u64,
    pub inc: u64,
    pub key: u64,
    pub payload: &'a [u8],
}

impl RecordView<'_> {
    /// Copies the payload out into an owned [`Record`].
    pub fn to_record(&self) -> Record {
        Record {
            epoch: self.epoch,
            inc: self.inc,
            key: self.key,
            payload: self.payload.to_vec(),
        }
    }
}

/// Manifest entry for one sealed (immutable, fully synced) segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedSeg {
    pub seq: u32,
    pub len: u64,
    pub records: u32,
}

/// Bytes one [`SealedSeg`] takes in the manifest's entry table.
const MANIFEST_ENTRY_LEN: usize = 16;

impl SealedSeg {
    fn encode(&self) -> [u8; MANIFEST_ENTRY_LEN] {
        let mut e = [0u8; MANIFEST_ENTRY_LEN];
        e[0..4].copy_from_slice(&self.seq.to_le_bytes());
        e[4..12].copy_from_slice(&self.len.to_le_bytes());
        e[12..16].copy_from_slice(&self.records.to_le_bytes());
        e
    }
}

/// Decoded manifest contents: the sealed-segment table plus the
/// checkpoint watermark.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Sealed segments, in sequence order.
    pub sealed: Vec<SealedSeg>,
    /// Segments with `seq < checkpoint` are fully covered by a
    /// checkpoint fold (written into segment `checkpoint` itself) and
    /// replay may skip decoding them. Zero means nothing is covered.
    pub checkpoint: u32,
}

/// The `N` bytes at `bytes[at..]`, or `short` where `bytes` ends first:
/// the one fixed-width read the decoders below make. Each checks its
/// lengths up front, so `short` is the error that check already gives.
fn field<const N: usize>(
    bytes: &[u8],
    at: usize,
    short: StoreError,
) -> Result<[u8; N], StoreError> {
    bytes
        .get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or(short)
}

/// Encodes a file header for the given magic tag.
pub fn encode_header(magic: &[u8; 8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(magic);
    h[8..10].copy_from_slice(&VERSION.to_le_bytes());
    // flags (2 B) and reserved (4 B) stay zero in version 1.
    let crc = crc32(&h[..16]);
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validates a file header against the expected magic tag.
pub fn decode_header(bytes: &[u8], magic: &[u8; 8]) -> Result<(), StoreError> {
    let short = StoreError::HeaderTruncated;
    if bytes.len() < HEADER_LEN {
        return Err(short);
    }
    let want = crc32(&bytes[..16]);
    let seen = u32::from_le_bytes(field(bytes, 16, short)?);
    if seen != want {
        return Err(StoreError::HeaderCorrupt { seen, want });
    }
    if &bytes[..8] != magic {
        return Err(StoreError::BadMagic);
    }
    let version = u16::from_le_bytes(field(bytes, 8, short)?);
    if version != VERSION {
        return Err(StoreError::BadVersion { seen: version });
    }
    let flags = u16::from_le_bytes(field(bytes, 10, short)?);
    if flags != 0 {
        return Err(StoreError::BadFlags { seen: flags });
    }
    Ok(())
}

/// Builds one record frame in place — the single definition of the
/// frame layout. `frame` must be exactly [`FRAME_OVERHEAD`] plus the
/// payload length; `fill` writes the payload into its slot, so a caller
/// holding the payload elsewhere (an arena, a [`Record`]) copies it once,
/// straight to where it will live. `fill` returning `false` abandons the
/// frame (the caller discards the bytes).
pub fn encode_record_in(
    frame: &mut [u8],
    epoch: u64,
    inc: u64,
    key: u64,
    fill: impl FnOnce(&mut [u8]) -> bool,
) -> bool {
    let body = frame.len() - 4;
    frame[0..4].copy_from_slice(&((body - PAYLOAD_OFFSET) as u32).to_le_bytes());
    frame[4..12].copy_from_slice(&epoch.to_le_bytes());
    frame[12..20].copy_from_slice(&inc.to_le_bytes());
    frame[20..28].copy_from_slice(&key.to_le_bytes());
    if !fill(&mut frame[PAYLOAD_OFFSET..body]) {
        return false;
    }
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
    true
}

/// Appends one record frame to `out`.
pub fn encode_record_into(rec: &Record, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + FRAME_OVERHEAD + rec.payload.len(), 0);
    encode_record_in(&mut out[start..], rec.epoch, rec.inc, rec.key, |p| {
        p.copy_from_slice(&rec.payload);
        true
    });
}

/// Validates the record frame at the front of `bytes` — length within
/// bounds, whole frame present, CRC over everything ahead of it — and
/// reads it in place, returning the view and the number of bytes the
/// frame occupies. The single definition of "a valid frame": replay and
/// [`decode_record`] both accept exactly what this accepts.
pub fn view_record(bytes: &[u8]) -> Result<(RecordView<'_>, usize), StoreError> {
    let short = StoreError::RecordTruncated;
    if bytes.len() < FRAME_OVERHEAD {
        return Err(short);
    }
    let len = u32::from_le_bytes(field(bytes, 0, short)?);
    if len > MAX_PAYLOAD {
        return Err(StoreError::RecordOverrun { len });
    }
    let total = FRAME_OVERHEAD + len as usize;
    if bytes.len() < total {
        return Err(short);
    }
    let body = total - 4;
    let want = crc32(&bytes[..body]);
    let seen = u32::from_le_bytes(field(bytes, body, short)?);
    if seen != want {
        return Err(StoreError::RecordCorrupt { seen, want });
    }
    Ok((
        RecordView {
            epoch: u64::from_le_bytes(field(bytes, 4, short)?),
            inc: u64::from_le_bytes(field(bytes, 12, short)?),
            key: u64::from_le_bytes(field(bytes, 20, short)?),
            payload: &bytes[PAYLOAD_OFFSET..body],
        },
        total,
    ))
}

/// Decodes one record frame from the front of `bytes` into an owned
/// [`Record`], returning it and the number of bytes consumed.
pub fn decode_record(bytes: &[u8]) -> Result<(Record, usize), StoreError> {
    view_record(bytes).map(|(view, used)| (view.to_record(), used))
}

/// Encodes the full manifest file (header + entry table + checkpoint +
/// table CRC, the CRC covering the checkpoint field too).
pub fn encode_manifest(sealed: &[SealedSeg], checkpoint: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 12 + sealed.len() * 16);
    out.extend_from_slice(&encode_header(MANIFEST_MAGIC));
    let table_start = out.len();
    out.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
    for s in sealed {
        out.extend_from_slice(&s.encode());
    }
    out.extend_from_slice(&checkpoint.to_le_bytes());
    let crc = crc32(&out[table_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Running CRC over the entry table of an encoded manifest, and the
/// shift over the bytes that follow its count word (entries and
/// checkpoint): the state [`manifest_push`] continues from.
pub fn manifest_table_crc(manifest: &[u8]) -> (Crc32, CrcShift) {
    let table = &manifest[HEADER_LEN + 4..manifest.len() - 8];
    let mut crc = Crc32::new();
    crc.update(table);
    (crc, CrcShift::bytes(table.len() as u64 + 4))
}

/// The in-place edit that appends one entry to an encoded manifest.
pub struct ManifestPatch {
    count: [u8; 4],
    tail_at: usize,
    tail: [u8; MANIFEST_ENTRY_LEN + 8],
}

impl ManifestPatch {
    /// The `(offset, bytes)` overwrites, in the order to apply them:
    /// the count word, then `entry | checkpoint | crc` over the old
    /// `checkpoint | crc` tail (growing the file by one entry).
    pub fn writes(&self) -> [(usize, &[u8]); 2] {
        [(HEADER_LEN, &self.count), (self.tail_at, &self.tail)]
    }
}

/// Computes the patch that turns `encode_manifest(sealed, checkpoint)`
/// into `encode_manifest(sealed + [entry], checkpoint)` at a cost
/// independent of the table's length. `count` is the entry count
/// *after* the push; `table_crc` is the running CRC of the entries
/// before it and `table_shift` the shift over those entries and the
/// checkpoint (both as [`manifest_table_crc`] returns them, and both
/// advanced here, the shift by one entry's constant step). The
/// manifest CRC covers `count | entries | checkpoint` and the count
/// word leads, so the checksum is reassembled with
/// [`CrcShift::combine`] rather than re-read.
pub fn manifest_push(
    table_crc: &mut Crc32,
    table_shift: &mut CrcShift,
    count: u32,
    entry: &SealedSeg,
    checkpoint: u32,
) -> ManifestPatch {
    const E: usize = MANIFEST_ENTRY_LEN;
    const ENTRY_SHIFT: CrcShift = CrcShift::bytes(E as u64);
    let table_len = count as usize * E;
    let mut tail = [0u8; E + 8];
    tail[..E].copy_from_slice(&entry.encode());
    tail[E..E + 4].copy_from_slice(&checkpoint.to_le_bytes());
    table_crc.update(&tail[..E]);
    *table_shift = table_shift.then(ENTRY_SHIFT);
    let mut rest = *table_crc;
    rest.update(&tail[E..E + 4]);
    let count = count.to_le_bytes();
    let crc = table_shift.combine(crc32(&count), rest.finish());
    tail[E + 4..].copy_from_slice(&crc.to_le_bytes());
    ManifestPatch {
        count,
        tail_at: HEADER_LEN + 4 + table_len - E,
        tail,
    }
}

/// Decodes a full manifest file (entry table + checkpoint + CRC). A
/// file whose length is not the one its entry count implies is a typed
/// truncation error.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    decode_header(bytes, MANIFEST_MAGIC)?;
    let rest = &bytes[HEADER_LEN..];
    let short = StoreError::ManifestTruncated;
    if rest.len() < 8 {
        return Err(short);
    }
    let count = u32::from_le_bytes(field(rest, 0, short)?) as usize;
    let table = 4 + count * 16;
    // The checkpoint word rides inside the CRC.
    let body = table + 4;
    if rest.len() != body + 4 {
        return Err(short);
    }
    let want = crc32(&rest[..body]);
    let seen = u32::from_le_bytes(field(rest, body, short)?);
    if seen != want {
        return Err(StoreError::ManifestCorrupt { seen, want });
    }
    let mut sealed = Vec::with_capacity(count);
    for i in 0..count {
        let e = 4 + i * 16;
        sealed.push(SealedSeg {
            seq: u32::from_le_bytes(field(rest, e, short)?),
            len: u64::from_le_bytes(field(rest, e + 4, short)?),
            records: u32::from_le_bytes(field(rest, e + 12, short)?),
        });
    }
    let checkpoint = u32::from_le_bytes(field(rest, table, short)?);
    Ok(Manifest { sealed, checkpoint })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips() {
        let rec = Record {
            epoch: 3,
            inc: 7,
            key: 42,
            payload: vec![9u8; 65],
        };
        let mut buf = Vec::new();
        encode_record_into(&rec, &mut buf);
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn header_roundtrips_and_rejects_wrong_magic() {
        let h = encode_header(SEGMENT_MAGIC);
        assert_eq!(decode_header(&h, SEGMENT_MAGIC), Ok(()));
        assert_eq!(decode_header(&h, MANIFEST_MAGIC), Err(StoreError::BadMagic));
    }

    #[test]
    fn manifest_roundtrips() {
        let sealed = vec![
            SealedSeg {
                seq: 0,
                len: 4096,
                records: 31,
            },
            SealedSeg {
                seq: 1,
                len: 4100,
                records: 32,
            },
        ];
        let bytes = encode_manifest(&sealed, 2);
        let m = decode_manifest(&bytes).unwrap();
        assert_eq!(m.sealed, sealed);
        assert_eq!(m.checkpoint, 2);
    }

    #[test]
    fn legacy_manifest_without_checkpoint_is_truncated() {
        // The pre-checkpoint layout: the entry table closed directly by
        // its CRC, four bytes shorter. Nothing writes it (the manifest
        // is only ever written whole or patched, both synced), so a file
        // of that length is a truncated manifest, and replay falls back
        // to scanning the segments themselves.
        use crate::disk::SimDisk;
        use crate::store::SegmentStore;
        use std::sync::Arc;
        let s = SegmentStore::with_limit(Arc::new(SimDisk::new()), "s0", 512);
        for key in 0..20 {
            s.append(&Record {
                epoch: 1,
                inc: 1,
                key,
                payload: vec![7; 48],
            });
        }
        s.barrier();
        let sealed = s.sealed();
        assert!(!sealed.is_empty(), "limit 512 must force seals");
        let mut legacy = encode_manifest(&sealed, 0);
        legacy.truncate(legacy.len() - 8);
        let crc = crc32(&legacy[HEADER_LEN..]);
        legacy.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_manifest(&legacy), Err(StoreError::ManifestTruncated));

        s.disk().write_sync("s0/manifest", &legacy);
        let mut keys = Vec::new();
        let replay = s.replay(|rec, _| keys.push(rec.key));
        assert!(!replay.manifest_ok);
        assert_eq!(keys, (0..20).collect::<Vec<_>>(), "full scan, nothing lost");
    }

    #[test]
    fn truncated_record_is_typed_not_panic() {
        let rec = Record {
            epoch: 1,
            inc: 1,
            key: 1,
            payload: vec![5; 40],
        };
        let mut buf = Vec::new();
        encode_record_into(&rec, &mut buf);
        for cut in 0..buf.len() {
            let err = decode_record(&buf[..cut]).unwrap_err();
            assert!(matches!(
                err,
                StoreError::RecordTruncated
                    | StoreError::RecordCorrupt { .. }
                    | StoreError::RecordOverrun { .. }
            ));
        }
    }
}
