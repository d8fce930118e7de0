//! The per-server segment store: append, barrier, replay.

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prism_core::crc::{Crc32, CrcShift};

use crate::disk::{FileId, SimDisk};
use crate::segment::{
    decode_header, decode_manifest, encode_header, encode_manifest, encode_record_in,
    encode_record_into, manifest_push, manifest_table_crc, view_record, Manifest, Record,
    RecordView, SealedSeg, FRAME_OVERHEAD, HEADER_LEN, PAYLOAD_OFFSET, SEGMENT_MAGIC,
};

/// Default segment size ceiling; an append past it seals the active
/// segment (sync + manifest update) and opens the next.
pub const DEFAULT_SEGMENT_LIMIT: usize = 8 * 1024;

/// Shared recovery counters, folded into `RunResult` by the harness.
/// Reset at the warmup/measure boundary alongside the integrity stats.
#[derive(Default)]
pub struct DurableStats {
    replayed: AtomicU64,
    delta_resynced: AtomicU64,
    segments_truncated: AtomicU64,
}

impl DurableStats {
    pub fn new() -> Self {
        DurableStats::default()
    }

    pub fn add_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_delta_resynced(&self, n: u64) {
        self.delta_resynced.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_segments_truncated(&self, n: u64) {
        self.segments_truncated.fetch_add(n, Ordering::Relaxed);
    }

    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    pub fn delta_resynced(&self) -> u64 {
        self.delta_resynced.load(Ordering::Relaxed)
    }

    pub fn segments_truncated(&self) -> u64 {
        self.segments_truncated.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.replayed.store(0, Ordering::Relaxed);
        self.delta_resynced.store(0, Ordering::Relaxed);
        self.segments_truncated.store(0, Ordering::Relaxed);
    }
}

/// Where the payload of a record that [`SegmentStore::replay`] visited
/// lies on disk: what a fold keeps per key in place of the bytes (16
/// bytes, and `Option` of it no more), and what
/// [`SegmentStore::with_payload`] turns back into them. Valid until the
/// store is next appended to, truncated, checkpointed or wiped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadRef {
    file: FileId,
    len: u32,
    /// Never zero: a payload lies past its segment's header.
    off: NonZeroU64,
}

/// What a [`SegmentStore::replay`] found on the local disk, beside the
/// records it handed its visitor.
#[derive(Debug, Default)]
pub struct Replay {
    /// Segments whose tail was cut (or whose header was unreadable) —
    /// at least one frame was torn or corrupt.
    pub segments_truncated: u64,
    /// Individual frames rejected by CRC/length validation.
    pub corrupt_frames: u64,
    /// False when the manifest itself failed to decode; replay then
    /// rebuilds it from the segment files found on disk.
    pub manifest_ok: bool,
    /// Sealed segments skipped wholesale because the manifest's
    /// checkpoint covers them — their records live in the checkpoint
    /// fold, so decoding them would be pure waste.
    pub segments_skipped: u64,
}

struct Inner {
    active_seq: u32,
    /// Open handle of the active segment, so the per-record path never
    /// formats or looks up its name.
    active: FileId,
    active_len: usize,
    active_records: u32,
    sealed: Vec<SealedSeg>,
    manifest: FileId,
    /// Running CRC of the manifest's entry table as it stands on disk;
    /// a seal continues from it instead of re-reading the table.
    table_crc: Crc32,
    /// Shift over the table and checkpoint after the count word
    /// (`4 + 16·count` bytes); a seal steps it by one entry instead of
    /// rebuilding it.
    table_shift: CrcShift,
    /// Segments below this sequence are covered by a checkpoint fold
    /// (see [`SegmentStore::checkpoint`]); replay skips decoding them.
    checkpoint: u32,
    /// The longest frame appended so far: a new segment is allocated
    /// with room for the limit plus one such frame, all it can reach.
    max_frame: usize,
}

fn segment_name(prefix: &str, seq: u32) -> String {
    format!("{prefix}/seg-{seq:06}.log")
}

fn manifest_name(prefix: &str) -> String {
    format!("{prefix}/manifest")
}

/// Creates segment `seq` holding only its header, with room for
/// `capacity` bytes. A segment is sealed by the append that takes it to
/// `limit` bytes or past, so it never exceeds the limit plus one frame:
/// reserved that, it is allocated once, and sealing trims it to its
/// length.
fn create_segment(disk: &SimDisk, prefix: &str, seq: u32, capacity: usize) -> FileId {
    // The header is written and synced up front, so a tear can only
    // cost record frames, never the file's identity.
    let header = encode_header(SEGMENT_MAGIC);
    disk.write_sync_reserving(&segment_name(prefix, seq), &header, capacity)
}

impl Inner {
    /// An empty store on `disk`: segment 0 and an empty manifest.
    /// `max_frame` carries over from the store this one replaces.
    fn open_empty(disk: &SimDisk, prefix: &str, limit: usize, max_frame: usize) -> Inner {
        let manifest = encode_manifest(&[], 0);
        let (table_crc, table_shift) = manifest_table_crc(&manifest);
        Inner {
            active_seq: 0,
            active: create_segment(disk, prefix, 0, limit + max_frame),
            active_len: HEADER_LEN,
            active_records: 0,
            sealed: Vec::new(),
            manifest: disk.write_sync(&manifest_name(prefix), &manifest),
            table_crc,
            table_shift,
            checkpoint: 0,
            max_frame,
        }
    }

    /// Writes the whole manifest from `sealed` and `checkpoint`. Only
    /// replay and checkpoint do this; a seal patches it in place.
    fn write_manifest(&mut self, disk: &SimDisk, prefix: &str) {
        let bytes = encode_manifest(&self.sealed, self.checkpoint);
        self.manifest = disk.write_sync(&manifest_name(prefix), &bytes);
        (self.table_crc, self.table_shift) = manifest_table_crc(&bytes);
    }
}

/// Append-only log of CRC-framed segments for one server, on a shared
/// [`SimDisk`]. Appends go to the active segment; once it passes the
/// size limit it is synced, recorded in the manifest, and a fresh
/// segment is opened. `barrier()` is the fsync point: everything
/// appended before it survives any crash tear.
pub struct SegmentStore {
    disk: Arc<SimDisk>,
    prefix: String,
    limit: usize,
    inner: Mutex<Inner>,
}

impl SegmentStore {
    pub fn new(disk: Arc<SimDisk>, prefix: &str) -> Self {
        SegmentStore::with_limit(disk, prefix, DEFAULT_SEGMENT_LIMIT)
    }

    pub fn with_limit(disk: Arc<SimDisk>, prefix: &str, limit: usize) -> Self {
        let inner = Inner::open_empty(&disk, prefix, limit, 0);
        SegmentStore {
            disk,
            prefix: prefix.to_string(),
            limit,
            inner: Mutex::new(inner),
        }
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    /// Appends one record to the active segment (not yet durable; see
    /// [`barrier`](SegmentStore::barrier)). Seals the segment and opens
    /// the next when the size limit is passed.
    pub fn append(&self, rec: &Record) {
        self.append_with(rec.epoch, rec.inc, rec.key, rec.payload.len(), |p| {
            p.copy_from_slice(&rec.payload);
            true
        });
    }

    /// [`append`](SegmentStore::append) without a staged [`Record`]: the
    /// frame is built in the segment's own tail and `fill` writes the
    /// `payload_len` payload bytes straight into it (from an arena, say).
    /// `fill` returning `false` abandons the record — nothing is logged.
    /// `fill` must not call back into this store or its disk.
    pub fn append_with(
        &self,
        epoch: u64,
        inc: u64,
        key: u64,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]) -> bool,
    ) -> bool {
        self.append_frame(epoch, inc, key, payload_len, false, fill)
    }

    /// [`append_with`](SegmentStore::append_with) followed by a
    /// [`barrier`](SegmentStore::barrier), in one critical section: one
    /// store lock and one disk lock for the record and its sync. The
    /// files and their synced lengths come out exactly as the two calls
    /// leave them. An abandoned record syncs nothing.
    pub fn append_durable_with(
        &self,
        epoch: u64,
        inc: u64,
        key: u64,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]) -> bool,
    ) -> bool {
        self.append_frame(epoch, inc, key, payload_len, true, fill)
    }

    fn append_frame(
        &self,
        epoch: u64,
        inc: u64,
        key: u64,
        payload_len: usize,
        durable: bool,
        fill: impl FnOnce(&mut [u8]) -> bool,
    ) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let frame_len = FRAME_OVERHEAD + payload_len;
        let encode = |frame: &mut [u8]| encode_record_in(frame, epoch, inc, key, fill);
        let logged = if durable {
            self.disk
                .append_durable_with(inner.active, frame_len, encode)
        } else {
            self.disk.append_with(inner.active, frame_len, encode)
        };
        if !logged {
            return false;
        }
        inner.active_len += frame_len;
        inner.active_records += 1;
        inner.max_frame = inner.max_frame.max(frame_len);
        if inner.active_len >= self.limit {
            self.seal(&mut inner);
        }
        true
    }

    /// Seals the active segment (finished: synced and held at its
    /// length; manifest entry) and opens the next. The manifest is
    /// patched in place — count word, then the new entry over the old
    /// tail — so a seal costs the same however long the log is, and the
    /// file still equals `encode_manifest` of the table byte for byte.
    /// Between the two writes the manifest fails its CRC, which replay
    /// treats as "no manifest": the segment files are the truth and a
    /// full scan rebuilds it.
    fn seal(&self, inner: &mut Inner) {
        self.disk.finish(inner.active);
        let entry = SealedSeg {
            seq: inner.active_seq,
            len: inner.active_len as u64,
            records: inner.active_records,
        };
        inner.sealed.push(entry);
        let patch = manifest_push(
            &mut inner.table_crc,
            &mut inner.table_shift,
            inner.sealed.len() as u32,
            &entry,
            inner.checkpoint,
        );
        for (off, bytes) in patch.writes() {
            self.disk.pwrite_sync(inner.manifest, off, bytes);
        }
        inner.active_seq += 1;
        inner.active_len = HEADER_LEN;
        inner.active_records = 0;
        inner.active = self.create_segment(inner.active_seq, inner.max_frame);
    }

    /// A new, empty segment `seq`, sized for this store's limit.
    fn create_segment(&self, seq: u32, max_frame: usize) -> FileId {
        create_segment(&self.disk, &self.prefix, seq, self.limit + max_frame)
    }

    /// Fsync barrier: every record appended so far survives crash tears.
    pub fn barrier(&self) {
        let inner = self.inner.lock().unwrap();
        self.disk.sync_file(inner.active);
    }

    /// Replays the log from disk after an amnesia restart, streaming
    /// every valid record to `visit` in append order. Later records for
    /// the same key supersede earlier ones; the last-wins fold is the
    /// visitor's.
    ///
    /// The record's payload is lent from the disk's own bytes — nothing
    /// is copied — and comes with a [`PayloadRef`], so a fold can keep
    /// sixteen bytes per key and read the winners back through
    /// [`with_payload`](SegmentStore::with_payload) once the scan is
    /// over. `visit` runs under the store's and the disk's locks and
    /// must not call back into either.
    ///
    /// Segments are scanned in sequence order. Within each, decoding
    /// stops at the first torn or corrupt frame and the tail past the
    /// last good frame is physically truncated; a segment whose header
    /// is damaged is dropped wholly (reset to an empty header). The
    /// manifest is consulted as a cross-check only — when it is
    /// unreadable the segment files on disk are the source of truth —
    /// and is rebuilt afterwards to match what actually survived, so
    /// the next replay starts clean. Appends continue in the last
    /// surviving segment.
    pub fn replay(&self, mut visit: impl FnMut(RecordView<'_>, PayloadRef)) -> Replay {
        let mut inner = self.inner.lock().unwrap();
        let manifest: Option<Manifest> = self
            .disk
            .with_bytes(inner.manifest, |b| decode_manifest(b).ok())
            .flatten();
        let mut out = Replay {
            manifest_ok: manifest.is_some(),
            ..Replay::default()
        };
        // The checkpoint watermark is only trusted from an intact
        // manifest: with the manifest gone, everything is rescanned
        // (the fold supersedes covered records under last-wins anyway,
        // so a full scan is slower, never wrong).
        let manifest = manifest.unwrap_or_default();
        // Sequence order is the parsed number's, not the name's: past
        // six digits `seg-1000000` sorts before `seg-999999`, and
        // last-record-wins would replay stale data over fresh.
        let seg_prefix = format!("{}/seg-", self.prefix);
        let mut segments: Vec<(u32, FileId)> = Vec::new();
        self.disk.visit(&seg_prefix, |name, id| {
            let seq = name[seg_prefix.len()..]
                .strip_suffix(".log")
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(segments.len() as u32);
            segments.push((seq, id));
        });
        segments.sort_by_key(|&(seq, _)| seq);
        let mut survivors: Vec<SealedSeg> = Vec::new();
        for &(seq, id) in &segments {
            if seq < manifest.checkpoint {
                // The manifest lists segments in sequence order.
                if let Ok(i) = manifest.sealed.binary_search_by_key(&seq, |e| e.seq) {
                    // Covered by the checkpoint fold: skip decoding.
                    out.segments_skipped += 1;
                    survivors.push(manifest.sealed[i]);
                    continue;
                }
                // A covered segment the manifest does not list (it
                // should): fall through to the full scan.
            }
            // Decode under the disk's borrow; what the scan found is
            // acted on (truncate, reset) once the borrow is released.
            let scan = self.disk.with_bytes(id, |bytes| {
                decode_header(bytes, SEGMENT_MAGIC).ok()?;
                let mut off = HEADER_LEN;
                let mut records = 0u32;
                while off < bytes.len() {
                    match view_record(&bytes[off..]) {
                        Ok((rec, used)) => {
                            let at = PayloadRef {
                                file: id,
                                len: rec.payload.len() as u32, // <= MAX_PAYLOAD
                                off: NonZeroU64::new((off + PAYLOAD_OFFSET) as u64)
                                    .expect("past the header"),
                            };
                            visit(rec, at);
                            off += used;
                            records += 1;
                        }
                        Err(_e) => return Some((off, records, true)),
                    }
                }
                Some((off, records, false))
            });
            let Some(Some((len, records, torn))) = scan else {
                // Unreadable identity: nothing in this segment can be
                // trusted. Reset it to an empty, well-formed segment.
                out.segments_truncated += 1;
                out.corrupt_frames += 1;
                self.create_segment(seq, inner.max_frame);
                survivors.push(SealedSeg {
                    seq,
                    len: HEADER_LEN as u64,
                    records: 0,
                });
                continue;
            };
            if torn {
                // First bad frame: cut the tail, keep the prefix.
                // Anything lost here is healed from replicas by the
                // delta resync.
                out.corrupt_frames += 1;
                out.segments_truncated += 1;
                self.disk.truncate_file(id, len);
            }
            survivors.push(SealedSeg {
                seq,
                len: len as u64,
                records,
            });
        }
        // Rebuild bookkeeping from the survivors: all but the last are
        // sealed (finished, so one cut short is held at its new length),
        // the last becomes the active segment again.
        if let Some((&(_, last), sealed)) = segments.split_last() {
            for &(_, id) in sealed {
                self.disk.finish(id);
            }
            self.disk.sync_file(last);
        }
        let active = survivors.pop().unwrap_or(SealedSeg {
            seq: 0,
            len: HEADER_LEN as u64,
            records: 0,
        });
        inner.active = match segments.last() {
            Some(&(_, id)) => id,
            None => self.create_segment(active.seq, inner.max_frame),
        };
        inner.active_seq = active.seq;
        inner.active_len = active.len as usize;
        inner.active_records = active.records;
        inner.sealed = survivors;
        inner.checkpoint = manifest.checkpoint;
        inner.write_manifest(&self.disk, &self.prefix);
        out
    }

    /// Lends `f` the payload `at` refers to, in place on the disk.
    /// `None` when the bytes are no longer there (the handle outlived
    /// its validity and the file shrank or went away). `f` runs under
    /// the disk lock and must not call back into the store or the disk.
    pub fn with_payload<R>(&self, at: PayloadRef, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.disk
            .with_bytes(at.file, |bytes| {
                let start = usize::try_from(at.off.get()).ok()?;
                let end = start.checked_add(at.len as usize)?;
                bytes.get(start..end).map(f)
            })
            .flatten()
    }

    /// Takes a checkpoint: seals the active segment, writes `fold` —
    /// the caller's compact full-state image (latest record per live
    /// key) — into a fresh segment, syncs it, and only then advances
    /// the manifest's checkpoint watermark past every older segment.
    /// From then on [`SegmentStore::replay`] skips decoding the covered
    /// segments entirely: the fold supersedes their records under the
    /// last-wins fold, so replay cost is bounded by live state plus the
    /// appends since the last checkpoint instead of log history. The
    /// ordering makes the cut crash-safe — a crash before the manifest
    /// write leaves the old watermark and a full (correct) replay; rot
    /// inside the fold is caught by the frame CRCs and healed from
    /// replicas like any other damaged segment.
    pub fn checkpoint(&self, fold: &[Record]) {
        let mut inner = self.inner.lock().unwrap();
        // Seal the active segment as-is.
        self.disk.finish(inner.active);
        let sealed = SealedSeg {
            seq: inner.active_seq,
            len: inner.active_len as u64,
            records: inner.active_records,
        };
        inner.sealed.push(sealed);
        // Write the fold into the next segment, durable in one step.
        let seq = inner.active_seq + 1;
        let mut bytes = encode_header(SEGMENT_MAGIC).to_vec();
        for rec in fold {
            encode_record_into(rec, &mut bytes);
        }
        inner.active = self
            .disk
            .write_sync(&segment_name(&self.prefix, seq), &bytes);
        inner.active_seq = seq;
        inner.active_len = bytes.len();
        inner.active_records = fold.len() as u32;
        inner.checkpoint = seq;
        inner.write_manifest(&self.disk, &self.prefix);
    }

    /// Drops every file of this store and reopens it empty — the
    /// fresh-replica (no local disk) baseline.
    pub fn wipe(&self) {
        let mut inner = self.inner.lock().unwrap();
        for name in self.disk.list(&format!("{}/", self.prefix)) {
            self.disk.remove(&name);
        }
        *inner = Inner::open_empty(&self.disk, &self.prefix, self.limit, inner.max_frame);
    }

    /// Sealed-segment manifest as currently tracked (for tests).
    pub fn sealed(&self) -> Vec<SealedSeg> {
        self.inner.lock().unwrap().sealed.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_simnet::rng::SimRng;

    fn rec(key: u64, fill: u8) -> Record {
        Record {
            epoch: 1,
            inc: 1,
            key,
            payload: vec![fill; 48],
        }
    }

    fn store() -> SegmentStore {
        SegmentStore::with_limit(Arc::new(SimDisk::new()), "s0", 512)
    }

    /// Replays `s` and copies out every record it yields, in order.
    fn collect(s: &SegmentStore) -> (Replay, Vec<Record>) {
        let mut records = Vec::new();
        let replay = s.replay(|rec, _| records.push(rec.to_record()));
        (replay, records)
    }

    #[test]
    fn append_replay_roundtrips_across_seals() {
        let s = store();
        for i in 0..40 {
            s.append(&rec(i, i as u8));
        }
        s.barrier();
        assert!(!s.sealed().is_empty(), "limit 512 must force seals");
        let (replay, records) = collect(&s);
        assert_eq!(records.len(), 40);
        assert_eq!(replay.segments_truncated, 0);
        assert!(replay.manifest_ok);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.key, i as u64);
        }
    }

    /// Every file of `disk`: name, synced length and bytes.
    fn files(disk: &SimDisk) -> Vec<(String, usize, Vec<u8>)> {
        let file = |name: String| {
            let synced = disk.synced(&name).unwrap();
            let bytes = disk.read(&name).unwrap();
            (name, synced, bytes)
        };
        disk.list("").into_iter().map(file).collect()
    }

    /// The one-lock durable append leaves every file, and every file's
    /// synced length, exactly as `append_with` then `barrier` does, over
    /// a seeded stream of durable, plain and abandoned records that
    /// crosses several seals, with crash tears and replays along the way.
    #[test]
    fn durable_append_equals_append_then_barrier() {
        let (one, two) = (store(), store());
        let (mut rng, mut torn) = (SimRng::new(0xD0AB), 0);
        for i in 0..160u64 {
            if i % 40 == 39 {
                // A plain record last, so there is likely a tail to tear.
                one.append(&rec(i, 0));
                two.append(&rec(i, 0));
                let (mut a, mut b) = (SimRng::new(i), SimRng::new(i));
                let dropped = one.disk().tear_tail(&mut a);
                assert_eq!(two.disk().tear_tail(&mut b), dropped);
                assert_eq!(collect(&one).1, collect(&two).1);
                torn += dropped;
            }
            let payload = vec![i as u8; rng.gen_range(100) as usize];
            let kind = rng.gen_range(4);
            let fill = |p: &mut [u8]| {
                p.copy_from_slice(&payload);
                kind != 3
            };
            let len = payload.len();
            if kind < 2 {
                let logged = one.append_durable_with(1, 2, i, len, fill);
                if two.append_with(1, 2, i, len, fill) {
                    two.barrier();
                }
                assert_eq!(logged, kind != 3);
            } else {
                // Plain (unsynced) and abandoned records, alike on both.
                one.append_with(1, 2, i, len, fill);
                two.append_with(1, 2, i, len, fill);
            }
            assert!(files(one.disk()) == files(two.disk()), "record {i}");
        }
        assert!(torn > 0, "a tear cut a tail");
        assert!(one.sealed().len() >= 8, "the stream crosses seals");
    }

    #[test]
    fn torn_tail_is_truncated_and_synced_prefix_survives() {
        // Large limit: no seal (which would sync) before the tear.
        let s = SegmentStore::with_limit(Arc::new(SimDisk::new()), "s0", 4096);
        for i in 0..4 {
            s.append(&rec(i, 7));
        }
        s.barrier();
        for i in 4..7 {
            s.append(&rec(i, 8));
        }
        // No barrier: records 4..7 ride in the unsynced tail.
        let mut rng = SimRng::new(3);
        assert!(s.disk().tear_tail(&mut rng) > 0);
        let (replay, records) = collect(&s);
        assert!(replay.segments_truncated > 0, "the tear is noticed");
        assert!(records.len() >= 4, "synced records must survive");
        assert!(records.len() < 7, "the tear must cost something");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.key, i as u64, "surviving prefix is in order");
        }
        // A second replay of the truncated log is clean and identical.
        let (again, same) = collect(&s);
        assert_eq!(same, records);
        assert_eq!(again.segments_truncated, 0);
    }

    #[test]
    fn rotted_frame_is_detected_never_misread() {
        let s = store();
        for i in 0..10 {
            s.append(&rec(i, 9));
        }
        s.barrier();
        let mut rng = SimRng::new(11);
        s.disk().rot(&mut rng, 4);
        let (_, records) = collect(&s);
        // Whatever survives decodes exactly as written (CRC passed);
        // damaged frames only ever shorten the result.
        for r in &records {
            assert_eq!(r.payload, vec![9u8; 48]);
        }
        assert!(records.len() <= 10);
    }

    #[test]
    fn payload_refs_lead_back_to_the_visited_bytes() {
        let s = store();
        for i in 0..40 {
            s.append(&rec(i, i as u8));
        }
        s.append(&Record {
            payload: Vec::new(),
            ..rec(40, 0)
        });
        s.barrier();
        assert_eq!(
            std::mem::size_of::<Option<PayloadRef>>(),
            16,
            "a fold keeps one of these per key"
        );
        let mut seen: Vec<(Vec<u8>, PayloadRef)> = Vec::new();
        s.replay(|rec, at| seen.push((rec.payload.to_vec(), at)));
        assert_eq!(seen.len(), 41);
        for (payload, at) in &seen {
            assert_eq!(s.with_payload(*at, |p| p.to_vec()).as_ref(), Some(payload));
        }
        // Once the bytes are gone the handle says so instead of lending
        // whatever took their place.
        s.wipe();
        let (_, last) = seen[39];
        assert_eq!(s.with_payload(last, |p| p.len()), None);
    }

    #[test]
    fn appends_continue_after_replay() {
        let s = store();
        for i in 0..5 {
            s.append(&rec(i, 1));
        }
        s.barrier();
        s.replay(|_, _| {});
        for i in 5..10 {
            s.append(&rec(i, 2));
        }
        s.barrier();
        assert_eq!(collect(&s).1.len(), 10);
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_state() {
        let s = store();
        for i in 0..40 {
            s.append(&rec(i % 8, i as u8));
        }
        s.barrier();
        let (full, full_records) = collect(&s);
        assert_eq!(full_records.len(), 40);
        assert_eq!(full.segments_skipped, 0);
        // Fold: latest record per key (what a caller would checkpoint).
        let mut latest: std::collections::BTreeMap<u64, Record> = Default::default();
        for r in &full_records {
            latest.insert(r.key, r.clone());
        }
        let fold: Vec<Record> = latest.into_values().collect();
        s.checkpoint(&fold);
        let (after, after_records) = collect(&s);
        assert!(
            after.segments_skipped > 0,
            "covered segments must be skipped"
        );
        assert_eq!(
            after_records.len(),
            fold.len(),
            "replay decodes only the fold, not the covered history"
        );
        // The fold carries the same final state the full log did.
        let mut from_fold: std::collections::BTreeMap<u64, &Record> = Default::default();
        for r in &after_records {
            from_fold.insert(r.key, r);
        }
        for r in &full_records {
            assert_eq!(from_fold[&r.key].payload.len(), r.payload.len());
        }
        // Appends continue past the checkpoint and replay picks them up.
        s.append(&rec(100, 5));
        s.barrier();
        let (more, more_records) = collect(&s);
        assert_eq!(more_records.len(), fold.len() + 1);
        assert!(more.segments_skipped >= after.segments_skipped);
    }

    #[test]
    fn lost_manifest_falls_back_to_full_scan_not_data_loss() {
        let s = store();
        for i in 0..30 {
            s.append(&rec(i, 1));
        }
        s.barrier();
        let fold = collect(&s).1;
        s.checkpoint(&fold);
        // Destroy the manifest: the checkpoint watermark is gone, so
        // replay rescans everything — slower, but the last-wins fold
        // still lands on the same state because the fold segment sorts
        // after every covered segment.
        s.disk().remove(&format!("{}/manifest", "s0"));
        let (r, records) = collect(&s);
        assert!(!r.manifest_ok);
        assert_eq!(r.segments_skipped, 0, "no manifest, no skipping");
        assert!(
            records.len() >= 2 * fold.len(),
            "full history rescanned ({} records)",
            records.len()
        );
    }

    #[test]
    fn replay_orders_segments_by_sequence_not_by_name() {
        // Past six digits the names stop sorting numerically:
        // "seg-1000000.log" < "seg-999999.log". Hand-place both with
        // conflicting records for one key; last-record-wins must land
        // on the higher sequence.
        let s = store();
        let disk = Arc::clone(s.disk());
        disk.remove("s0/seg-000000.log");
        for (seq, fill) in [(999_999u32, 1u8), (1_000_000, 2)] {
            let mut bytes = encode_header(SEGMENT_MAGIC).to_vec();
            encode_record_into(&rec(7, fill), &mut bytes);
            disk.write_sync(&format!("s0/seg-{seq:06}.log"), &bytes);
        }
        assert_eq!(
            disk.list("s0/seg-"),
            ["s0/seg-1000000.log", "s0/seg-999999.log"],
            "the name order really is the wrong order"
        );
        let fills =
            |s: &SegmentStore| -> Vec<u8> { collect(s).1.iter().map(|r| r.payload[0]).collect() };
        assert_eq!(fills(&s), [1, 2], "older sequence first, newer wins");
        // Bookkeeping follows: 999999 is sealed, 1000000 takes appends.
        assert_eq!(s.sealed().len(), 1);
        assert_eq!(s.sealed()[0].seq, 999_999);
        s.append(&rec(7, 3));
        s.barrier();
        assert_eq!(fills(&s), [1, 2, 3]);
    }

    #[test]
    fn wipe_leaves_an_empty_openable_store() {
        let s = store();
        for i in 0..20 {
            s.append(&rec(i, 3));
        }
        s.barrier();
        s.wipe();
        let (replay, records) = collect(&s);
        assert!(records.is_empty());
        assert_eq!(replay.segments_truncated, 0);
        s.append(&rec(0, 4));
        s.barrier();
        assert_eq!(collect(&s).1.len(), 1);
    }
}
