//! In-memory simulated disk with explicit sync points.
//!
//! The durability contract mirrors a real file system's: `append` puts
//! bytes in the page cache, `sync` makes them crash-durable. A crash
//! tear ([`SimDisk::tear_tail`]) can drop any suffix of the *unsynced*
//! region of each file — never synced bytes. At-rest bit rot
//! ([`SimDisk::rot`]) ignores sync entirely: it models media decay and
//! may flip any bit on the disk. Both take a caller-owned [`SimRng`] so
//! fault draws live on dedicated streams and zero-knob plans replay
//! bit-identically.
//!
//! The disk lives in RAM, so a file body's spare capacity is memory
//! nobody wrote. A writer that is done with a file says so
//! ([`SimDisk::finish`]) and the body is held at exactly its length from
//! then on; only files still being appended to carry growth slack
//! ([`SimDisk::footprint_bytes`] counts both).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Mutex, MutexGuard};

use prism_simnet::rng::SimRng;

#[derive(Default)]
struct DiskFile {
    bytes: Vec<u8>,
    /// Bytes `[0, synced)` survive any crash; the tail past it may tear.
    synced: usize,
}

impl DiskFile {
    fn sync(&mut self) {
        self.synced = self.bytes.len();
    }

    fn truncate(&mut self, len: usize) {
        self.bytes.truncate(len);
        self.synced = self.synced.min(len);
    }
}

/// An open file of a [`SimDisk`]: what a name resolves to, so a writer
/// that keeps appending to one file pays the name lookup once. A handle
/// dies with [`SimDisk::remove`]; operations through a dead handle are
/// no-ops, exactly like operations on a missing name. Four bytes wide,
/// so a record's position on disk (file, offset, length) packs into
/// sixteen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileId(u32);

impl FileId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Default)]
struct Files {
    /// File bodies by [`FileId`]. A removed file leaves `None` and its
    /// index is never reused, so a stale handle cannot alias a newer
    /// file.
    slab: Vec<Option<DiskFile>>,
    /// Name to handle. Everything that visits "every file" walks this
    /// map, which is what keeps list, tear and rot in name order.
    by_name: BTreeMap<String, FileId>,
    bytes_written: u64,
}

impl Files {
    fn at(&mut self, id: FileId) -> Option<&mut DiskFile> {
        self.slab.get_mut(id.index())?.as_mut()
    }

    fn named(&mut self, name: &str) -> Option<&mut DiskFile> {
        let id = *self.by_name.get(name)?;
        self.at(id)
    }

    /// Resolves `name`, creating the file empty if needed.
    fn open(&mut self, name: &str) -> FileId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = FileId(u32::try_from(self.slab.len()).expect("fewer than 2^32 files ever"));
        self.slab.push(Some(DiskFile::default()));
        self.by_name.insert(name.to_string(), id);
        id
    }
}

/// A named-file in-memory disk. All operations are `&self`; a single
/// mutex guards the file table (the simulation is single-threaded, the
/// lock only satisfies `Sync`).
#[derive(Default)]
pub struct SimDisk {
    files: Mutex<Files>,
}

impl SimDisk {
    pub fn new() -> Self {
        SimDisk::default()
    }

    fn lock(&self) -> MutexGuard<'_, Files> {
        self.files
            .lock()
            .expect("a closure panicked under the disk lock")
    }

    /// Appends `data` to `name`, creating the file if needed. The new
    /// bytes are *not* durable until [`sync`](SimDisk::sync).
    pub fn append(&self, name: &str, data: &[u8]) {
        let mut files = self.lock();
        let id = files.open(name);
        let f = files.at(id).expect("just opened");
        f.bytes.extend_from_slice(data);
        files.bytes_written += data.len() as u64;
    }

    /// Appends `len` bytes to the open file `id` in place: `fill` gets
    /// the new (zeroed) tail to write into, so a caller can build a
    /// frame straight from its source with no staging buffer. Returning
    /// `false` from `fill` abandons the append and leaves the file as it
    /// was. Not durable until synced. `fill` runs under the disk lock
    /// and must not call back into this disk.
    pub fn append_with(
        &self,
        id: FileId,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> bool,
    ) -> bool {
        self.append_in(id, len, false, fill)
    }

    /// [`append_with`](SimDisk::append_with), then a
    /// [`sync_file`](SimDisk::sync_file) of the same file, under one
    /// lock: the durable append. An abandoned append syncs nothing.
    pub fn append_durable_with(
        &self,
        id: FileId,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> bool,
    ) -> bool {
        self.append_in(id, len, true, fill)
    }

    fn append_in(
        &self,
        id: FileId,
        len: usize,
        sync: bool,
        fill: impl FnOnce(&mut [u8]) -> bool,
    ) -> bool {
        let mut files = self.lock();
        let Some(f) = files.at(id) else {
            return false;
        };
        let old = f.bytes.len();
        f.bytes.resize(old + len, 0);
        if !fill(&mut f.bytes[old..]) {
            f.bytes.truncate(old);
            return false;
        }
        if sync {
            f.sync();
        }
        files.bytes_written += len as u64;
        true
    }

    /// Makes every byte of `name` crash-durable.
    pub fn sync(&self, name: &str) {
        if let Some(f) = self.lock().named(name) {
            f.sync();
        }
    }

    /// [`sync`](SimDisk::sync) through a handle.
    pub fn sync_file(&self, id: FileId) {
        if let Some(f) = self.lock().at(id) {
            f.sync();
        }
    }

    /// Finishes the open file: syncs it and gives back the spare
    /// capacity its growth left, so from here on it is held at exactly
    /// its length. The bytes, the handle and the name stay as they are;
    /// the file still rots, truncates and reads like any other, and an
    /// append to it (none is expected) simply grows it again.
    pub fn finish(&self, id: FileId) {
        if let Some(f) = self.lock().at(id) {
            f.sync();
            f.bytes.shrink_to_fit();
        }
    }

    /// Atomically replaces `name` with `data`, already durable — the
    /// write-temp-then-rename idiom collapsed to one step. Returns the
    /// file's handle (unchanged if the name already existed).
    pub fn write_sync(&self, name: &str, data: &[u8]) -> FileId {
        self.write_sync_reserving(name, data, 0)
    }

    /// [`write_sync`](SimDisk::write_sync) of a file that is about to
    /// grow: its body is allocated with room for at least `capacity`
    /// bytes, so appends up to that length never move it.
    pub fn write_sync_reserving(&self, name: &str, data: &[u8], capacity: usize) -> FileId {
        let mut files = self.lock();
        let id = files.open(name);
        let f = files.at(id).expect("just opened");
        f.bytes.clear();
        if capacity > f.bytes.capacity() {
            f.bytes.reserve_exact(capacity);
        }
        f.bytes.extend_from_slice(data);
        f.sync();
        files.bytes_written += data.len() as u64;
        id
    }

    /// Overwrites `data.len()` bytes of the open file at offset `off`
    /// (growing the file if the write runs past its end) and fsyncs it:
    /// pwrite + fsync. Unlike [`write_sync`](SimDisk::write_sync) this is
    /// not atomic as a whole — a file patched by several of these
    /// passes through states its reader must be able to reject.
    pub fn pwrite_sync(&self, id: FileId, off: usize, data: &[u8]) {
        let mut files = self.lock();
        let Some(f) = files.at(id) else {
            return;
        };
        let end = off + data.len();
        if f.bytes.len() < end {
            f.bytes.resize(end, 0);
        }
        f.bytes[off..end].copy_from_slice(data);
        f.sync();
        files.bytes_written += data.len() as u64;
    }

    pub fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.lock().named(name).map(|f| f.bytes.clone())
    }

    /// Runs `f` over the bytes of the open file without copying them.
    /// `f` runs under the disk lock and must not call back into this
    /// disk.
    pub fn with_bytes<R>(&self, id: FileId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        self.lock().at(id).map(|file| f(&file.bytes))
    }

    pub fn len(&self, name: &str) -> Option<usize> {
        self.lock().named(name).map(|f| f.bytes.len())
    }

    /// Length of the crash-durable prefix of `name`.
    pub fn synced(&self, name: &str) -> Option<usize> {
        self.lock().named(name).map(|f| f.synced)
    }

    pub fn is_empty(&self) -> bool {
        self.lock().by_name.is_empty()
    }

    /// Total bytes ever handed to this disk by appends and (p)writes —
    /// the write traffic, as opposed to the bytes still on it.
    pub fn bytes_written(&self) -> u64 {
        self.lock().bytes_written
    }

    /// Heap held by the file bodies, spare capacity included: what the
    /// disk costs in RAM, as opposed to the bytes on it. A
    /// [`finish`](SimDisk::finish)ed file counts its length and no more.
    pub fn footprint_bytes(&self) -> u64 {
        let files = self.lock();
        files
            .slab
            .iter()
            .flatten()
            .map(|f| f.bytes.capacity() as u64)
            .sum()
    }

    /// Truncates `name` to `len` bytes (used by replay to cut a torn or
    /// corrupt tail). The synced watermark is clamped alongside.
    pub fn truncate(&self, name: &str, len: usize) {
        if let Some(f) = self.lock().named(name) {
            f.truncate(len);
        }
    }

    /// [`truncate`](SimDisk::truncate) through a handle.
    pub fn truncate_file(&self, id: FileId, len: usize) {
        if let Some(f) = self.lock().at(id) {
            f.truncate(len);
        }
    }

    pub fn remove(&self, name: &str) {
        let mut files = self.lock();
        if let Some(id) = files.by_name.remove(name) {
            files.slab[id.index()] = None;
        }
    }

    /// Names of all files starting with `prefix`, in sorted order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut names = Vec::new();
        self.visit(prefix, |name, _| names.push(name.to_string()));
        names
    }

    /// Calls `f` with the name and handle of every file starting with
    /// `prefix`, in name order, without copying the names.
    pub fn visit(&self, prefix: &str, mut f: impl FnMut(&str, FileId)) {
        let files = self.lock();
        let from = (Bound::Included(prefix), Bound::Unbounded);
        for (name, &id) in files.by_name.range::<str, _>(from) {
            if !name.starts_with(prefix) {
                break;
            }
            f(name, id);
        }
    }

    /// Crash tear: for every file with an unsynced tail, drop a seeded
    /// suffix of that tail (at least one byte of it). Synced bytes are
    /// untouched. Returns the total bytes dropped. Files are visited in
    /// name order, so a given RNG stream tears deterministically.
    pub fn tear_tail(&self, rng: &mut SimRng) -> u64 {
        let mut files = self.lock();
        let Files { slab, by_name, .. } = &mut *files;
        let mut dropped = 0u64;
        for &id in by_name.values() {
            let f = slab[id.index()].as_mut().expect("named files are live");
            let unsynced = f.bytes.len() - f.synced;
            if unsynced == 0 {
                continue;
            }
            // Keep a seeded prefix of the unsynced region: the crash
            // caught the tail mid-write.
            let keep = rng.gen_range(unsynced as u64) as usize;
            dropped += (unsynced - keep) as u64;
            f.bytes.truncate(f.synced + keep);
            f.synced = f.synced.min(f.bytes.len());
        }
        dropped
    }

    /// At-rest bit rot: flips `bits` seeded bits anywhere on the disk
    /// (sync offers no protection against media decay). Returns the
    /// number of flips applied (0 if the disk is empty).
    pub fn rot(&self, rng: &mut SimRng, bits: u32) -> u32 {
        let mut files = self.lock();
        let Files { slab, by_name, .. } = &mut *files;
        let total: usize = slab.iter().flatten().map(|f| f.bytes.len()).sum();
        if total == 0 {
            return 0;
        }
        let mut applied = 0;
        for _ in 0..bits {
            let mut at = rng.gen_range(total as u64) as usize;
            let bit = rng.gen_range(8) as u8;
            for &id in by_name.values() {
                let f = slab[id.index()].as_mut().expect("named files are live");
                if at < f.bytes.len() {
                    f.bytes[at] ^= 1 << bit;
                    applied += 1;
                    break;
                }
                at -= f.bytes.len();
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tear_never_touches_synced_bytes() {
        let disk = SimDisk::new();
        disk.append("f", b"durable-part");
        disk.sync("f");
        disk.append("f", b"tail-at-risk");
        let mut rng = SimRng::new(7);
        let dropped = disk.tear_tail(&mut rng);
        assert!(dropped >= 1);
        let bytes = disk.read("f").unwrap();
        assert!(bytes.starts_with(b"durable-part"));
        assert!(bytes.len() < b"durable-part".len() + b"tail-at-risk".len());
    }

    #[test]
    fn tear_is_a_noop_on_fully_synced_files() {
        let disk = SimDisk::new();
        disk.append("f", b"all-synced");
        disk.sync("f");
        let mut rng = SimRng::new(7);
        assert_eq!(disk.tear_tail(&mut rng), 0);
        assert_eq!(disk.read("f").unwrap(), b"all-synced");
    }

    #[test]
    fn rot_flips_exactly_the_requested_bits() {
        let disk = SimDisk::new();
        disk.append("f", &[0u8; 64]);
        disk.sync("f");
        let mut rng = SimRng::new(9);
        assert_eq!(disk.rot(&mut rng, 3), 3);
        let ones: u32 = disk.read("f").unwrap().iter().map(|b| b.count_ones()).sum();
        assert!((1..=3).contains(&ones)); // flips may collide
    }

    #[test]
    fn handle_writes_land_in_the_named_file() {
        let disk = SimDisk::new();
        let id = disk.write_sync("f", b"head");
        assert!(disk.append_with(id, 4, |tail| {
            tail.copy_from_slice(b"tail");
            true
        }));
        assert_eq!(disk.read("f").unwrap(), b"headtail");
        assert_eq!(disk.synced("f"), Some(4), "appended bytes are unsynced");
        // An abandoned append leaves neither bytes nor write traffic.
        let before = disk.bytes_written();
        assert!(!disk.append_with(id, 9, |_| false));
        assert_eq!(disk.len("f"), Some(8));
        assert_eq!(disk.bytes_written(), before);
        // pwrite overwrites in place, may grow the file, and syncs it.
        disk.pwrite_sync(id, 6, b"LONG");
        assert_eq!(disk.read("f").unwrap(), b"headtaLONG");
        assert_eq!(disk.synced("f"), Some(10));
        assert_eq!(disk.bytes_written(), before + 4);
        // The handle dies with the file; a re-created name is a new file.
        disk.remove("f");
        assert!(!disk.append_with(id, 1, |_| true));
        assert_ne!(disk.write_sync("f", b"x"), id);
        assert_eq!(disk.read("f").unwrap(), b"x");
    }

    #[test]
    fn a_finished_file_is_held_at_its_length_and_stays_a_file() {
        let disk = SimDisk::new();
        let id = disk.write_sync("f", b"header");
        for _ in 0..5 {
            disk.append("f", b"frame");
        }
        let before = disk.read("f").unwrap();
        assert!(
            disk.footprint_bytes() > before.len() as u64,
            "growth left slack"
        );
        disk.finish(id);
        // Bytes, handle and name survive; the frontier covers the file.
        assert_eq!(disk.read("f").unwrap(), before);
        assert_eq!(disk.synced("f"), Some(before.len()));
        assert_eq!(disk.with_bytes(id, <[u8]>::to_vec), Some(before.clone()));
        assert_eq!(disk.list(""), ["f"]);
        assert_eq!(disk.footprint_bytes(), before.len() as u64);
        // Nothing in it is unsynced, so a tear leaves it alone.
        assert_eq!(disk.tear_tail(&mut SimRng::new(5)), 0);
        assert_eq!(disk.read("f").unwrap(), before);
        // It still rots and truncates like any other file, and it still
        // takes an append.
        assert_eq!(disk.rot(&mut SimRng::new(6), 1), 1);
        assert_ne!(disk.read("f").unwrap(), before);
        disk.truncate_file(id, 6);
        assert_eq!(disk.read("f").unwrap(), b"header");
        assert_eq!(disk.synced("f"), Some(6));
        disk.append("f", b"more");
        assert_eq!(disk.read("f").unwrap(), b"headermore");
        // Through a dead handle it is a no-op, like every handle call.
        disk.remove("f");
        disk.finish(id);
        assert_eq!(disk.read("f"), None);
        assert_eq!(disk.footprint_bytes(), 0);
    }

    #[test]
    fn visit_walks_a_prefix_in_name_order() {
        let disk = SimDisk::new();
        for name in ["b/2", "a/1", "b/1", "c/1", "b0"] {
            disk.append(name, b".");
        }
        assert_eq!(disk.list("b/"), ["b/1", "b/2"]);
        assert_eq!(disk.list(""), ["a/1", "b/1", "b/2", "b0", "c/1"]);
    }

    #[test]
    fn same_seed_tears_identically() {
        let run = |seed| {
            let disk = SimDisk::new();
            disk.append("a", &[1u8; 100]);
            disk.sync("a");
            disk.append("a", &[2u8; 50]);
            disk.append("b", &[3u8; 30]);
            let mut rng = SimRng::new(seed);
            disk.tear_tail(&mut rng);
            (disk.read("a").unwrap(), disk.read("b").unwrap())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
