//! The simulated host memory: a flat byte buffer with cache-line
//! granularity seqlocks.
//!
//! The arena reproduces the memory semantics the PRISM protocols depend
//! on (§6.1, §7.3 of the paper):
//!
//! * accesses that fit within one 64-byte cache line are single-copy
//!   atomic — an indirect read of a hash-table slot "is guaranteed to read
//!   a well-formed address \[because\] addresses fit within a cache line";
//! * larger transfers are performed line by line, so a reader concurrent
//!   with a writer may observe a *torn* value across lines — exactly why
//!   the protocols use write-once out-of-place buffers;
//! * atomics (up to 32 bytes, §3.3) lock the seqlock groups they cover in
//!   a global (stripe-index) order and are therefore atomic with respect
//!   to every other arena access, matching "atomic with respect to other
//!   PRISM operations".
//!
//! # Fast-path design
//!
//! Storage is one flat `Vec<AtomicU64>` (8 little-endian bytes per word,
//! 8 words per line) instead of the original `Vec<RwLock<[u8; 64]>>`:
//! no per-line allocation, no pthread lock per line touched, and byte
//! overhead within a few percent of capacity (asserted by a test).
//! Coherence is provided by *striped per-line seqlocks*, hand-rolled on
//! `std::sync::atomic` (the workspace has no registry dependencies):
//!
//! * **readers** are optimistic and lock-free — load the span's sequence
//!   (spin while odd), copy the words, and retry if the sequence moved;
//! * **writers** acquire the span's stripe by CAS-ing the sequence from
//!   even to odd, store the words, and release with `seq + 2`;
//! * **atomics** write-acquire the one or two stripes covering the
//!   operand in ascending stripe order (deadlock-free) so the
//!   read-modify-write excludes every reader and writer of those lines.
//!
//! One seqlock covers a [`GROUP`]-byte group of eight consecutive lines,
//! amortizing the lock acquisition of multi-line transfers (one CAS per
//! 512 bytes instead of per 64). This only *strengthens* atomicity —
//! transfers tear at group boundaries, which are line boundaries, so the
//! per-line single-copy guarantee is unchanged — while keeping the
//! contention unit small. Groups map to stripes (`group & mask`); arenas
//! up to `MAX_STRIPES` groups get exactly one stripe per group, larger
//! arenas share stripes (a false conflict costs one retry, never
//! correctness).
//!
//! On Linux the word buffer's whole 2 MiB pages are advised as huge
//! pages (`madvise(MADV_HUGEPAGE)`) before any word is touched, so a
//! store of a few hundred MB is mapped by hundreds of TLB entries, not
//! tens of thousands. An arena too small to hold one such page is left
//! as allocated.
//!
//! Addresses are virtual: the arena starts at [`MemoryArena::BASE`] so
//! that 0 can serve as a null pointer in application data structures.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use crate::error::RdmaError;

/// Cache-line size: the single-copy atomicity granularity.
pub const LINE: usize = 64;

/// Words per cache line (`AtomicU64` granules).
const WORDS_PER_LINE: usize = LINE / 8;

/// Bytes covered by one seqlock: eight consecutive lines. Transfers
/// tear only at group boundaries (which are line boundaries), so the
/// per-line single-copy atomicity contract is preserved while multi-line
/// transfers pay one lock acquisition per group.
pub const GROUP: usize = 8 * LINE;

/// Upper bound on the seqlock stripe table (16 KB of `AtomicU32`s).
const MAX_STRIPES: usize = 4096;

/// The most one [`MemoryArena::prefetch`] asks for: 1 KiB, which covers
/// every value the protocols store (a PRISM-KV entry is 576 bytes) and
/// keeps a hint for a huge in-bounds span bounded work. The hardware's
/// own streamer follows on from there.
const PREFETCH_MAX: usize = 16 * LINE;

/// Byte-addressable simulated host memory.
///
/// Cloneable handles are obtained by wrapping in `Arc`; all methods take
/// `&self` and are safe for concurrent use from many threads.
pub struct MemoryArena {
    /// Flat storage: `len / 8` words, little-endian bytes.
    words: Vec<AtomicU64>,
    /// Striped per-group seqlocks; even = stable, odd = write in flight.
    seqs: Vec<AtomicU32>,
    /// Maps a group index to its stripe: `group & stripe_mask`.
    stripe_mask: usize,
    len: u64,
}

impl MemoryArena {
    /// The lowest valid arena address. Nonzero so applications can use 0
    /// as a null pointer.
    pub const BASE: u64 = 0x1_0000;

    /// Creates an arena of `len` bytes, rounded up to whole cache lines,
    /// zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: u64) -> Self {
        assert!(len > 0, "MemoryArena::new: zero length");
        let nlines = len.div_ceil(LINE as u64) as usize;
        let nwords = nlines * WORDS_PER_LINE;
        let words: Vec<AtomicU64> = (0..nwords).map(|_| AtomicU64::new(0)).collect();
        advise_huge_pages(&words);
        let ngroups = (nlines * LINE).div_ceil(GROUP);
        let stripes = ngroups.next_power_of_two().min(MAX_STRIPES);
        let seqs = (0..stripes).map(|_| AtomicU32::new(0)).collect();
        MemoryArena {
            words,
            seqs,
            stripe_mask: stripes - 1,
            len: nlines as u64 * LINE as u64,
        }
    }

    /// Total capacity in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the arena has zero capacity (never true; see [`MemoryArena::new`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the highest valid address.
    pub fn end(&self) -> u64 {
        Self::BASE + self.len
    }

    /// Approximate heap + struct footprint in bytes: the flat word
    /// buffer, the seqlock stripe table, and the handle itself. Exposed
    /// so tests can pin the overhead of the layout (< 5% beyond
    /// capacity, vs ~3× for the old lock-per-line arena).
    pub fn footprint_bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<AtomicU64>()
            + self.seqs.capacity() * std::mem::size_of::<AtomicU32>()
            + std::mem::size_of::<Self>()) as u64
    }

    fn check(&self, addr: u64, len: u64) -> Result<(), RdmaError> {
        if addr < Self::BASE || addr.saturating_add(len) > self.end() {
            return Err(RdmaError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// A snapshot of every stripe's seqlock sequence. A sequence moves
    /// exactly when a write or an atomic takes its stripe, so equal
    /// snapshots on either side of a call show that it took none —
    /// how the property tests hold hints ([`MemoryArena::prefetch`],
    /// [`MemoryArena::peek_u64`]) and the zero-skipping
    /// [`MemoryArena::wipe`] to their word.
    pub fn stripe_sequences(&self) -> Vec<u32> {
        self.seqs
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    #[inline]
    fn seq_for(&self, group: usize) -> &AtomicU32 {
        &self.seqs[group & self.stripe_mask]
    }

    /// Copies `out.len()` bytes starting at byte offset `off` (which must
    /// stay within one line) out of the word buffer. Caller is the
    /// seqlock read protocol; loads are relaxed and validated afterwards.
    #[inline]
    fn copy_out(&self, off: usize, out: &mut [u8]) {
        if off.is_multiple_of(8) {
            // Word-aligned fast path: one load per word, no per-byte
            // offset arithmetic. This is the shape of every line-sized
            // transfer, so it dominates READ throughput. The zip keeps
            // the loop free of bounds checks.
            let words = &self.words[off / 8..off / 8 + out.len().div_ceil(8)];
            let mut chunks = out.chunks_exact_mut(8);
            for (chunk, w) in (&mut chunks).zip(words) {
                chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let bytes = words[words.len() - 1].load(Ordering::Relaxed).to_le_bytes();
                rem.copy_from_slice(&bytes[..rem.len()]);
            }
            return;
        }
        let mut off = off;
        let mut i = 0;
        while i < out.len() {
            let wi = off / 8;
            let in_word = off % 8;
            let n = (8 - in_word).min(out.len() - i);
            let bytes = self.words[wi].load(Ordering::Relaxed).to_le_bytes();
            out[i..i + n].copy_from_slice(&bytes[in_word..in_word + n]);
            i += n;
            off += n;
        }
    }

    /// Stores `data` at byte offset `off` (within one line). Caller must
    /// hold the line's stripe; partial words read-modify-write safely
    /// because the lock excludes every other writer of the line.
    #[inline]
    fn copy_in(&self, off: usize, data: &[u8]) {
        if off.is_multiple_of(8) {
            // Word-aligned fast path, mirroring `copy_out`.
            let words = &self.words[off / 8..off / 8 + data.len().div_ceil(8)];
            let mut chunks = data.chunks_exact(8);
            for (chunk, w) in (&mut chunks).zip(words) {
                w.store(
                    u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
                    Ordering::Relaxed,
                );
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let w = &words[words.len() - 1];
                let mut bytes = w.load(Ordering::Relaxed).to_le_bytes();
                bytes[..rem.len()].copy_from_slice(rem);
                w.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            }
            return;
        }
        let mut off = off;
        let mut i = 0;
        while i < data.len() {
            let wi = off / 8;
            let in_word = off % 8;
            let n = (8 - in_word).min(data.len() - i);
            let w = &self.words[wi];
            if n == 8 {
                w.store(
                    u64::from_le_bytes(data[i..i + 8].try_into().expect("8 bytes")),
                    Ordering::Relaxed,
                );
            } else {
                let mut bytes = w.load(Ordering::Relaxed).to_le_bytes();
                bytes[in_word..in_word + n].copy_from_slice(&data[i..i + n]);
                w.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
            }
            i += n;
            off += n;
        }
    }

    /// Seqlock read of one group's span: optimistic, retried until a
    /// stable (even, unchanged) sequence brackets the copy.
    #[inline]
    fn group_read(&self, group: usize, off: usize, out: &mut [u8]) {
        let seq = self.seq_for(group);
        loop {
            let s1 = seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                self.copy_out(off, out);
                fence(Ordering::Acquire);
                if seq.load(Ordering::Relaxed) == s1 {
                    return;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Write-acquires a stripe: CAS its sequence from even to odd.
    #[inline]
    fn lock(seq: &AtomicU32) -> u32 {
        loop {
            let s = seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && seq
                    .compare_exchange_weak(
                        s,
                        s.wrapping_add(1),
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    /// Releases a stripe locked at sequence `s`.
    #[inline]
    fn unlock(seq: &AtomicU32, s: u32) {
        seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Seqlock write of one group's span.
    #[inline]
    fn group_write(&self, group: usize, off: usize, data: &[u8]) {
        let seq = self.seq_for(group);
        let s = Self::lock(seq);
        self.copy_in(off, data);
        Self::unlock(seq, s);
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// The read is performed line by line: it is atomic within each cache
    /// line but may observe a concurrent writer's partial update across
    /// lines (a torn read), as on real hardware.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) -> Result<(), RdmaError> {
        self.check(addr, buf.len() as u64)?;
        let mut off = (addr - Self::BASE) as usize;
        let mut filled = 0;
        while filled < buf.len() {
            let in_group = off % GROUP;
            let n = (GROUP - in_group).min(buf.len() - filled);
            self.group_read(off / GROUP, off, &mut buf[filled..filled + n]);
            filled += n;
            off += n;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh buffer. Hot
    /// paths should prefer [`MemoryArena::read_into`] with a reused
    /// buffer; this wrapper allocates.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, RdmaError> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` starting at `addr`, line by line (same tearing
    /// semantics as [`MemoryArena::read_into`]).
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<(), RdmaError> {
        self.check(addr, data.len() as u64)?;
        let mut off = (addr - Self::BASE) as usize;
        let mut written = 0;
        while written < data.len() {
            let in_group = off % GROUP;
            let n = (GROUP - in_group).min(data.len() - written);
            self.group_write(off / GROUP, off, &data[written..written + n]);
            written += n;
            off += n;
        }
        Ok(())
    }

    /// Runs `f` over the `len` bytes at `addr` with exclusive access —
    /// the implementation primitive behind CAS and FETCH-AND-ADD.
    ///
    /// The stripes covering the operand's groups are write-acquired in
    /// ascending stripe order (deadlock-free), so the read-modify-write
    /// is atomic with respect to every other arena operation. `len` is
    /// limited to 32 bytes, the enhanced-CAS maximum (§3.3), so at most
    /// two groups are held.
    pub fn atomic<R>(
        &self,
        addr: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, RdmaError> {
        if len > 32 {
            return Err(RdmaError::OperandTooLong(len));
        }
        self.check(addr, len)?;
        let off = (addr - Self::BASE) as usize;
        let first = off / GROUP;
        let last = (off + len as usize - 1) / GROUP;
        let sa = first & self.stripe_mask;
        let sb = last & self.stripe_mask;
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        // Lock stripes in ascending index order; a shared stripe is
        // locked once.
        let s_lo = Self::lock(&self.seqs[lo]);
        let s_hi = if hi != lo {
            Some(Self::lock(&self.seqs[hi]))
        } else {
            None
        };
        let mut scratch = [0u8; 32];
        let operand = &mut scratch[..len as usize];
        self.copy_out(off, operand);
        let r = f(operand);
        self.copy_in(off, operand);
        if let Some(s) = s_hi {
            Self::unlock(&self.seqs[hi], s);
        }
        Self::unlock(&self.seqs[lo], s_lo);
        Ok(r)
    }

    /// Zeroes the whole arena — an amnesia restart losing all host
    /// memory. Group-by-group under the seqlocks (tearing at group
    /// boundaries is fine: the server is not serving while it recovers,
    /// and any straggling reader sees zeros, not garbage). A group that
    /// already reads all-zero is left alone: storing zeros over pages
    /// nothing ever touched (free-list headroom, unused carve space)
    /// would make them resident for the first time, and that was most
    /// of what a restart added to the peak resident set.
    pub fn wipe(&self) {
        for (group, words) in self.words.chunks(GROUP / 8).enumerate() {
            if words.iter().all(|w| w.load(Ordering::Relaxed) == 0) {
                continue;
            }
            let seq = self.seq_for(group);
            let s = Self::lock(seq);
            for w in words {
                w.store(0, Ordering::Relaxed);
            }
            Self::unlock(seq, s);
        }
    }

    /// Asks the CPU to start loading the cache lines under
    /// `[addr, addr + len)` — a hint for a caller that knows an access
    /// is coming (the simulator's lookahead, DESIGN.md §8). Only the
    /// first 1 KiB of a longer span is asked for. It reads and writes
    /// nothing, takes no stripe and cannot fail: a span that is empty
    /// or not wholly inside the arena is ignored, and on a target
    /// without a prefetch instruction so is every span.
    pub fn prefetch(&self, addr: u64, len: u64) {
        if len == 0 || self.check(addr, len).is_err() {
            return;
        }
        let off = (addr - Self::BASE) as usize;
        let end = off + (len as usize).min(PREFETCH_MAX);
        prefetch_words(&self.words[off / 8..end.div_ceil(8)]);
    }

    /// The aligned little-endian u64 at `addr`, by one relaxed load
    /// outside the seqlock protocol — for hints only. It never waits on
    /// a writer, so it may return a word of a multi-word update that is
    /// still in flight (never a torn word). `None` when `addr` is not
    /// 8-byte aligned or the word is not inside the arena.
    pub fn peek_u64(&self, addr: u64) -> Option<u64> {
        if !addr.is_multiple_of(8) || self.check(addr, 8).is_err() {
            return None;
        }
        let off = (addr - Self::BASE) as usize;
        Some(self.words[off / 8].load(Ordering::Relaxed))
    }

    /// Flips one bit of the byte at `addr` — the fault fabric's bit-rot
    /// primitive. Goes through [`MemoryArena::atomic`] so the flip is a
    /// proper read-modify-write under the stripe locks: concurrent
    /// readers see either the old or the rotted byte, never a torn
    /// intermediate.
    pub fn flip_bit(&self, addr: u64, bit: u8) -> Result<(), RdmaError> {
        assert!(bit < 8, "bit index out of range");
        self.atomic(addr, 1, |b| b[0] ^= 1 << bit)
    }

    /// Convenience: reads a little-endian u64 (must not cross a line if
    /// atomicity is required; an 8-byte aligned address never does).
    pub fn read_u64(&self, addr: u64) -> Result<u64, RdmaError> {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Convenience: writes a little-endian u64.
    pub fn write_u64(&self, addr: u64, v: u64) -> Result<(), RdmaError> {
        self.write(addr, &v.to_le_bytes())
    }
}

/// Issues one PREFETCHT0 per cache line under `words`. The buffer is
/// word-aligned, not line-aligned, so the probes step a line's worth of
/// words from the first and the last word gets its own: no hardware
/// line under the span is skipped whatever the allocation's offset.
#[cfg(all(target_arch = "x86_64", target_feature = "sse"))]
#[target_feature(enable = "sse")]
fn prefetch_words_sse(words: &[AtomicU64]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for w in words.iter().step_by(WORDS_PER_LINE).chain(words.last()) {
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(w).cast());
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse"))]
#[inline]
fn prefetch_words(words: &[AtomicU64]) {
    // SAFETY: `prefetch_words_sse` is a safe function whose only
    // requirement beyond safe Rust's is that the CPU executes SSE, and
    // the `cfg` on this function compiles it only where the target
    // guarantees that (SSE is baseline on x86-64). PREFETCH is a hint
    // that cannot fault whatever address it is given, and every pointer
    // it is given here comes from a live `&AtomicU64` of the slice.
    #[allow(unsafe_code)]
    unsafe {
        prefetch_words_sse(words);
    }
}

/// No prefetch instruction this crate can reach: the hint is nothing.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse")))]
#[inline]
fn prefetch_words(_words: &[AtomicU64]) {}

/// A transparent huge page: 2 MiB on x86-64 and on 4 KiB-page AArch64.
const HUGE_PAGE: usize = 2 << 20;

/// The whole [`HUGE_PAGE`]s inside the byte span `[start, start + len)`,
/// as `(first page's address, bytes)`; `None` when it holds none.
fn huge_interior(start: usize, len: usize) -> Option<(usize, usize)> {
    let first = start.checked_next_multiple_of(HUGE_PAGE)?;
    let end = start.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > first).then(|| (first, end - first))
}

/// Asks the kernel to back the whole 2 MiB pages of a freshly zeroed
/// word buffer with transparent huge pages, before any word is touched:
/// the arena is read at random on every op, and one TLB entry per 2 MiB
/// instead of per 4 KiB keeps the page walk off that path (and faults
/// the buffer in 512× less often while a store is built).
fn advise_huge_pages(words: &[AtomicU64]) {
    let base = words.as_ptr().addr();
    if let Some((start, len)) = huge_interior(base, std::mem::size_of_val(words)) {
        // Both ends are 2 MiB-aligned, so both are whole words.
        let first = (start - base) / 8;
        madvise_huge_pages(&words[first..first + len / 8]);
    }
}

/// `madvise(MADV_HUGEPAGE)` over exactly the bytes of `pages`. The
/// advice is optional — a kernel that refuses it (transparent huge
/// pages off, a range not page-aligned) keeps the 4 KiB pages — so the
/// result is not looked at.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn madvise_huge_pages(pages: &[AtomicU64]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    /// Linux's value on both targets (`asm-generic/mman-common.h`).
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: the declaration is POSIX's `int madvise(void *, size_t,
    // int)`. The range is exactly the bytes of `pages`, a live slice,
    // so it lies inside an allocation that outlives the call.
    // MADV_HUGEPAGE changes no byte, mapping or permission — it only
    // makes the range eligible for huge pages — so no reference into
    // the allocation can observe it.
    #[allow(unsafe_code)]
    unsafe {
        madvise(
            pages.as_ptr().cast_mut().cast(),
            std::mem::size_of_val(pages),
            MADV_HUGEPAGE,
        );
    }
}

/// No huge-page advice this crate can give: the buffer keeps the
/// allocator's pages.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn madvise_huge_pages(_pages: &[AtomicU64]) {}

impl std::fmt::Debug for MemoryArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryArena")
            .field("len", &self.len)
            .field("lines", &(self.words.len() / WORDS_PER_LINE))
            .field("stripes", &self.seqs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_trips_at_various_offsets() {
        let a = MemoryArena::new(4096);
        for (off, len) in [(0u64, 1usize), (63, 2), (60, 100), (1, 511), (4000, 96)] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let addr = MemoryArena::BASE + off;
            a.write(addr, &data).unwrap();
            assert_eq!(
                a.read(addr, len as u64).unwrap(),
                data,
                "off={off} len={len}"
            );
        }
    }

    #[test]
    fn zero_initialized() {
        let a = MemoryArena::new(128);
        assert_eq!(a.read(MemoryArena::BASE, 128).unwrap(), vec![0u8; 128]);
    }

    #[test]
    fn rounds_up_to_whole_lines() {
        let a = MemoryArena::new(65);
        assert_eq!(a.len(), 128);
        a.write(a.end() - 1, &[9]).unwrap();
    }

    #[test]
    fn bounds_are_enforced() {
        let a = MemoryArena::new(128);
        assert!(matches!(
            a.read(MemoryArena::BASE - 1, 4),
            Err(RdmaError::OutOfBounds { .. })
        ));
        assert!(matches!(
            a.write(a.end() - 2, &[0; 4]),
            Err(RdmaError::OutOfBounds { .. })
        ));
        // Overflow-safe.
        assert!(a.read(u64::MAX - 2, 8).is_err());
    }

    #[test]
    fn u64_helpers() {
        let a = MemoryArena::new(64);
        a.write_u64(MemoryArena::BASE + 8, 0xDEAD_BEEF).unwrap();
        assert_eq!(a.read_u64(MemoryArena::BASE + 8).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn atomic_modifies_in_place() {
        let a = MemoryArena::new(128);
        let addr = MemoryArena::BASE + 16;
        a.write_u64(addr, 41).unwrap();
        let old = a
            .atomic(addr, 8, |bytes| {
                let old = u64::from_le_bytes(bytes.try_into().unwrap());
                bytes.copy_from_slice(&(old + 1).to_le_bytes());
                old
            })
            .unwrap();
        assert_eq!(old, 41);
        assert_eq!(a.read_u64(addr).unwrap(), 42);
    }

    #[test]
    fn atomic_across_line_boundary() {
        let a = MemoryArena::new(256);
        let addr = MemoryArena::BASE + 56; // 16-byte operand spanning lines 0 and 1
        a.write(addr, &[1u8; 16]).unwrap();
        a.atomic(addr, 16, |b| b.iter_mut().for_each(|x| *x = 2))
            .unwrap();
        assert_eq!(a.read(addr, 16).unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn atomic_rejects_oversized_operand() {
        let a = MemoryArena::new(128);
        assert_eq!(
            a.atomic(MemoryArena::BASE, 33, |_| ()).unwrap_err(),
            RdmaError::OperandTooLong(33)
        );
    }

    #[test]
    fn concurrent_fetch_add_loses_no_updates() {
        let a = Arc::new(MemoryArena::new(64));
        let addr = MemoryArena::BASE;
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        a.atomic(addr, 8, |b| {
                            let v = u64::from_le_bytes(b.try_into().unwrap());
                            b.copy_from_slice(&(v + 1).to_le_bytes());
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(a.read_u64(addr).unwrap(), 8_000);
    }

    #[test]
    fn concurrent_cross_line_fetch_add_loses_no_updates() {
        // Same invariant with the operand spanning two lines, exercising
        // the two-stripe lock path.
        let a = Arc::new(MemoryArena::new(256));
        let addr = MemoryArena::BASE + 56;
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        a.atomic(addr, 16, |b| {
                            let v = u64::from_le_bytes(b[..8].try_into().unwrap());
                            b[..8].copy_from_slice(&(v + 1).to_le_bytes());
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(a.read_u64(addr).unwrap(), 8_000);
    }

    #[test]
    fn within_line_reads_never_tear() {
        // A writer flips an aligned 8-byte word between two values; readers
        // must only ever observe one of the two.
        let a = Arc::new(MemoryArena::new(64));
        let addr = MemoryArena::BASE;
        a.write_u64(addr, u64::MAX).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let a = Arc::clone(&a);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    v = if v == 0 { u64::MAX } else { 0 };
                    a.write_u64(addr, v).unwrap();
                }
            })
        };
        for _ in 0..50_000 {
            let v = a.read_u64(addr).unwrap();
            assert!(v == 0 || v == u64::MAX, "torn read within a line: {v:#x}");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn multi_line_transfers_tear_only_at_line_boundaries() {
        // A writer flips a 256-byte (4-line) value between all-zeros and
        // all-ones. A concurrent reader may see a mix across lines (torn
        // multi-line transfer — the semantics §6.1's protocols defend
        // against) but every individual 64-byte line must be uniform.
        let a = Arc::new(MemoryArena::new(512));
        let addr = MemoryArena::BASE;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let a = Arc::clone(&a);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0u8;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    v = if v == 0 { 0xFF } else { 0 };
                    a.write(addr, &[v; 256]).unwrap();
                }
            })
        };
        let mut buf = [0u8; 256];
        for _ in 0..20_000 {
            a.read_into(addr, &mut buf).unwrap();
            for line in buf.chunks(LINE) {
                assert!(
                    line.iter().all(|&b| b == line[0]),
                    "torn read within a line"
                );
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn wipe_zeroes_everything() {
        let a = MemoryArena::new(3 * GROUP as u64 + 100);
        a.write(MemoryArena::BASE + 7, &[0xAB; 900]).unwrap();
        a.write(a.end() - 64, &[0xCD; 64]).unwrap();
        a.wipe();
        assert_eq!(
            a.read(MemoryArena::BASE, a.len()).unwrap(),
            vec![0u8; a.len() as usize]
        );
    }

    #[test]
    fn wipe_leaves_zero_groups_alone() {
        // Four whole groups and a short tail; only groups 1 and 4 (the
        // tail) hold data, so only their stripes may move — storing
        // zeros over never-touched pages is what used to make them
        // resident.
        let a = MemoryArena::new(4 * GROUP as u64 + 128);
        a.write(MemoryArena::BASE + GROUP as u64 + 500, &[1])
            .unwrap();
        a.write(a.end() - 1, &[2]).unwrap();
        let before = a.stripe_sequences();
        a.wipe();
        let after = a.stripe_sequences();
        let moved: Vec<usize> = (0..before.len())
            .filter(|&i| before[i] != after[i])
            .collect();
        assert_eq!(moved, [1, 4]);
        assert_eq!(
            a.read(MemoryArena::BASE, a.len()).unwrap(),
            vec![0u8; a.len() as usize]
        );
        // A second wipe finds nothing to do.
        a.wipe();
        assert_eq!(a.stripe_sequences(), after);
    }

    #[test]
    fn flip_bit_rots_exactly_one_bit() {
        let a = MemoryArena::new(4096);
        let addr = MemoryArena::BASE + 100;
        a.write(addr, &[0b1010_1010]).unwrap();
        a.flip_bit(addr, 0).unwrap();
        assert_eq!(a.read(addr, 1).unwrap(), [0b1010_1011]);
        a.flip_bit(addr, 7).unwrap();
        assert_eq!(a.read(addr, 1).unwrap(), [0b0010_1011]);
        // Self-inverse: rot twice restores the byte.
        a.flip_bit(addr, 7).unwrap();
        a.flip_bit(addr, 0).unwrap();
        assert_eq!(a.read(addr, 1).unwrap(), [0b1010_1010]);
        // Out-of-arena rot is rejected like any access.
        assert!(a.flip_bit(MemoryArena::BASE + 5000, 0).is_err());
    }

    #[test]
    fn huge_interior_keeps_only_whole_pages() {
        const P: usize = HUGE_PAGE;
        let base = 7 * P;
        // Nothing to advise: an empty span, one under a page, and a
        // page's worth that straddles a boundary.
        assert_eq!(huge_interior(base, 0), None);
        assert_eq!(huge_interior(base, P - 1), None);
        assert_eq!(huge_interior(base + 64, P), None);
        // Exactly one page, aligned.
        assert_eq!(huge_interior(base, P), Some((base, P)));
        // One byte short of a page on either side.
        assert_eq!(huge_interior(base + 1, P - 1), None);
        assert_eq!(huge_interior(base + 1, 2 * P - 1), Some((base + P, P)));
        assert_eq!(huge_interior(base - 1, P), None);
        assert_eq!(huge_interior(base - 1, P + 1), Some((base, P)));
        // A span of several pages keeps the whole ones in its interior.
        assert_eq!(huge_interior(base + 16, 5 * P), Some((base + P, 4 * P)));
        assert_eq!(huge_interior(base, 5 * P + 100), Some((base, 5 * P)));
        // Spans at the top of the address space do not overflow.
        assert_eq!(huge_interior(usize::MAX - 8, 16), None);
        assert_eq!(huge_interior(usize::MAX - P, P), None);
    }

    #[test]
    fn accesses_straddling_huge_page_boundaries_are_exact() {
        // 8 MiB and 100 B: whatever the buffer's offset, it crosses at
        // least three 2 MiB boundaries. Every access kind is aimed at
        // each of them — the buffer's own page boundaries and the
        // arena's 2 MiB offsets — and checked against a byte model.
        let a = MemoryArena::new((8 << 20) + 100);
        let len = a.len() as usize;
        let buf = a.words.as_ptr().addr();
        let (first, bytes) = huge_interior(buf, len).expect("8 MiB holds whole pages");
        let page_edges = (0..=bytes / HUGE_PAGE).map(|i| first + i * HUGE_PAGE - buf);
        let offset_edges = (1..=len / HUGE_PAGE).map(|i| i * HUGE_PAGE);
        let mut edges: Vec<usize> = page_edges.chain(offset_edges).collect();
        edges.sort_unstable();
        edges.dedup();
        edges.retain(|&e| e >= 512 && e + 512 <= len);
        assert!(edges.len() >= 3, "edges {edges:?}");

        let mut model = vec![0u8; len];
        let at = |off: usize| MemoryArena::BASE + off as u64;
        for (k, &e) in edges.iter().enumerate() {
            // A 600 B transfer, unaligned, across the edge.
            let data: Vec<u8> = (0..600).map(|i| (i * 7 + k) as u8 | 1).collect();
            a.write(at(e - 301), &data).unwrap();
            model[e - 301..e + 299].copy_from_slice(&data);
            assert_eq!(a.read(at(e - 301), 600).unwrap(), data);
            // A 16 B atomic whose halves sit on either side.
            let old = a
                .atomic(at(e - 8), 16, |b| {
                    let old = b.to_vec();
                    b.iter_mut().for_each(|x| *x = x.wrapping_add(1));
                    old
                })
                .unwrap();
            assert_eq!(old, model[e - 8..e + 8]);
            model[e - 8..e + 8]
                .iter_mut()
                .for_each(|x| *x = x.wrapping_add(1));
            // The words on either side, by hint load and by read.
            for w in [e - 8, e] {
                let want = u64::from_le_bytes(model[w..w + 8].try_into().unwrap());
                assert_eq!(a.peek_u64(at(w)), Some(want));
                assert_eq!(a.read_u64(at(w)).unwrap(), want);
            }
            // A prefetch across the edge reads and writes nothing.
            let seqs = a.stripe_sequences();
            a.prefetch(at(e - 512), 1024);
            assert_eq!(a.stripe_sequences(), seqs);
        }
        assert!(a.read(MemoryArena::BASE, len as u64).unwrap() == model);
        a.wipe();
        assert!(a.read(MemoryArena::BASE, len as u64).unwrap() == vec![0u8; len]);
    }

    #[test]
    fn flat_layout_overhead_under_5_percent() {
        // The old arena allocated a pthread RwLock per 64-byte line
        // (~3× capacity for large arenas); the flat layout must stay
        // within 5% of capacity.
        let len = 4u64 << 20; // 4 MiB
        let a = MemoryArena::new(len);
        let footprint = a.footprint_bytes();
        assert!(
            footprint < len + len / 20,
            "footprint {footprint} exceeds 105% of {len}"
        );
    }
}
