//! CRC-32 (IEEE 802.3, reflected) — the workspace-wide checksum.
//!
//! Pilaf's self-verifying data structures hash key/value extents so a
//! one-sided READ can detect a racing or torn write; PR 5 extends the
//! same discipline to the wire format and to every value layout
//! (PRISM-KV entries, PRISM-RS tagged blocks, TX staged buffers). All
//! of them share this one implementation so checksums computed by one
//! layer can be re-verified by another.
//!
//! CRC-32 detects *every* single-bit error and every burst error up to
//! 32 bits, which is what makes the corruption-matrix conservation
//! check exact for bit-flip faults: an injected flip is detected with
//! certainty, never probabilistically.
//!
//! There are two implementations of the same function, selected by what
//! the CPU can do and by nothing else:
//!
//! * **Slice-by-16** (`crc32_table`), portable: sixteen derived tables
//!   let one iteration fold 16 input bytes through two 8-byte
//!   little-endian words, turning the bytewise table walk (one lookup +
//!   shift per byte, a serial dependency through the register every
//!   byte) into 16 independent lookups whose XOR reduction the CPU can
//!   overlap. The construction is standard (Intel's slicing-by-8
//!   generalized). It runs on non-x86 targets, on x86 CPUs without
//!   PCLMULQDQ, and on fragments shorter than one 16-byte lane — which
//!   the same tables take as at most one 8-byte and one 4-byte word
//!   step before the last (< 4) bytes go one at a time.
//! * **Carry-less-multiply folding** (`clmul`, x86-64 with PCLMULQDQ):
//!   the message is a polynomial over GF(2) and the CRC is its
//!   remainder mod `P`, so a 128-bit lane `X` that sits `D` bits ahead
//!   of the data still to come can be replaced by any 128-bit value
//!   congruent to `X · x^D` mod `P` — which two 64×64 carry-less
//!   multiplies produce. Four independent lanes cover a 64-byte block per
//!   iteration; what is left folds one lane at a time; a Barrett
//!   reduction brings the last lane down to the 32-bit register. This
//!   is Gopal et al., "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction" (Intel, 2009), as zlib and the Linux
//!   kernel deploy it.
//!
//! Both take and return the raw register, so a running checksum may
//! cross from one to the other at any byte ([`Crc32::update`] with
//! fragments of any length stays exact), and both are bit-identical to
//! the bytewise recurrence, which the test suite asserts over every
//! length and start offset around the lane and block boundaries.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[j][b]` is the
/// CRC of byte `b` followed by `j` zero bytes, so a 16-byte block can
/// be folded in one step by indexing table `15 - position` per byte.
const SLICES: usize = 16;

/// Built by the compiler: a lookup is an indexed load from `.rodata`,
/// with no initialisation check on the way.
static TABLES: [[u32; 256]; SLICES] = {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1usize;
    while j < SLICES {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32 of `data` (IEEE, reflected, init/xorout `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_seeded(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Continue a CRC over another fragment. `state` is the raw register
/// (pre-xorout); use [`Crc32`] unless you are chaining manually.
fn crc32_seeded(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::LANE {
        if let Some(c) = crc32_clmul(state, data) {
            return c;
        }
    }
    crc32_table(state, data)
}

/// The folding kernel over `data`'s whole 16-byte lanes, the table's
/// bytewise step over the (< 16 B) rest; `None` on a CPU without
/// PCLMULQDQ (std probes CPUID once and caches the answer, so the check
/// is a load and a bit test). The one place the workspace steps outside
/// safe Rust.
#[cfg(target_arch = "x86_64")]
pub(crate) fn crc32_clmul(state: u32, data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    let (lanes, tail) = data.as_chunks::<{ clmul::LANE }>();
    // SAFETY: `fold_lanes` is a safe function whose only requirement
    // beyond safe Rust's is that the CPU executes PCLMULQDQ (and SSE2,
    // which x86-64 guarantees); the check that opens this function
    // established that at run time. It takes a slice and indexes it
    // with checked operations, so no length or alignment condition is
    // delegated to this call.
    #[allow(unsafe_code)]
    let state = unsafe { clmul::fold_lanes(state, lanes) };
    Some(crc32_table(state, tail))
}

/// Slice-by-16 over `data`, from and to the raw register. What is left
/// of `data` past its whole 16-byte blocks — all of it, for the frame
/// header fields and sub-lane tails that are this function's everyday
/// input — folds as one 8-byte word, one 4-byte word and up to three
/// single bytes, not as up to fifteen dependent byte steps.
pub(crate) fn crc32_table(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut chunks = data.chunks_exact(SLICES);
    for chunk in &mut chunks {
        // Two 64-bit LE words; the register folds into the low word.
        let lo = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes")) ^ c as u64;
        let hi = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][((lo >> 24) & 0xFF) as usize]
            ^ t[11][((lo >> 32) & 0xFF) as usize]
            ^ t[10][((lo >> 40) & 0xFF) as usize]
            ^ t[9][((lo >> 48) & 0xFF) as usize]
            ^ t[8][((lo >> 56) & 0xFF) as usize]
            ^ t[7][(hi & 0xFF) as usize]
            ^ t[6][((hi >> 8) & 0xFF) as usize]
            ^ t[5][((hi >> 16) & 0xFF) as usize]
            ^ t[4][((hi >> 24) & 0xFF) as usize]
            ^ t[3][((hi >> 32) & 0xFF) as usize]
            ^ t[2][((hi >> 40) & 0xFF) as usize]
            ^ t[1][((hi >> 48) & 0xFF) as usize]
            ^ t[0][((hi >> 56) & 0xFF) as usize];
    }
    let mut rest = chunks.remainder();
    if let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let w = u64::from_le_bytes(*word) ^ c as u64;
        c = t[7][(w & 0xFF) as usize]
            ^ t[6][((w >> 8) & 0xFF) as usize]
            ^ t[5][((w >> 16) & 0xFF) as usize]
            ^ t[4][((w >> 24) & 0xFF) as usize]
            ^ t[3][((w >> 32) & 0xFF) as usize]
            ^ t[2][((w >> 40) & 0xFF) as usize]
            ^ t[1][((w >> 48) & 0xFF) as usize]
            ^ t[0][((w >> 56) & 0xFF) as usize];
        rest = tail;
    }
    if let Some((word, tail)) = rest.split_first_chunk::<4>() {
        let w = u32::from_le_bytes(*word) ^ c;
        c = t[3][(w & 0xFF) as usize]
            ^ t[2][((w >> 8) & 0xFF) as usize]
            ^ t[1][((w >> 16) & 0xFF) as usize]
            ^ t[0][(w >> 24) as usize];
        rest = tail;
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// `a(x) · b(x) mod P` over GF(2), in the reflected bit order the CRC
/// register uses (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[k] = x^(2^k) mod P`. Thirty-two entries close the cycle: the
/// multiplicative order of `x` divides `2^32 - 1`, so `x^(2^32) = x`.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// `x^(n · 2^k) mod P`, by square-and-multiply over [`X2N`] (zlib's
/// `x2nmodp`). The index wraps because `X2N` is a cycle.
const fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// CRC-32 of `a || b` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// touching the bytes again: `crc(a||b) = crc(a) · x^(8·len_b) ⊕ crc(b)`
/// (zlib's `crc32_combine`), O(log len_b) to build the shift. A
/// checksum that is combined again and again over a suffix growing by
/// fixed steps carries its [`CrcShift`] instead.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    CrcShift::bytes(len_b).combine(crc_a, crc_b)
}

/// The operator `x^(8·n) mod P` that moves a CRC past `n` appended
/// bytes. Built directly in O(log n); extended by another operator in
/// one carry-less multiply, so a checksummed table that grows by
/// fixed-size entries keeps its combine cost constant at any length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcShift(u32);

impl CrcShift {
    /// The operator for `n` bytes.
    pub const fn bytes(n: u64) -> Self {
        CrcShift(x2nmodp(n, 3)) // 2^3 bits per byte
    }

    /// The operator for this one's length plus `step`'s:
    /// `bytes(a).then(bytes(b)) == bytes(a + b)`.
    pub const fn then(self, step: CrcShift) -> Self {
        CrcShift(multmodp(self.0, step.0))
    }

    /// `crc32(a || b)` from `crc32(a)` and `crc32(b)`, where `b` is this
    /// operator's length.
    pub const fn combine(self, crc_a: u32, crc_b: u32) -> u32 {
        multmodp(self.0, crc_a) ^ crc_b
    }
}

/// The PCLMULQDQ folding kernel.
///
/// Bit order. The CRC is reflected, so in a 128-bit lane loaded
/// little-endian bit 127 is `x^0` and the *low* quadword holds the
/// higher-degree half: `X = lo·x^64 ⊕ hi`. A carry-less multiply of two
/// reflected 64-bit operands lands one bit low — read back as a
/// reflected 128-bit value, `clmul(a, b)` is `a·b·x` — and a 32-bit
/// reflected constant `v` parked in bits 1..=32 of a quadword is the
/// polynomial `v·x^31`. Together: `clmul(a, v << 1) = a·v·x^32`. Hence
/// every constant below is `(x^n mod P) << 1`, and moving a lane `D`
/// bits forward, `X·x^D ≡ lo·x^(D+64) ⊕ hi·x^D`, takes `n = D + 32` for
/// the low quadword and `n = D − 32` for the high one.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{x2nmodp, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes per 128-bit lane: the shortest input the kernel takes.
    pub(super) const LANE: usize = 16;

    /// Lanes folded side by side in the main loop (one 64-byte block).
    const WAYS: usize = 4;

    /// `(x^n mod P) << 1` as a quadword operand (see the module docs).
    const fn k(n: u64) -> i64 {
        (x2nmodp(n, 0) as i64) << 1
    }

    /// Fold distance of the main loop: a lane meets data one block on.
    const BLOCK_BITS: u64 = (WAYS * LANE * 8) as u64;
    /// Fold distance of the single-lane loop.
    const LANE_BITS: u64 = (LANE * 8) as u64;

    pub(super) const K_BLOCK: (i64, i64) = (k(BLOCK_BITS + 32), k(BLOCK_BITS - 32));
    pub(super) const K_LANE: (i64, i64) = (k(LANE_BITS + 32), k(LANE_BITS - 32));
    /// For the final reduction's second step (96 → 64 bits; the first,
    /// 128 → 96, reuses `K_LANE.1`).
    pub(super) const K_64: i64 = k(64);

    /// `P` itself, all 33 bits, reflected: `x^32` is bit 0.
    pub(super) const P_FULL: i64 = ((POLY as i64) << 1) | 1;

    /// Barrett's `μ = ⌊x^64 / P⌋` (33 bits, reflected), by long division
    /// in natural bit order.
    pub(super) const MU: i64 = {
        let p = ((POLY.reverse_bits() as u128) | 1 << 32) << 32; // aligned to x^64
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        let mut bit = 32;
        loop {
            if rem & (1 << (bit + 32)) != 0 {
                rem ^= p >> (32 - bit);
                q |= 1 << bit;
            }
            if bit == 0 {
                break;
            }
            bit -= 1;
        }
        (q.reverse_bits() >> 31) as i64
    };

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(lane: &[u8; LANE]) -> __m128i {
        let v = u128::from_le_bytes(*lane);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x` moved forward by the distance `k` encodes, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw register `state` over `lanes`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold_lanes(state: u32, lanes: &[[u8; LANE]]) -> u32 {
        let (blocks, mut singles) = lanes.as_chunks::<WAYS>();
        let seed = _mm_cvtsi32_si128(state as i32);
        let k_lane = _mm_set_epi64x(K_LANE.1, K_LANE.0);
        let mut x;
        if let Some((first, blocks)) = blocks.split_first() {
            let k_block = _mm_set_epi64x(K_BLOCK.1, K_BLOCK.0);
            let mut x0 = _mm_xor_si128(load(&first[0]), seed);
            let mut x1 = load(&first[1]);
            let mut x2 = load(&first[2]);
            let mut x3 = load(&first[3]);
            for b in blocks {
                x0 = fold(x0, k_block, load(&b[0]));
                x1 = fold(x1, k_block, load(&b[1]));
                x2 = fold(x2, k_block, load(&b[2]));
                x3 = fold(x3, k_block, load(&b[3]));
            }
            x = fold(x0, k_lane, x1);
            x = fold(x, k_lane, x2);
            x = fold(x, k_lane, x3);
        } else if let Some((first, rest)) = singles.split_first() {
            x = _mm_xor_si128(load(first), seed);
            singles = rest;
        } else {
            return state;
        }
        for lane in singles {
            x = fold(x, k_lane, load(lane));
        }
        reduce(x, k_lane)
    }

    /// One lane down to the 32-bit register: 128 → 96 → 64 bits by two
    /// more folds, then Barrett (`x ⊕ ⌊x·μ / x^64⌋·P`) for the last 32.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i, k_lane: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k_lane),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K_64)),
        );
        let p_mu = _mm_set_epi64x(MU, P_FULL);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), p_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t))) as u32
    }
}

/// Incremental CRC-32 over multiple fragments, so layouts can checksum
/// `header || key || value` without concatenating into a scratch
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.0 = crc32_seeded(self.0, data);
        self
    }

    /// Finish: returns the same value `crc32` would for the
    /// concatenated fragments.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_testkit::{for_all, gens, Config};

    const INIT: u32 = 0xFFFF_FFFF;

    /// The bytewise recurrence, kept as the reference both
    /// implementations must match bit-for-bit. Raw register in and out.
    fn crc32_bytewise(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// The folding kernel called directly, or `None` where it cannot
    /// run (another architecture, or an x86 CPU without PCLMULQDQ).
    fn kernel(state: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        return crc32_clmul(state, data);
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (state, data);
            None
        }
    }

    /// Asserts table == bytewise always, and kernel == bytewise where
    /// the kernel exists. Returns whether the kernel ran.
    fn assert_paths_agree(state: u32, data: &[u8], what: &str) -> bool {
        let want = crc32_bytewise(state, data);
        assert_eq!(crc32_table(state, data), want, "table: {what}");
        assert_eq!(crc32_seeded(state, data), want, "dispatch: {what}");
        match kernel(state, data) {
            Some(got) => {
                assert_eq!(got, want, "kernel: {what}");
                true
            }
            None => false,
        }
    }

    /// A test that means to compare the kernel says so when it could
    /// not, instead of passing silently on the table path alone.
    fn report_kernel(ran: bool) {
        if !ran {
            println!("skipped: no PCLMULQDQ (table path still checked)");
        }
    }

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len).map(|_| splitmix(&mut s) as u8).collect()
    }

    #[test]
    fn known_vectors_on_both_paths() {
        const FOX: &[u8] = b"The quick brown fox jumps over the lazy dog";
        let vectors: [(&[u8], u32); 4] = [
            (b"123456789", 0xCBF4_3926),
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (FOX, 0x414F_A339), // two whole lanes and a tail
        ];
        let mut ran = true;
        for (data, want) in vectors {
            assert_eq!(crc32(data), want);
            assert_eq!(crc32_table(INIT, data) ^ INIT, want);
            match kernel(INIT, data) {
                Some(got) => assert_eq!(got ^ INIT, want),
                None => ran = false,
            }
        }
        report_kernel(ran);
    }

    #[test]
    fn paths_agree_at_every_length_and_start_offset() {
        // 0..=1100 crosses the lane boundary (15/16/17), the block
        // boundary (63/64/65, 127/128/129) and the benchmark's 530;
        // sixteen start offsets move the slice across every alignment a
        // load can have.
        let data = random_bytes(1, 1100 + 16);
        let mut ran = true;
        for offset in 0..16 {
            for len in 0..=1100 {
                let what = format!("offset {offset} len {len}");
                ran &= assert_paths_agree(INIT, &data[offset..offset + len], &what);
            }
        }
        // The register a fragment starts from is arbitrary, not INIT.
        for state in [0, 1, 0x8000_0000, 0xDEAD_BEEF] {
            for len in [0usize, 5, 16, 17, 64, 100, 530] {
                ran &= assert_paths_agree(state, &data[3..3 + len], "seeded");
            }
        }
        report_kernel(ran);
    }

    #[test]
    fn word_steps_agree_with_the_bytewise_loop_below_four_lanes() {
        // Every length 0..=64 at every start offset 0..16: each mix of
        // whole blocks, the 8-byte step, the 4-byte step and 0..=3
        // single bytes, at every alignment, from more than one register.
        let data = random_bytes(3, 64 + 16);
        for state in [INIT, 0, 0x8000_0001, 0xDEAD_BEEF] {
            for offset in 0..16 {
                for len in 0..=64 {
                    let slice = &data[offset..offset + len];
                    assert_eq!(
                        crc32_table(state, slice),
                        crc32_bytewise(state, slice),
                        "state {state:#x} offset {offset} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn paths_agree_on_random_lengths_and_update_splits() {
        // (data seed, length up to 64 KiB, fragment lengths): the whole
        // buffer through each path, then the same bytes streamed through
        // `Crc32::update` in fragments that enter and leave the kernel
        // at arbitrary bytes. The layouts' own split (4 B header ‖ 8 B
        // key ‖ 512 B value) is the first case of the second kind.
        let gen = gens::t3(
            gens::u64s(),
            gens::range_usize(0..(64 << 10) + 1),
            gens::vec(gens::range_usize(0..700), 0..24),
        );
        let streamed = |data: &[u8], cuts: &[usize]| {
            let mut inc = Crc32::new();
            let mut rest = data;
            for &cut in cuts {
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                inc.update(head);
                rest = tail;
            }
            inc.update(rest).finish()
        };
        let layout = random_bytes(7, 4 + 8 + 512);
        assert_eq!(
            streamed(&layout, &[4, 8]),
            crc32_bytewise(INIT, &layout) ^ INIT
        );
        let ran = std::cell::Cell::new(true);
        for_all(
            "crc_paths_agree_on_random_lengths_and_update_splits",
            &Config::with_cases(96),
            &gen,
            |(seed, len, cuts)| {
                let data = random_bytes(*seed, *len);
                if !assert_paths_agree(INIT, &data, "whole buffer") {
                    ran.set(false);
                }
                assert_eq!(
                    streamed(&data, cuts),
                    crc32_bytewise(INIT, &data) ^ INIT,
                    "streamed in fragments {cuts:?}"
                );
            },
        );
        report_kernel(ran.get());
    }

    #[test]
    fn combine_joins_kernel_computed_halves() {
        let data = random_bytes(11, 4096);
        let mut ran = true;
        for split in [0usize, 1, 16, 530, 2048, 4095, 4096] {
            let (a, b) = data.split_at(split);
            let (Some(ka), Some(kb)) = (kernel(INIT, a), kernel(INIT, b)) else {
                ran = false;
                break;
            };
            assert_eq!(
                crc32_combine(ka ^ INIT, kb ^ INIT, b.len() as u64),
                crc32_bytewise(INIT, &data) ^ INIT,
                "split {split}"
            );
        }
        report_kernel(ran);
    }

    /// The derived fold constants are the ones the literature prints
    /// (Gopal et al., table for the reflected IEEE polynomial; zlib's
    /// `crc32_simd.c`; Linux's `crc32-pclmul_asm.S`).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn derived_fold_constants_match_the_published_ones() {
        assert_eq!(clmul::K_BLOCK, (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(clmul::K_LANE, (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(clmul::K_64, 0x1_63CD_6124);
        assert_eq!(clmul::P_FULL, 0x1_DB71_0641);
        assert_eq!(clmul::MU, 0x1_F701_1641);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let whole = crc32(b"header|key|value");
        let mut inc = Crc32::new();
        inc.update(b"header|").update(b"key|").update(b"value");
        assert_eq!(inc.finish(), whole);
    }

    #[test]
    fn combine_matches_one_shot_over_random_splits() {
        // SplitMix64 steps: lengths and split points vary run to run of
        // the loop, not of the test.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || splitmix(&mut s);
        for case in 0..512 {
            let len = (next() % 5000) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            // Both empty halves, then random interior splits.
            let split = match case % 4 {
                0 => 0,
                1 => len,
                _ => (next() % (len as u64 + 1)) as usize,
            };
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "len {len} split {split}"
            );
        }
        // A 2^29-byte suffix is 2^32 bits: the one step that wraps X2N.
        // Appending it at once must equal appending its two halves,
        // which never leave the table.
        let mut z = crc32(&[0u8; 1 << 10]);
        let mut len = 1u64 << 10;
        while len < 1 << 28 {
            z = crc32_combine(z, z, len);
            len *= 2;
        }
        let a = crc32(b"prefix");
        let halves = crc32_combine(crc32_combine(a, z, len), z, len);
        let z29 = crc32_combine(z, z, len);
        assert_eq!(crc32_combine(a, z29, 2 * len), halves);
    }

    #[test]
    fn stepped_shift_equals_the_one_built_directly() {
        // A manifest's count word is combined over `4 + 16·count` bytes.
        let entry = CrcShift::bytes(16);
        let mut shift = CrcShift::bytes(4);
        for count in 0..20_000u64 {
            assert_eq!(shift, CrcShift::bytes(4 + 16 * count), "count {count}");
            shift = shift.then(entry);
        }
        // Uneven steps from uneven starts, and the stepped operator
        // combines as `crc32_combine` does at the summed length.
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..256 {
            let (mut len, step) = (splitmix(&mut s) % 100_000, 1 + splitmix(&mut s) % 4096);
            let mut shift = CrcShift::bytes(len);
            for _ in 0..64 {
                shift = shift.then(CrcShift::bytes(step));
                len += step;
            }
            assert_eq!(shift, CrcShift::bytes(len), "len {len} step {step}");
            let (a, b) = (splitmix(&mut s) as u32, splitmix(&mut s) as u32);
            assert_eq!(shift.combine(a, b), crc32_combine(a, b, len));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"prism corruption canary".to_vec();
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(crc32(&m), c0, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
