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
//! The hot loop is slice-by-16: sixteen derived tables let one
//! iteration fold 16 input bytes through two 8-byte little-endian
//! words, turning the bytewise table walk (one lookup + shift per
//! byte, a serial dependency through the register every byte) into 16
//! independent lookups whose XOR reduction the CPU can overlap. The
//! construction is standard (Intel's slicing-by-8 generalized); the
//! result is bit-identical to the bytewise recurrence, which the test
//! suite asserts against a reference implementation over random
//! lengths and offsets.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[j][b]` is the
/// CRC of byte `b` followed by `j` zero bytes, so a 16-byte block can
/// be folded in one step by indexing table `15 - position` per byte.
const SLICES: usize = 16;

fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: OnceLock<[[u32; 256]; SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
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
    })
}

/// CRC-32 of `data` (IEEE, reflected, init/xorout `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_seeded(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Continue a CRC over another fragment. `state` is the raw register
/// (pre-xorout); use [`Crc32`] unless you are chaining manually.
fn crc32_seeded(state: u32, data: &[u8]) -> u32 {
    let t = tables();
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
    for &b in chunks.remainder() {
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

/// CRC-32 of `a || b` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// touching the bytes again: `crc(a||b) = crc(a) · x^(8·len_b) ⊕ crc(b)`
/// (zlib's `crc32_combine`), O(log len_b) by square-and-multiply over
/// [`X2N`]. This is what lets a checksummed table grow, or have its
/// prefix rewritten, at constant cost.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let mut n = len_b;
    let mut k = 3; // bytes to bits: start at x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
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

    /// The pre-slicing bytewise recurrence, kept as the reference the
    /// sliced implementation must match bit-for-bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_bytewise_reference() {
        // Every length through several 16-byte blocks plus a tail, so
        // both the folded path and the remainder loop are exercised at
        // every alignment of the chunk boundary.
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "sliced CRC diverges from bytewise at len {len}"
            );
        }
        // And across fragment splits, since `Crc32::update` enters the
        // sliced path with an arbitrary pre-seeded register.
        for split in [1usize, 7, 15, 16, 17, 100] {
            let mut inc = Crc32::new();
            inc.update(&data[..split]).update(&data[split..]);
            assert_eq!(inc.finish(), crc32_bytewise(&data));
        }
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
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
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
