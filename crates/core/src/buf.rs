//! Little-endian buffer codec: [`BufMut`] appends to a `Vec<u8>`, and
//! `Reader` is the one checked cursor every decoder reads through.
//!
//! A decoder holds no byte counts of its own: each read either returns
//! the bytes it asked for or a [`WireError`], so a decode is total over
//! whatever bytes arrive by construction.

use crate::wire::WireError;

/// Append-side primitives, implemented for `Vec<u8>`.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// The error of every read that runs off the end of the buffer.
const TRUNCATED: WireError = WireError("truncated message");

/// A cursor over received bytes. Every read returns the bytes it names
/// or [`TRUNCATED`], and consumes nothing when it fails; borrowed reads
/// ([`Reader::take`]) hand out sub-slices of the input without copying.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader(buf)
    }

    /// Borrows the next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(TRUNCATED)?;
        self.0 = rest;
        Ok(head)
    }

    /// Copies out the next `N` bytes.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk::<N>().ok_or(TRUNCATED)?;
        self.0 = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Borrows a `u32`-length-prefixed section.
    pub(crate) fn prefixed(&mut self) -> Result<&'a [u8], WireError> {
        let mut r = Reader(self.0);
        let len = r.u32()? as usize;
        let section = r.take(len)?;
        *self = r;
        Ok(section)
    }

    /// Succeeds if every byte has been read.
    pub(crate) fn end(self) -> Result<(), WireError> {
        match self.0 {
            [] => Ok(()),
            _ => Err(WireError("trailing bytes after message")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(r.array(), Ok(*b"tail"));
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn reads_advance_the_slice() {
        let data = [1u8, 0, 2, 0];
        let mut r = Reader::new(&data);
        assert_eq!(r.u16(), Ok(1));
        assert_eq!(r.0.len(), 2);
        assert_eq!(r.u16(), Ok(2));
    }

    #[test]
    fn short_read_is_a_typed_error() {
        let mut r = Reader::new(&[1u8, 0, 0]);
        assert_eq!(r.u32(), Err(TRUNCATED));
        assert_eq!(r.u64(), Err(TRUNCATED));
        assert_eq!(r.0.len(), 3, "failed read must not consume");
        assert_eq!(r.u16(), Ok(1));
        assert_eq!(r.end(), Err(WireError("trailing bytes after message")));
        // A prefix longer than what follows fails whole.
        let mut r = Reader::new(&[9u8, 0, 0, 0, 1]);
        assert_eq!(r.prefixed(), Err(TRUNCATED));
        assert_eq!(r.0.len(), 5);
    }

    #[test]
    fn take_borrows_and_advances() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&data);
        assert_eq!(r.take(2), Ok(&data[..2]));
        assert_eq!(r.0.len(), 3);
        assert_eq!(r.take(4), Err(TRUNCATED));
        assert_eq!(r.0.len(), 3, "failed take must not consume");
        assert_eq!(r.take(3), Ok(&data[2..]));
        assert_eq!(r.take(0), Ok(&[][..]));
    }
}
