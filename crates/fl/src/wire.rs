//! Bounds-checked little-endian binary encoding, shared by the network
//! frames ([`crate::net`]) and the checkpoint file ([`crate::checkpoint`]).
//!
//! Writers are the `put_*` functions; every variable-length field carries
//! a `u32` element count. [`Reader`] is the only decoder: each length is
//! checked against the bytes that remain *before* anything is allocated,
//! so a hostile count (`u32::MAX`, or one whose byte size overflows) is a
//! typed [`DecodeError`], never a panic or an oversized allocation, and
//! [`Reader::finish`] rejects trailing bytes.

use crate::comm::{read_f32_le, write_f32_le};
use std::fmt;

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The `u32` element count every variable-length field starts with.
pub(crate) fn put_count(buf: &mut Vec<u8>, n: usize) {
    put_u32(
        buf,
        u32::try_from(n).expect("field longer than u32::MAX elements"),
    );
}

pub(crate) fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    put_count(buf, xs.len());
    write_f32_le(buf, xs);
}

pub(crate) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_count(buf, b.len());
    buf.extend_from_slice(b);
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Bounds-checked cursor over an encoded buffer. Every overrun —
/// including `u32::MAX`-ish counts whose byte size would overflow — is a
/// typed [`DecodeError`], and `finish` rejects trailing garbage.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                DecodeError(format!(
                    "truncated {what}: need {n} bytes at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn f32_vec(&mut self, what: &str) -> Result<Vec<f32>, DecodeError> {
        let n = self.u32(what)? as usize;
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| DecodeError(format!("{what} count {n} overflows")))?;
        Ok(read_f32_le(self.take(bytes, what)?))
    }

    pub(crate) fn bytes_vec(&mut self, what: &str) -> Result<Vec<u8>, DecodeError> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }

    pub(crate) fn string(&mut self, what: &str) -> Result<String, DecodeError> {
        let b = self.bytes_vec(what)?;
        String::from_utf8(b).map_err(|_| DecodeError(format!("{what} is not UTF-8")))
    }

    /// An element count for a list whose entries occupy at least
    /// `min_entry_bytes` each, refused when the remaining bytes cannot
    /// hold that many entries — so the caller may reserve `count` slots
    /// without trusting the prefix.
    pub(crate) fn count(
        &mut self,
        min_entry_bytes: usize,
        what: &str,
    ) -> Result<usize, DecodeError> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() / min_entry_bytes {
            return Err(DecodeError(format!(
                "{what} count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub(crate) fn finish(self, what: &str) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_round_trips_and_finish_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f32s(&mut buf, &[1.5, f32::from_bits(0x7fc0_0001)]);
        put_str(&mut buf, "topk8:0.1");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("c").unwrap().to_bits(), (-0.0f64).to_bits());
        let v = r.f32_vec("d").unwrap();
        assert_eq!(v[1].to_bits(), 0x7fc0_0001);
        assert_eq!(r.string("e").unwrap(), "topk8:0.1");
        r.finish("all").unwrap();

        buf.push(0);
        let mut r = Reader::new(&buf);
        r.take(buf.len() - 1, "body").unwrap();
        assert!(r.finish("all").unwrap_err().0.contains("1 trailing"));
    }

    #[test]
    fn hostile_counts_are_refused_before_allocation() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[0; 16]);
        assert!(Reader::new(&buf).f32_vec("v").is_err());
        assert!(Reader::new(&buf).bytes_vec("b").is_err());
        let err = Reader::new(&buf).count(8, "list").unwrap_err();
        assert!(err.0.contains("exceeds"), "{err}");
        // Exactly enough bytes for two 8-byte entries passes.
        let mut ok = Vec::new();
        put_u32(&mut ok, 2);
        ok.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&ok).count(8, "list").unwrap(), 2);
    }
}
