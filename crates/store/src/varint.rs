//! LEB128 varints and zigzag signed encoding — the primitive codec
//! under `MPES` v3. Hand-rolled on purpose: the build environment has
//! no registry access, and the format is small enough that a
//! dependency would cost more than it saves.
//!
//! Reads return [`DecodeError`], a small `Copy` value, not
//! [`StoreError`]: a decode loop runs once per event field, and a
//! `Result` carrying the boxed, drop-glued store error costs several
//! times the varint it guards. Each chunk's decode converts its one
//! error, if any, to a `StoreError` at the chunk boundary.

use crate::StoreError;

/// Why a decode stopped: the two ways bytes can be bad, without a
/// path or a source error, so it stays `Copy` and fits in two words.
/// Converts into the [`StoreError`] variant of the same name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-record.
    Truncated,
    /// Structurally invalid content (with a static reason).
    Corrupt(&'static str),
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> StoreError {
        match e {
            DecodeError::Truncated => StoreError::Truncated,
            DecodeError::Corrupt(why) => StoreError::Corrupt(why),
        }
    }
}

/// Append `v` as an unsigned LEB128 varint (7 bits per byte, high bit
/// = continuation). At most 10 bytes for a `u64`.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` zigzag-mapped (`0, -1, 1, -2, ...` → `0, 1, 2, 3, ...`)
/// so small deltas of either sign stay short.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A bounds-checked read cursor over a byte slice. Every decoder in
/// the crate goes through this so truncated input is always a clean
/// [`DecodeError::Truncated`], never a panic.
pub struct Cursor<'a> {
    /// The bytes not yet consumed.
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn take_byte(&mut self) -> Result<u8, DecodeError> {
        let (&b, rest) = self.buf.split_first().ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let (s, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(s)
    }

    /// One varint. Most event fields fit one byte, so that case is
    /// inlined and the general loop is not.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        match self.buf.split_first() {
            Some((&b, rest)) if b < 0x80 => {
                self.buf = rest;
                Ok(u64::from(b))
            }
            _ => self.get_u64_multi(),
        }
    }

    #[inline(never)]
    fn get_u64_multi(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for (i, &byte) in self.buf.iter().take(10).enumerate() {
            let payload = u64::from(byte & 0x7f);
            // The 10th byte may only carry the top single bit of a u64.
            if i == 9 && payload > 1 {
                return Err(DecodeError::Corrupt("varint overflows u64"));
            }
            v |= payload << (7 * i);
            if byte & 0x80 == 0 {
                self.buf = &self.buf[i + 1..];
                return Ok(v);
            }
        }
        Err(if self.buf.len() < 10 {
            DecodeError::Truncated
        } else {
            DecodeError::Corrupt("varint longer than 10 bytes")
        })
    }

    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        let z = self.get_u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// A `usize` with a sanity ceiling, for counts and lengths that
    /// will be used to size allocations.
    pub fn get_len(&mut self, limit: usize) -> Result<usize, DecodeError> {
        let v = self.get_u64()?;
        if v > limit as u64 {
            return Err(DecodeError::Corrupt("implausible length"));
        }
        Ok(v as usize)
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub fn get_str(cur: &mut Cursor<'_>, limit: usize) -> Result<String, DecodeError> {
    let n = cur.get_len(limit)?;
    let bytes = cur.take_bytes(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Corrupt("string is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip_edges() {
        let vals = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &vals {
            put_u64(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &vals {
            assert_eq!(cur.get_u64().unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn i64_round_trip_edges() {
        let vals = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for &v in &vals {
            put_i64(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &vals {
            assert_eq!(cur.get_i64().unwrap(), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        put_i64(&mut buf, -3);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn truncated_varint_is_an_error() {
        // Continuation bit set but no next byte.
        let mut cur = Cursor::new(&[0x80]);
        assert_eq!(cur.get_u64(), Err(DecodeError::Truncated));
        assert_eq!(Cursor::new(&[]).get_u64(), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_varint_is_an_error() {
        let buf = [0xff; 11];
        let mut cur = Cursor::new(&buf);
        assert_eq!(
            cur.get_u64(),
            Err(DecodeError::Corrupt("varint overflows u64"))
        );
        let mut buf = [0x80; 11];
        buf[9] = 0x81;
        assert_eq!(
            Cursor::new(&buf).get_u64(),
            Err(DecodeError::Corrupt("varint longer than 10 bytes"))
        );
    }

    #[test]
    fn decode_errors_stay_two_words() {
        assert!(std::mem::size_of::<DecodeError>() <= 2 * std::mem::size_of::<usize>());
        assert!(matches!(
            StoreError::from(DecodeError::Corrupt("x")),
            StoreError::Corrupt("x")
        ));
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "");
        put_str(&mut buf, "hello κόσμε");
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_str(&mut cur, 1024).unwrap(), "");
        assert_eq!(get_str(&mut cur, 1024).unwrap(), "hello κόσμε");
    }
}
