//! Length-prefixed binary (de)serialization.
//!
//! Every cached payload is encoded with these two types. The format is
//! deliberately boring: little-endian fixed-width integers, `u64`
//! length prefixes for variable-size data, no alignment, no
//! backtracking. Decoders must treat *any* malformed input as
//! [`DecodeError`] — never panic — because the bytes come from disk and
//! disk lies (truncation, bit rot, version skew).

use std::fmt;

/// A decoding failure: the payload is malformed or truncated. Always a
/// recoverable condition — callers discard the entry and recompute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// What the decoder was reading when it failed.
    pub context: &'static str,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decode error in {} at byte {}",
            self.context, self.offset
        )
    }
}

impl std::error::Error for DecodeError {}

/// An append-only byte encoder.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Starts empty.
    #[must_use]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends raw bytes with no length prefix, for a caller that wrote
    /// the length itself (a field assembled from several slices).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A checked, panic-free byte decoder over a borrowed buffer.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads from the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn err<T>(&self, context: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError {
            context,
            offset: self.pos,
        })
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        match self.buf.get(self.pos..self.pos.saturating_add(n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => self.err(context),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is a decode error (malformed
    /// input must never round-trip silently).
    pub fn bool(&mut self, context: &'static str) -> Result<bool, DecodeError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.err(context),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        let s = self.take(4, context)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let s = self.take(8, context)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u64` and checks it fits `usize` and the remaining buffer
    /// (so a corrupt length cannot trigger a huge allocation).
    pub fn len(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        let v = self.u64(context)?;
        let n = usize::try_from(v).map_err(|_| DecodeError {
            context,
            offset: self.pos,
        })?;
        if n > self.buf.len().saturating_sub(self.pos) && n > self.buf.len() {
            return self.err(context);
        }
        Ok(n)
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, DecodeError> {
        let raw = self.bytes(context)?;
        std::str::from_utf8(raw).or_else(|_| self.err(context))
    }

    /// Bytes consumed so far: the offset of the next read.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the whole buffer has been consumed (decoders should check
    /// this last: trailing garbage means a corrupt or mis-versioned
    /// payload).
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Errors unless the buffer is fully consumed.
    pub fn expect_end(&self, context: &'static str) -> Result<(), DecodeError> {
        if self.is_at_end() {
            Ok(())
        } else {
            Err(DecodeError {
                context,
                offset: self.pos,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7)
            .bool(true)
            .u32(0xdead_beef)
            .u64(u64::MAX)
            .f64(-2.5)
            .str("héllo")
            .bytes(&[1, 2, 3])
            .u64(2)
            .raw(&[4, 5]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert!(r.bool("t").unwrap());
        assert_eq!(r.u32("t").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("t").unwrap(), u64::MAX);
        assert_eq!(r.f64("t").unwrap(), -2.5);
        assert_eq!(r.str("t").unwrap(), "héllo");
        assert_eq!(r.bytes("t").unwrap(), &[1, 2, 3]);
        // A length written by hand reads back as one prefixed field.
        assert_eq!(r.bytes("t").unwrap(), &[4, 5]);
        assert_eq!(r.position(), buf.len());
        assert!(r.expect_end("t").is_ok());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut w = ByteWriter::new();
        w.str("payload").u64(9);
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let first = r.str("s");
            if first.is_ok() {
                assert!(r.u64("n").is_err(), "cut at {cut} must fail somewhere");
            }
        }
    }

    #[test]
    fn corrupt_length_cannot_allocate() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert!(r.bytes("b").is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool("b").is_err());
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut w = ByteWriter::new();
        w.u8(1).u8(2);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        r.u8("a").unwrap();
        assert!(r.expect_end("end").is_err());
    }
}
