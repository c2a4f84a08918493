//! Bounds-checked little-endian byte (de)serialization.
//!
//! Every length field read from disk is validated against the bytes
//! actually remaining **before** any allocation is sized from it, so a
//! corrupt or adversarial file can at worst produce a typed error —
//! never an OOM or a panic.

/// Append-only little-endian encoder backing container sections and WAL
/// record payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite already-written bytes at `at` (a length or checksum
    /// field reserved before its payload was known).
    ///
    /// # Panics
    ///
    /// Panics if `at + bytes.len()` exceeds [`len`](Self::len).
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i32.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f32 as its IEEE-754 bit pattern (bit-exact roundtrip,
    /// including NaN payloads and signed zeros).
    pub fn put_f32_bits(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an f64 as its bit pattern.
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string (u32 length).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes with no length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed u64 slice (u64 count).
    pub fn put_u64_slice(&mut self, vals: &[u64]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(8 * vals.len());
        for &v in vals {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed f32-bits slice (u64 count).
    pub fn put_f32_slice(&mut self, vals: &[f32]) {
        self.put_u64(vals.len() as u64);
        for &v in vals {
            self.put_f32_bits(v);
        }
    }
}

/// Cursor over a borrowed byte slice; every read checks remaining
/// length and reports a descriptive context string on underrun.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Error produced by [`ByteReader`]: the slice ran out (or a count was
/// implausible) while reading the named field. Mapped to
/// [`StoreError::Truncated`](crate::StoreError::Truncated) or
/// [`StoreError::Malformed`](crate::StoreError::Malformed) by callers
/// that know which file the bytes came from.
#[derive(Debug, Clone)]
pub struct ShortRead {
    /// The field being decoded when the bytes ran out.
    pub context: &'static str,
    /// True when the failure is a length field larger than the
    /// remaining bytes (malformed) rather than a plain underrun.
    pub bad_count: bool,
}

impl std::fmt::Display for ShortRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.bad_count {
            write!(
                f,
                "length field for {} exceeds remaining bytes",
                self.context
            )
        } else {
            write!(f, "unexpected end of input reading {}", self.context)
        }
    }
}

impl<'a> ByteReader<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ShortRead> {
        if self.remaining() < n {
            return Err(ShortRead {
                context,
                bad_count: false,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, ShortRead> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, ShortRead> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, ShortRead> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, ShortRead> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian i32.
    pub fn get_i32(&mut self, context: &'static str) -> Result<i32, ShortRead> {
        Ok(self.get_u32(context)? as i32)
    }

    /// Read an f32 from its stored bit pattern.
    pub fn get_f32_bits(&mut self, context: &'static str) -> Result<f32, ShortRead> {
        Ok(f32::from_bits(self.get_u32(context)?))
    }

    /// Read an f64 from its stored bit pattern.
    pub fn get_f64_bits(&mut self, context: &'static str) -> Result<f64, ShortRead> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Read a u64 count field, validating it against the remaining
    /// bytes at `elem_size` bytes per element before returning.
    pub fn get_count(
        &mut self,
        elem_size: usize,
        context: &'static str,
    ) -> Result<usize, ShortRead> {
        let n = self.get_u64(context)?;
        let need = (n as u128) * (elem_size as u128);
        if need > self.remaining() as u128 {
            return Err(ShortRead {
                context,
                bad_count: true,
            });
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string (u32 length). Rejects
    /// lengths past the remaining bytes and invalid UTF-8.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, ShortRead> {
        let n = self.get_u32(context)? as usize;
        if n > self.remaining() {
            return Err(ShortRead {
                context,
                bad_count: true,
            });
        }
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ShortRead {
            context,
            bad_count: true,
        })
    }

    /// Read a length-prefixed u64 slice (u64 count, validated).
    pub fn get_u64_slice(&mut self, context: &'static str) -> Result<Vec<u64>, ShortRead> {
        let n = self.get_count(8, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64(context)?);
        }
        Ok(out)
    }

    /// Read a length-prefixed f32 slice (u64 count, validated).
    pub fn get_f32_slice(&mut self, context: &'static str) -> Result<Vec<f32>, ShortRead> {
        let n = self.get_count(4, context)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f32_bits(context)?);
        }
        Ok(out)
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<Vec<u8>, ShortRead> {
        Ok(self.take(n, context)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_i32(-42);
        w.put_f32_bits(-0.0);
        w.put_f64_bits(f64::NAN);
        w.put_str("変 variant-α");
        w.put_u64_slice(&[1, 2, 3]);
        w.put_f32_slice(&[1.5, -2.25]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.get_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("d").unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_i32("e").unwrap(), -42);
        let z = r.get_f32_bits("f").unwrap();
        assert_eq!(z.to_bits(), (-0.0f32).to_bits());
        assert!(r.get_f64_bits("g").unwrap().is_nan());
        assert_eq!(r.get_str("h").unwrap(), "変 variant-α");
        assert_eq!(r.get_u64_slice("i").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_f32_slice("j").unwrap(), vec![1.5, -2.25]);
        assert!(r.is_empty());
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.get_u32("field").unwrap_err();
        assert!(!err.bad_count);
        assert_eq!(err.context, "field");
    }

    #[test]
    fn huge_count_field_rejected_before_allocating() {
        // A count of u64::MAX must not size an allocation.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.get_u64_slice("words").unwrap_err();
        assert!(err.bad_count);
    }

    #[test]
    fn string_length_past_end_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1000);
        w.put_bytes(b"short");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str("id").unwrap_err().bad_count);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str("id").is_err());
    }
}
