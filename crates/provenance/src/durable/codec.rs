//! Binary encoding primitives shared by the WAL and the snapshot format.
//!
//! Everything is little-endian and length-prefixed; no self-description —
//! both sides agree on the layout via the format version in the file
//! headers. A 32-bit CRC (IEEE polynomial, table-driven eight bytes at a
//! time: a checkpoint hashes the whole store under the store's lock) guards
//! every WAL frame and the whole snapshot body.

use crate::value::Value;

/// Errors raised while decoding WAL or snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Slice-by-8 tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC register
/// after byte `b` and then `k` zero bytes have gone through it.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
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

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an f64 as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write `Some`/`None` + payload via the closure.
    pub fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Writer, T)) {
        match v {
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
            None => self.u8(0),
        }
    }

    /// Write one [`Value`] (tag byte + payload).
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(x) => {
                self.u8(2);
                self.f64(*x);
            }
            Value::Text(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Timestamp(t) => {
                self.u8(4);
                self.f64(*t);
            }
            Value::Bool(b) => {
                self.u8(5);
                self.u8(*b as u8);
            }
        }
    }
}

/// Cursor-based byte reader; every accessor fails cleanly on truncation.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!("need {n} bytes, have {}", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError("invalid utf-8".into()))
    }

    /// Read an option encoded by [`Writer::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(CodecError(format!("bad option tag {t}"))),
        }
    }

    /// Read one [`Value`].
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(self.f64()?)),
            3 => Ok(Value::Text(self.str()?)),
            4 => Ok(Value::Timestamp(self.f64()?)),
            5 => Ok(Value::Bool(self.u8()? != 0)),
            t => Err(CodecError(format!("bad value tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(2.5);
        w.str("héllo");
        w.opt(Some(9i64), |w, v| w.i64(v));
        w.opt(None::<i64>, |w, v| w.i64(v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt(|r| r.i64()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.i64()).unwrap(), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn value_roundtrip() {
        let values = vec![
            Value::Null,
            Value::Int(-5),
            Value::Float(1.25),
            Value::Text("a'b\"c".into()),
            Value::Timestamp(99.5),
            Value::Bool(true),
        ];
        let mut w = Writer::new();
        for v in &values {
            w.value(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut w = Writer::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // standard test vector: CRC-32("123456789") = 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition the tables were derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment() {
        let data: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_bitwise(s), "bytes {start}..{end}");
            }
        }
    }
}
