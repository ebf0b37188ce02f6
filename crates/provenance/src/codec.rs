//! The one binary codec: every `SDW2` worker frame, every `SDC1` client
//! frame, every WAL record, the snapshot body and the paged store's row
//! records are written by a [`Writer`] and read by a [`Reader`].
//!
//! Everything is little-endian and fixed-width. A string is
//! `[u32 len][utf-8 bytes]`, an option `[u8 0|1][payload]`, a vector
//! `[u32 count][items]`. Nothing is self-describing: each format's header
//! (magic, version) names its layout.
//!
//! Two rules bound every format at once:
//!
//! - **Writing**, every length or count prefix goes through [`Writer::len`].
//!   A value the u32 cannot hold latches an error that [`Writer::finish`]
//!   returns; it is never truncated into a prefix that desyncs every byte
//!   after it.
//! - **Reading**, every count is checked against the bytes still unread
//!   before anything is allocated ([`Reader::count`]): every item of every
//!   format takes at least one byte, so a larger count is a lie.
//!
//! A message type implements [`Encode`] and [`Decode`]; the impls here
//! cover the integers, `f64`, `bool`, strings, [`Value`], options, vectors,
//! pairs/triples of those, and the telemetry `Stats` payload.
//! [`testing::check_codec`] is the property harness every such type runs
//! through.

#![deny(clippy::cast_possible_truncation)]

pub mod testing;

use telemetry::{HistogramSnapshot, StatsDelta};

use crate::value::Value;

/// A refused encoding, or bytes that do not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A value with a byte encoding.
pub trait Encode {
    /// Append `self` to `w`. A value that cannot be encoded latches an
    /// error on `w` ([`Writer::fail`]) instead of writing bad bytes.
    fn encode(&self, w: &mut Writer);
}

/// A value that can be read back from its [`Encode`] bytes.
pub trait Decode: Sized {
    /// Read one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// The encoding of `v` alone, or the first error its encoder latched.
pub fn to_bytes<T: Encode + ?Sized>(v: &T) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.put(v);
    w.finish()
}

/// Decode one `T` that spans all of `bytes`.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let v = r.get()?;
    r.finish()?;
    Ok(v)
}

/// Slice-by-8 tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC register
/// after byte `b` and then `k` zero bytes have gone through it.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0u32;
    while b < 256 {
        let mut crc = b;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b as usize] = crc;
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

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`, table-driven
/// eight bytes at a time: it guards every WAL frame and the whole snapshot
/// body, and a checkpoint hashes the whole store under the store's lock.
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
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Append-only byte writer with a latched error. Its methods chain:
/// `w.u8(TAG).put(&a).put(&b)`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    err: Option<CodecError>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes, or the first error latched while writing them.
    pub fn finish(self) -> Result<Vec<u8>, CodecError> {
        match self.err {
            None => Ok(self.buf),
            Some(e) => Err(e),
        }
    }

    /// Latch an error: [`Writer::finish`] returns the first one.
    pub fn fail(&mut self, why: String) -> &mut Self {
        self.err.get_or_insert(CodecError(why));
        self
    }

    /// Write `v` through its [`Encode`] impl.
    #[inline]
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) -> &mut Self {
        v.encode(self);
        self
    }

    /// Write one byte: a tag.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write raw bytes, unprefixed.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Write a length or count prefix: the one place a `usize` becomes a
    /// u32 on the wire or on disk. A value above `u32::MAX` latches an error.
    #[inline]
    pub fn len(&mut self, n: usize) -> &mut Self {
        match u32::try_from(n) {
            Ok(v) => self.put(&v),
            Err(_) => self.overflow(n),
        }
    }

    #[cold]
    fn overflow(&mut self, n: usize) -> &mut Self {
        self.fail(format!("length {n} overflows the u32 length prefix")).put(&0u32)
    }
}

/// Cursor over encoded bytes; every read fails cleanly past the end.
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
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeed only if every byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!("{n} trailing bytes"))),
        }
    }

    /// Read one `T` through its [`Decode`] impl.
    #[inline]
    pub fn get<T: Decode>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }

    /// The next `n` bytes.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte: a tag.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// The next `n` bytes as UTF-8, borrowed.
    #[inline]
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError("invalid utf-8".into()))
    }

    /// Read a count prefix, refused when it exceeds the bytes left: every
    /// item takes at least one, so such a count cannot be honest and
    /// nothing is allocated for it.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.get::<u32>()? as usize;
        if n > self.remaining() {
            return Err(CodecError(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Fixed-width little-endian numbers (`f64` as its IEEE-754 bits).
macro_rules! le_bytes {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("take returns the size asked")))
            }
        }
    )*};
}

le_bytes!(u8, u32, u64, i64, f64);

/// `[u8 0|1]`; any other byte is refused.
impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError(format!("bad bool tag {t}"))),
        }
    }
}

/// `[u32 len][utf-8 bytes]`.
impl Encode for str {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.len(self.len()).bytes(self.as_bytes());
    }
}

impl Encode for String {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put(self.as_str());
    }
}

impl Decode for String {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get::<u32>()? as usize;
        r.utf8(n).map(str::to_owned)
    }
}

/// A tag byte, then the payload (a `Bool` is one byte, read as `!= 0`).
impl Encode for Value {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => w.u8(0),
            Value::Int(i) => w.u8(1).put(i),
            Value::Float(x) => w.u8(2).put(x),
            Value::Text(s) => w.u8(3).put(s),
            Value::Timestamp(t) => w.u8(4).put(t),
            Value::Bool(b) => w.u8(5).put(b),
        };
    }
}

impl Decode for Value {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Value::Null,
            1 => Value::Int(r.get()?),
            2 => Value::Float(r.get()?),
            3 => Value::Text(r.get()?),
            4 => Value::Timestamp(r.get()?),
            5 => Value::Bool(r.u8()? != 0),
            t => return Err(CodecError(format!("bad value tag {t}"))),
        })
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => w.u8(1).put(v),
        };
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(r.get()?)),
            t => Err(CodecError(format!("bad option tag {t}"))),
        }
    }
}

/// `[u32 count][items]`.
impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.len(self.len());
        for v in self {
            w.put(v);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

/// Tuples are their fields back to back.
macro_rules! tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Encode),*> Encode for ($($t,)*) {
            fn encode(&self, w: &mut Writer) {
                w$(.put(&self.$i))*;
            }
        }
        impl<$($t: Decode),*> Decode for ($($t,)*) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($(r.get::<$t>()?,)*))
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);

/// The [`HistogramSnapshot::to_words`] layout, unprefixed (the word count
/// is fixed).
impl Encode for HistogramSnapshot {
    fn encode(&self, w: &mut Writer) {
        for v in self.to_words() {
            w.put(&v);
        }
    }
}

impl Decode for HistogramSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut words = [0u64; 3 + telemetry::HIST_BUCKETS];
        for v in &mut words {
            *v = r.get()?;
        }
        Ok(HistogramSnapshot::from_words(&words).expect("a full word array"))
    }
}

impl Encode for StatsDelta {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.counters).put(&self.hists);
    }
}

impl Decode for StatsDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(StatsDelta { counters: r.get()?, hists: r.get()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_strings_and_options_roundtrip() {
        let mut w = Writer::new();
        w.u8(7).put(&0xdead_beef_u32).put(&u64::MAX).put(&-42i64).put(&2.5f64);
        w.put("héllo").put(&Some(9i64)).put(&None::<i64>).put(&true);
        let bytes = w.finish().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.get::<u32>().unwrap(), 0xdead_beef);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<i64>().unwrap(), -42);
        assert_eq!(r.get::<f64>().unwrap(), 2.5);
        assert_eq!(r.get::<String>().unwrap(), "héllo");
        assert_eq!(r.get::<Option<i64>>().unwrap(), Some(9));
        assert_eq!(r.get::<Option<i64>>().unwrap(), None);
        assert!(r.get::<bool>().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn values_roundtrip() {
        let values = vec![
            Value::Null,
            Value::Int(-5),
            Value::Float(1.25),
            Value::Text("a'b\"c".into()),
            Value::Timestamp(99.5),
            Value::Bool(true),
        ];
        assert_eq!(from_bytes::<Vec<Value>>(&to_bytes(&values).unwrap()).unwrap(), values);
    }

    #[test]
    fn a_length_prefix_overflow_is_a_latched_error() {
        // A 4 GiB string cannot be allocated in a unit test, so the prefix
        // path is exercised directly.
        let mut w = Writer::new();
        w.len(u32::MAX as usize);
        assert_eq!(w.finish().unwrap(), u32::MAX.to_le_bytes(), "u32::MAX itself still fits");
        let mut w = Writer::new();
        w.len(u32::MAX as usize + 1);
        w.fail("a later error".into()); // only the first is kept
        let err = w.finish().unwrap_err();
        assert!(err.0.contains("overflows the u32 length prefix"), "{err}");
    }

    #[test]
    fn a_count_larger_than_the_bytes_left_is_refused_before_allocating() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.push(0);
        let err = from_bytes::<Vec<Value>>(&bytes).unwrap_err();
        assert!(err.0.contains("exceeds the 1 bytes left"), "{err}");
        // exactly as many items as bytes left is still read
        assert_eq!(from_bytes::<Vec<Value>>(&[2, 0, 0, 0, 0, 0]).unwrap(), vec![Value::Null; 2]);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_refused_by_name() {
        let bytes = to_bytes("hello").unwrap();
        for cut in 0..bytes.len() {
            let err = from_bytes::<String>(&bytes[..cut]).unwrap_err();
            assert!(err.0.contains("truncated"), "cut at {cut}: {err}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(from_bytes::<String>(&long).unwrap_err().0.contains("1 trailing bytes"));
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
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_alignment() {
        let data: Vec<u8> =
            (0..300u32).map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[1]).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_bitwise(s), "bytes {start}..{end}");
            }
        }
    }
}
