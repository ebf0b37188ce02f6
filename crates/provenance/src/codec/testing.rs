//! The property harness every [`Encode`]/[`Decode`] type runs through.
//!
//! [`check_codec`] draws values from a seeded [`Gen`] and checks three
//! things for each one:
//!
//! 1. the round trip is the identity, and encoding the decoded value gives
//!    the same bytes again;
//! 2. every strict prefix of the encoding is an `Err`;
//! 3. seeded damage decodes to `Ok` or `Err`, never a panic: one byte
//!    replaced, a 4- or 8-byte window overwritten with a hostile length, and
//!    random bytes of the same size.
//!
//! Decoding goes through [`from_bytes`], so the codec's count rule is what
//! keeps a hostile length from sizing an allocation.

use std::fmt::Debug;

use super::{from_bytes, to_bytes, Decode, Encode};
use crate::value::Value;

/// Damaged copies decoded per generated value.
const MUTATIONS: u32 = 64;

/// A seeded generator (SplitMix64) for sample values.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator whose sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    /// Any u64.
    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Any u8.
    pub fn u8(&mut self) -> u8 {
        self.u64().to_le_bytes()[0]
    }

    /// Any i64.
    pub fn i64(&mut self) -> i64 {
        i64::from_le_bytes(self.u64().to_le_bytes())
    }

    /// Uniform-ish in `0..n` (0 when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        match u64::try_from(n) {
            Ok(m) if m > 0 => usize::try_from(self.u64() % m).expect("below n"),
            _ => 0,
        }
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Any f64 but NaN (NaN is not equal to itself, so no round trip is).
    pub fn f64(&mut self) -> f64 {
        loop {
            let x = f64::from_bits(self.u64());
            if !x.is_nan() {
                return x;
            }
        }
    }

    /// A short string, sometimes empty, sometimes with multi-byte chars.
    pub fn text(&mut self) -> String {
        const CHARS: [char; 12] = ['a', 'Z', '0', ' ', '/', ':', '.', '_', '\n', 'é', 'λ', '漢'];
        (0..self.below(12)).map(|_| CHARS[self.below(CHARS.len())]).collect()
    }

    /// One table cell: a [`Value`] of any variant.
    pub fn cell(&mut self) -> Value {
        match self.below(6) {
            0 => Value::Null,
            1 => Value::Int(self.i64()),
            2 => Value::Float(self.f64()),
            3 => Value::Text(self.text()),
            4 => Value::Timestamp(self.f64()),
            _ => Value::Bool(self.bool()),
        }
    }

    /// Up to `max` items drawn by `item`.
    pub fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| item(self)).collect()
    }

    /// `None` or an item drawn by `item`.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| item(self))
    }
}

/// Run [`Encode`]/[`Decode`] of `T` over `cases` values drawn by `gen` (see
/// the module docs for what is checked).
///
/// # Panics
/// Panics on the first value that breaks a property, naming the case.
pub fn check_codec<T: Encode + Decode + PartialEq + Debug>(
    mut gen: impl FnMut(&mut Gen) -> T,
    cases: u32,
) {
    for case in 0..cases {
        let mut g = Gen::new(u64::from(case).wrapping_mul(0xA24B_AED4_963E_E407));
        let v = gen(&mut g);
        let bytes =
            to_bytes(&v).unwrap_or_else(|e| panic!("case {case}: {v:?} does not encode: {e}"));
        let back: T = from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: {v:?} does not decode: {e}"));
        assert_eq!(back, v, "case {case}: the round trip is not the identity");
        assert_eq!(to_bytes(&back).ok(), Some(bytes.clone()), "case {case}: re-encoding differs");
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<T>(&bytes[..cut]).is_err(),
                "case {case}: {cut}-byte prefix decodes"
            );
        }
        let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
        let hostile = [0, 1, len, len.saturating_add(1), 0x8000_0000, u32::MAX];
        for _ in 0..MUTATIONS {
            let mut m = bytes.clone();
            match g.below(3) {
                0 if !m.is_empty() => {
                    let at = g.below(m.len());
                    m[at] = m[at].wrapping_add(g.u8().max(1));
                }
                1 if m.len() >= 4 => {
                    let at = g.below(m.len() - 3);
                    m[at..at + 4].copy_from_slice(&hostile[g.below(hostile.len())].to_le_bytes());
                }
                _ if m.len() >= 8 => {
                    let at = g.below(m.len() - 7);
                    let n = [u64::MAX, u64::from(len) + 1][g.below(2)];
                    m[at..at + 8].copy_from_slice(&n.to_le_bytes());
                }
                _ => continue,
            }
            let _ = from_bytes::<T>(&m);
        }
        let noise: Vec<u8> = (0..bytes.len()).map(|_| g.u8()).collect();
        let _ = from_bytes::<T>(&noise);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generic_impls_pass_the_harness() {
        check_codec(|g| g.vec(6, Gen::cell), 64);
        check_codec(|g| (g.text(), g.option(Gen::f64), g.option(Gen::text)), 64);
        check_codec(|g| g.vec(3, |g| g.vec(3, Gen::i64)), 64);
    }

    #[test]
    #[should_panic(expected = "round trip is not the identity")]
    fn a_lossy_codec_is_caught() {
        /// Encodes as a u8, so the values drawn here, all above 255, come
        /// back wrong.
        #[derive(Debug, PartialEq)]
        struct Narrow(u32);
        impl Encode for Narrow {
            fn encode(&self, w: &mut crate::codec::Writer) {
                w.u8(self.0.to_le_bytes()[0]);
            }
        }
        impl Decode for Narrow {
            fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::CodecError> {
                r.u8().map(|b| Narrow(u32::from(b)))
            }
        }
        check_codec(|g| Narrow(256 + u32::from(g.u8())), 8);
    }
}
