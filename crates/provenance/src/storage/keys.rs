//! Order-preserving key encoding for B+tree indexes.
//!
//! Encoded keys compare byte-wise (memcmp) in exactly the order
//! [`Value::compare`] defines, so an index range scan over encoded keys
//! selects the same rows a predicate over the decoded values would:
//!
//! - tag `0x00` NULL  — sorts first (SQL comparisons with NULL are unknown,
//!   so scans constructed from typed bounds never include this tag class)
//! - tag `0x01` BOOL  — one byte, `false < true`
//! - tag `0x02` NUM   — Int/Float/Timestamp, all encoded through `as_f64`
//!   with the sign-flip trick, matching `f64::total_cmp` (and therefore
//!   `Value::compare`, which compares numerics via `as_f64` + `total_cmp`)
//! - tag `0x03` TEXT  — UTF-8 bytes with `0x00 → 0x00 0xFF` escaping and a
//!   `0x00 0x00` terminator, making encodings prefix-free
//!
//! Composite keys concatenate the per-column encodings; prefix-freeness
//! keeps concatenation order-correct. Index entries append the 8-byte
//! big-endian rowid so duplicate column values stay unique and iterate in
//! insertion order.
//!
//! Long keys are truncated to [`MAX_KEY_BYTES`]; bounds derived from
//! truncated keys are *widened* (never narrowed), so an index lookup is
//! always a superset pre-filter — the executor re-applies every predicate
//! on the fetched rows.

use std::ops::Bound;

use crate::value::Value;

/// Maximum encoded-column-key length before truncation (rowid suffix not
/// included). Keeps B+tree fan-out high even with pathological text keys.
pub const MAX_KEY_BYTES: usize = 256;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_NUM: u8 = 0x02;
const TAG_TEXT: u8 = 0x03;

fn encode_f64(x: f64, out: &mut Vec<u8>) {
    let bits = x.to_bits();
    // standard total-order trick: flip all bits of negatives, flip only the
    // sign bit of non-negatives; resulting u64 order == f64::total_cmp
    let mapped = if bits >> 63 == 1 { !bits } else { bits | (1 << 63) };
    out.extend_from_slice(&mapped.to_be_bytes());
}

/// Append the order-preserving encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => {
            out.push(TAG_NUM);
            encode_f64(v.as_f64().expect("numeric"), out);
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            for &b in s.as_bytes() {
                out.push(b);
                if b == 0x00 {
                    out.push(0xFF);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

/// Encode a composite key from `vals`, truncated to [`MAX_KEY_BYTES`].
/// Returns the (possibly truncated) bytes and whether truncation happened.
pub fn encode_key<'a>(vals: impl IntoIterator<Item = &'a Value>) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    for v in vals {
        encode_value(v, &mut out);
        if out.len() > MAX_KEY_BYTES {
            out.truncate(MAX_KEY_BYTES);
            return (out, true);
        }
    }
    (out, false)
}

/// Smallest byte string strictly greater than every string prefixed by
/// `bytes` (`None` when no such string exists, i.e. all `0xFF`).
pub fn prefix_upper(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut out = bytes.to_vec();
    while let Some(&last) = out.last() {
        if last < 0xFF {
            *out.last_mut().expect("non-empty") = last + 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

/// Index-entry key: truncated composite column key + big-endian rowid.
pub fn entry_key<'a>(vals: impl IntoIterator<Item = &'a Value>, rowid: u64) -> Vec<u8> {
    let (mut k, _) = encode_key(vals);
    k.extend_from_slice(&rowid.to_be_bytes());
    k
}

/// Byte range covering every index entry whose column key equals `vals`
/// (a superset when truncation occurred).
pub fn eq_range(vals: &[Value]) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    let (k, _) = encode_key(vals);
    let hi = match prefix_upper(&k) {
        Some(u) => Bound::Excluded(u),
        None => Bound::Unbounded,
    };
    (Bound::Included(k), hi)
}

/// Lower bound for a range scan on the index's *first* column.
/// Widened to inclusive whenever truncation (or an un-incrementable key)
/// would otherwise risk excluding true matches.
pub fn lo_bound(v: &Value, inclusive: bool) -> Bound<Vec<u8>> {
    let (k, truncated) = encode_key(std::slice::from_ref(v));
    if inclusive || truncated {
        return Bound::Included(k);
    }
    // v > lo ⇔ entry ≥ the upper bound of lo's own prefix class
    match prefix_upper(&k) {
        Some(u) => Bound::Included(u),
        None => Bound::Included(k), // widen: filter re-checks
    }
}

/// Upper bound for a range scan on the index's first column (widened on
/// truncation, like [`lo_bound`]).
pub fn hi_bound(v: &Value, inclusive: bool) -> Bound<Vec<u8>> {
    let (k, truncated) = encode_key(std::slice::from_ref(v));
    if inclusive || truncated {
        return match prefix_upper(&k) {
            Some(u) => Bound::Excluded(u),
            None => Bound::Unbounded,
        };
    }
    Bound::Excluded(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc1(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(v, &mut out);
        out
    }

    #[test]
    fn numeric_order_matches_value_compare() {
        let vals = [
            Value::Float(f64::NEG_INFINITY),
            Value::Int(-5),
            Value::Float(-1.5),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.25),
            Value::Int(3),
            Value::Timestamp(3.5),
            Value::Float(1e300),
            Value::Float(f64::INFINITY),
        ];
        for w in vals.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let enc_cmp = enc1(a).cmp(&enc1(b));
            let val_cmp = a.compare(b).unwrap();
            assert!(enc_cmp == val_cmp || enc_cmp.is_eq() && val_cmp.is_eq(), "{a} vs {b}");
        }
    }

    #[test]
    fn text_order_and_prefix_freeness() {
        let a = enc1(&Value::Text("a".into()));
        let ab = enc1(&Value::Text("ab".into()));
        let a0 = enc1(&Value::Text("a\0".into()));
        let b = enc1(&Value::Text("b".into()));
        assert!(a < ab && ab < b);
        assert!(a < a0 && a0 < ab, "NUL escaping keeps order");
        for (x, y) in [(&a, &ab), (&a, &a0), (&a0, &ab)] {
            assert!(!y.starts_with(x), "encodings must be prefix-free");
        }
    }

    #[test]
    fn tag_classes_are_disjoint_and_ordered() {
        let null = enc1(&Value::Null);
        let f = enc1(&Value::Bool(false));
        let t = enc1(&Value::Bool(true));
        let n = enc1(&Value::Int(i64::MIN));
        let s = enc1(&Value::Text(String::new()));
        assert!(null < f && f < t && t < n && n < s);
    }

    #[test]
    fn entry_keys_break_ties_by_rowid() {
        let v = [Value::Int(7)];
        let a = entry_key(&v, 1);
        let b = entry_key(&v, 2);
        assert!(a < b);
        let (lo, hi) = eq_range(&v);
        let within = |k: &Vec<u8>| {
            (match &lo {
                Bound::Included(l) => k >= l,
                _ => unreachable!(),
            }) && (match &hi {
                Bound::Excluded(h) => k < h,
                Bound::Unbounded => true,
                _ => unreachable!(),
            })
        };
        assert!(within(&a) && within(&b));
        let other = entry_key(&[Value::Int(8)], 0);
        assert!(!within(&other));
    }

    #[test]
    fn truncation_widens_bounds() {
        let long = Value::Text("x".repeat(4000));
        let (k, truncated) = encode_key(std::slice::from_ref(&long));
        assert!(truncated && k.len() == MAX_KEY_BYTES);
        // a longer value sharing the 256-byte prefix must stay inside the
        // widened eq-range of `long`
        let longer = Value::Text("x".repeat(5000));
        let entry = entry_key(std::slice::from_ref(&longer), 9);
        let (lo, hi) = eq_range(std::slice::from_ref(&long));
        let ge_lo = matches!(&lo, Bound::Included(l) if &entry >= l);
        let lt_hi = match &hi {
            Bound::Excluded(h) => &entry < h,
            Bound::Unbounded => true,
            _ => false,
        };
        assert!(ge_lo && lt_hi, "superset guarantee under truncation");
    }

    #[test]
    fn prefix_upper_edge_cases() {
        assert_eq!(prefix_upper(&[1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(prefix_upper(&[1, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_upper(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper(&[]), None);
    }
}
