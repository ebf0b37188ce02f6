//! Minimal JSON writing and validation helpers (std-only — the trace
//! exporter and the metrics snapshot hand-roll their JSON, and tests
//! validate the output with the tiny recursive-descent checker here).

use std::fmt::Write as _;

/// Escape `s` as the *contents* of a JSON string (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number (`null` for NaN/inf, which JSON cannot
/// represent; integral values render without a fractional part).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Validate that `s` is one well-formed JSON value. Returns the byte offset
/// of the first error. This is a *checker*, not a parser — it builds nothing.
pub fn validate(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(i)
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), usize> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(*i),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(*i)
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), usize> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(start);
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(*i);
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(*i);
        }
    }
    Ok(())
}

fn string(b: &[u8], i: &mut usize) -> Result<(), usize> {
    if b.get(*i) != Some(&b'"') {
        return Err(*i);
    }
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(*i);
                        }
                        *i += 5;
                    }
                    _ => return Err(*i),
                }
            }
            0x00..=0x1f => return Err(*i),
            _ => *i += 1,
        }
    }
    Err(*i)
}

fn array(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => {
                *i += 1;
                skip_ws(b, i);
            }
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(*i);
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => {
                *i += 1;
                skip_ws(b, i);
            }
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn num_renders_cleanly() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(3.5), "3.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(-0.25), "-0.25");
    }

    #[test]
    fn validator_accepts_good_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\u00e9b\"",
            r#"{"a":[1,2,{"b":null}],"c":"x"}"#,
            " { \"k\" : [ true , false ] } ",
        ] {
            assert!(validate(ok).is_ok(), "should accept {ok}");
        }
    }

    #[test]
    fn validator_rejects_bad_json() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "01x", "\"unterminated", "{} extra", "{'a':1}"] {
            assert!(validate(bad).is_err(), "should reject {bad}");
        }
    }
}
