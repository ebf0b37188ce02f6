//! Exact-roundtrip serialization of precomputed grid sets, and the knob
//! header that — with the receptor's content digest — keys the persistent
//! cross-campaign grid cache.
//!
//! Receptor maps are ligand-independent (built over the full probe-type
//! superset), so one receptor's grid set can be reused by every campaign
//! that docks against it. The cache entry format (`SDGC1`) is ASCII: every
//! `f64` is written as the 16-hex-digit form of its IEEE-754 bits, which
//! round-trips exactly — a warm-cache run reproduces byte-identical map
//! files and therefore byte-identical provenance. A trailing FNV-1a digest
//! over the body rejects torn or corrupt entries (writers use temp+rename,
//! so a valid file is all-or-nothing anyway).

use std::fmt::Write as _;
use std::str::FromStr;

use molkit::AdType;

use crate::autogrid::{GridKind, GridSet};
use crate::grid::{GridMap, GridSpec};

/// Magic tag + format version of serialized grid-set cache entries.
pub const GRID_CACHE_MAGIC: &str = "SDGC1";

/// A malformed or corrupt serialized grid set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridIoError(pub String);

impl std::fmt::Display for GridIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid cache entry: {}", self.0)
    }
}

impl std::error::Error for GridIoError {}

/// 64-bit FNV-1a over a byte string: the integrity footer of an `SDGC1`
/// entry.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every knob that shapes a grid set's maps — engine, spacing, box edge,
/// pocket probe, probe-type superset — and the format version, as the text
/// a grid-set cache key digests ahead of the receptor's content digest, so
/// incompatible entries never collide.
pub fn grid_key_header(
    engine_label: &str,
    grid_spacing: f64,
    box_edge: f64,
    pocket_probe: f64,
    types: &[AdType],
) -> String {
    let mut header = String::with_capacity(128);
    let _ = write!(
        header,
        "{GRID_CACHE_MAGIC}|{engine_label}|{:016x}|{:016x}|{:016x}|",
        grid_spacing.to_bits(),
        box_edge.to_bits(),
        pocket_probe.to_bits()
    );
    for t in types {
        header.push_str(t.label());
        header.push(',');
    }
    header.push('|');
    header
}

fn push_f64(out: &mut String, v: f64) {
    push_hex16(out, v.to_bits());
}

/// Append `v` as `format!("{v:016x}")` writes it: 16 lower-case hex
/// digits, most significant first.
fn push_hex16(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[(v >> (60 - 4 * i) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("ASCII digits"));
}

/// The value of a hex digit, or `0xff` for any other byte.
const HEX_VALUE: [u8; 256] = {
    let mut t = [0xff; 256];
    let mut c = 0;
    while c < 256 {
        t[c] = match c as u8 {
            d @ b'0'..=b'9' => d - b'0',
            d @ b'a'..=b'f' => d - b'a' + 10,
            d @ b'A'..=b'F' => d - b'A' + 10,
            _ => 0xff,
        };
        c += 1;
    }
    t
};

/// `u64::from_str_radix(tok, 16)`, with a fast path for the one shape an
/// entry writes: exactly 16 hex digits. Every other token (a sign, fewer
/// or more digits, anything but a hex digit) goes to `from_str_radix`, so
/// the same tokens are accepted and refused.
fn parse_hex16(tok: &str) -> Result<u64, std::num::ParseIntError> {
    if let Ok(digits) = <&[u8; 16]>::try_from(tok.as_bytes()) {
        let (mut v, mut bad) = (0u64, 0u8);
        for &d in digits {
            let x = HEX_VALUE[d as usize];
            bad |= x;
            v = v << 4 | u64::from(x & 0xf);
        }
        // a digit's value has its high bits clear; 0xff has them set
        if bad & 0xf0 == 0 {
            return Ok(v);
        }
    }
    u64::from_str_radix(tok, 16)
}

fn push_map(out: &mut String, label: &str, map: &GridMap) {
    out.push_str("map ");
    out.push_str(label);
    for v in map.values() {
        out.push(' ');
        push_f64(out, *v);
    }
    out.push('\n');
}

/// Serialize a grid set into the `SDGC1` cache-entry text.
pub fn serialize_grid_set(g: &GridSet) -> String {
    let spec = g.spec;
    // 16 hex digits + a separator per lattice value
    let mut out = String::with_capacity(g.maps().count() * (spec.len() * 17 + 16) + 128);
    out.push_str(GRID_CACHE_MAGIC);
    out.push_str(match g.kind {
        GridKind::Ad4 => " ad4 ",
        GridKind::Vina => " vina ",
    });
    out.push_str(&format!("{} ", spec.npts));
    push_f64(&mut out, spec.spacing);
    out.push(' ');
    push_f64(&mut out, spec.center.x);
    out.push(' ');
    push_f64(&mut out, spec.center.y);
    out.push(' ');
    push_f64(&mut out, spec.center.z);
    out.push_str(&format!(
        " {} {} {}\n",
        g.affinity.len(),
        u8::from(g.electrostatic.is_some()),
        u8::from(g.desolvation.is_some())
    ));
    for (label, m) in g.maps() {
        push_map(&mut out, label, m);
    }
    let digest = fnv1a64(out.as_bytes());
    out.push_str("end ");
    push_hex16(&mut out, digest);
    out.push('\n');
    out
}

fn parse_f64(tok: &str) -> Result<f64, GridIoError> {
    parse_hex16(tok).map(f64::from_bits).map_err(|_| GridIoError(format!("bad f64 bits {tok:?}")))
}

/// Parse one `map` line of a lattice of `points` values.
fn parse_map(line: &str, spec: GridSpec, points: usize) -> Result<(String, GridMap), GridIoError> {
    let mut toks = line.split_ascii_whitespace();
    let tag = toks.next();
    if tag != Some("map") {
        return Err(GridIoError(format!("expected map line, got {tag:?}")));
    }
    let label = toks.next().ok_or_else(|| GridIoError("map line missing label".into()))?;
    // a value takes at least two bytes of the line (a digit and a
    // separator), so a lattice the line cannot hold sizes no allocation
    let mut values = Vec::with_capacity(points.min(line.len() / 2));
    for tok in toks {
        values.push(parse_f64(tok)?);
    }
    if values.len() != points {
        return Err(GridIoError(format!(
            "map {label}: {} values for a {points}-point lattice",
            values.len()
        )));
    }
    Ok((label.to_string(), GridMap::from_values(spec, values)))
}

/// Deserialize an `SDGC1` cache entry, verifying its integrity digest.
pub fn deserialize_grid_set(text: &str) -> Result<GridSet, GridIoError> {
    // split off and verify the trailing digest line first
    let body_end =
        text.rfind("end ").ok_or_else(|| GridIoError("missing integrity footer".into()))?;
    let body = &text[..body_end];
    let footer = text[body_end..].trim();
    let want = footer
        .strip_prefix("end ")
        .and_then(|d| parse_hex16(d.trim()).ok())
        .ok_or_else(|| GridIoError(format!("bad integrity footer {footer:?}")))?;
    let got = fnv1a64(body.as_bytes());
    if got != want {
        return Err(GridIoError(format!("integrity digest mismatch: {got:016x} != {want:016x}")));
    }

    let mut lines = body.lines();
    let header = lines.next().ok_or_else(|| GridIoError("empty entry".into()))?;
    let h: Vec<&str> = header.split_ascii_whitespace().collect();
    if h.len() != 10 || h[0] != GRID_CACHE_MAGIC {
        return Err(GridIoError(format!("bad header {header:?}")));
    }
    let kind = match h[1] {
        "ad4" => GridKind::Ad4,
        "vina" => GridKind::Vina,
        other => return Err(GridIoError(format!("unknown engine {other:?}"))),
    };
    let npts: usize = h[2].parse().map_err(|_| GridIoError(format!("bad npts {:?}", h[2])))?;
    // npts³ from the header, checked: each map line must then hold exactly
    // that many values, and the header alone sizes no allocation
    let points = Some(npts)
        .filter(|&n| n >= 2)
        .and_then(|n| n.checked_mul(n)?.checked_mul(n))
        .ok_or_else(|| GridIoError(format!("bad npts {npts}")))?;
    let spacing = parse_f64(h[3])?;
    let center = molkit::Vec3::new(parse_f64(h[4])?, parse_f64(h[5])?, parse_f64(h[6])?);
    let n_aff: usize =
        h[7].parse().map_err(|_| GridIoError(format!("bad map count {:?}", h[7])))?;
    let has_e = h[8] == "1";
    let has_d = h[9] == "1";
    let spec = GridSpec { center, npts, spacing };

    let mut g = GridSet {
        kind,
        spec,
        affinity: Default::default(),
        electrostatic: None,
        desolvation: None,
    };
    for _ in 0..n_aff {
        let line = lines.next().ok_or_else(|| GridIoError("truncated affinity maps".into()))?;
        let (label, map) = parse_map(line, spec, points)?;
        let t = AdType::from_str(&label)
            .map_err(|_| GridIoError(format!("unknown AD type {label:?}")))?;
        g.affinity.insert(t, map);
    }
    if has_e {
        let line = lines.next().ok_or_else(|| GridIoError("missing electrostatic map".into()))?;
        g.electrostatic = Some(parse_map(line, spec, points)?.1);
    }
    if has_d {
        let line = lines.next().ok_or_else(|| GridIoError("missing desolvation map".into()))?;
        g.desolvation = Some(parse_map(line, spec, points)?.1);
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autogrid::{build_ad4_grids, build_vina_grids};
    use crate::params::{Ad4Params, VinaParams};
    use molkit::atom::Atom;
    use molkit::molecule::Molecule;
    use molkit::{Element, Vec3};

    fn receptor() -> Molecule {
        let mut m = Molecule::new("R");
        let mut a = Atom::new(1, "OA", Element::O, Vec3::new(-1.5, 0.2, 0.0));
        a.charge = -0.4;
        a.ad_type = AdType::OA;
        m.add_atom(a);
        let mut b = Atom::new(2, "C", Element::C, Vec3::new(1.5, -0.3, 0.4));
        b.charge = 0.2;
        b.ad_type = AdType::C;
        m.add_atom(b);
        m
    }

    fn spec() -> GridSpec {
        GridSpec { center: Vec3::new(0.1, -0.2, 0.3), npts: 9, spacing: 0.7 }
    }

    #[test]
    fn roundtrip_is_exact_for_both_engines() {
        let r = receptor();
        let types = [AdType::C, AdType::OA, AdType::HD];
        let ga = build_ad4_grids(&r, spec(), &types, &Ad4Params::new());
        let gv = build_vina_grids(&r, spec(), &types, &VinaParams::default());
        for g in [&ga, &gv] {
            let text = serialize_grid_set(g);
            let back = deserialize_grid_set(&text).unwrap();
            assert_eq!(back.kind, g.kind);
            assert_eq!(back.spec, g.spec);
            assert_eq!(back.affinity.len(), g.affinity.len());
            for (t, m) in &g.affinity {
                let bm = &back.affinity[t];
                for (a, b) in m.values().iter().zip(bm.values()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            assert_eq!(g.electrostatic.is_some(), back.electrostatic.is_some());
            assert_eq!(g.desolvation.is_some(), back.desolvation.is_some());
            // a second serialization of the roundtripped set is byte-identical
            assert_eq!(text, serialize_grid_set(&back));
        }
    }

    /// The composition `serialize_grid_set` replaced (one `format!` per
    /// value): entries written by it must keep loading.
    fn serialize_reference(g: &GridSet) -> String {
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        let mut out = format!(
            "{GRID_CACHE_MAGIC} {} {} {} {} {} {} {} {} {}\n",
            match g.kind {
                GridKind::Ad4 => "ad4",
                GridKind::Vina => "vina",
            },
            g.spec.npts,
            hex(g.spec.spacing),
            hex(g.spec.center.x),
            hex(g.spec.center.y),
            hex(g.spec.center.z),
            g.affinity.len(),
            u8::from(g.electrostatic.is_some()),
            u8::from(g.desolvation.is_some())
        );
        let labelled = g
            .affinity
            .iter()
            .map(|(t, m)| (t.label(), m))
            .chain(g.electrostatic.iter().map(|m| ("e", m)))
            .chain(g.desolvation.iter().map(|m| ("d", m)));
        for (label, m) in labelled {
            out.push_str("map ");
            out.push_str(label);
            for v in m.values() {
                out.push(' ');
                out.push_str(&hex(*v));
            }
            out.push('\n');
        }
        let digest = fnv1a64(out.as_bytes());
        out.push_str(&format!("end {digest:016x}\n"));
        out
    }

    /// A SplitMix64 stream.
    fn bits_stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn hex_codec_round_trips_random_bits_as_core_fmt_writes_them() {
        let mut next = bits_stream(16);
        let mut out = String::new();
        for v in
            (0..200_000).map(|_| next()).chain([0, 1, u64::MAX, 1 << 63, 0x0123_4567_89ab_cdef])
        {
            out.clear();
            push_hex16(&mut out, v);
            assert_eq!(out, format!("{v:016x}"));
            assert_eq!(parse_hex16(&out), Ok(v));
            assert_eq!(parse_hex16(&out.to_uppercase()), Ok(v));
        }
    }

    #[test]
    fn a_token_that_is_not_16_hex_digits_is_judged_as_from_str_radix_judges_it() {
        let same = |tok: &str| {
            assert_eq!(parse_hex16(tok).ok(), u64::from_str_radix(tok, 16).ok(), "{tok:?}");
        };
        for tok in [
            "",
            "+",
            "-",
            "0",
            "ff",
            "+0123456789abcde",
            "-0123456789abcde",
            "+0123456789abcdef",
            "0123456789abcdeg",
            "0123456789abcde",
            "00000000000000000",
            "10000000000000000",
            "0123456789ABCDEF",
            " 123456789abcdef",
            "0123456789abcde ",
            "0x23456789abcdef",
            "é123456789abcde",
            "012345678\u{0}abcdef",
        ] {
            same(tok);
        }
        // random tokens over hex digits and the bytes around them
        let alphabet = b"0123456789abcdefABCDEFgG+- x/:@`";
        let mut next = bits_stream(17);
        for _ in 0..100_000 {
            let len = (next() % 20) as usize;
            let tok: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize] as char)
                .collect();
            same(&tok);
        }
    }

    #[test]
    fn entry_bytes_match_the_reference_composition() {
        let types = [AdType::C, AdType::OA, AdType::HD];
        let r = receptor();
        let ga = build_ad4_grids(&r, spec(), &types, &Ad4Params::new());
        let gv = build_vina_grids(&r, spec(), &types, &VinaParams::default());
        for g in [&ga, &gv] {
            assert_eq!(serialize_grid_set(g), serialize_reference(g));
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let g = build_vina_grids(&receptor(), spec(), &[AdType::C], &VinaParams::default());
        let text = serialize_grid_set(&g);
        assert!(deserialize_grid_set(&text[..text.len() / 2]).is_err(), "torn entry");
        let flipped = text.replacen('a', "b", 1);
        if flipped != text {
            assert!(deserialize_grid_set(&flipped).is_err(), "bit flip");
        }
        assert!(deserialize_grid_set("").is_err());
        assert!(deserialize_grid_set("garbage").is_err());
    }

    /// `text` with its header's `npts` replaced and the footer recomputed,
    /// so only the lattice size is wrong.
    fn with_npts(text: &str, npts: &str) -> String {
        let body = &text[..text.rfind("end ").unwrap()];
        let (header, maps) = body.split_once('\n').unwrap();
        let mut h: Vec<&str> = header.split(' ').collect();
        h[2] = npts;
        let body = format!("{}\n{maps}", h.join(" "));
        format!("{body}end {:016x}\n", fnv1a64(body.as_bytes()))
    }

    #[test]
    fn a_lattice_size_the_map_lines_do_not_hold_is_refused_before_allocating() {
        let g = build_vina_grids(&receptor(), spec(), &[AdType::C], &VinaParams::default());
        let text = serialize_grid_set(&g);
        assert!(deserialize_grid_set(&with_npts(&text, "9")).is_ok(), "the untouched size loads");
        // 10¹⁵ points, 2⁶⁶ (wraps a u64), and sizes too small to dock in
        for npts in ["100000", "4194304", "0", "1"] {
            let err = deserialize_grid_set(&with_npts(&text, npts)).unwrap_err();
            assert!(err.0.contains("npts") || err.0.contains("-point lattice"), "{npts}: {err}");
        }
    }

    #[test]
    fn key_header_separates_every_knob() {
        let types = [AdType::C, AdType::OA];
        let base = grid_key_header("ad4", 0.375, 22.5, 1.4, &types);
        assert_eq!(
            base, "SDGC1|ad4|3fd8000000000000|4036800000000000|3ff6666666666666|C,OA,|",
            "the text on-disk entry names digest"
        );
        for (other, knob) in [
            (grid_key_header("vina", 0.375, 22.5, 1.4, &types), "engine"),
            (grid_key_header("ad4", 0.5, 22.5, 1.4, &types), "spacing"),
            (grid_key_header("ad4", 0.375, 24.0, 1.4, &types), "box edge"),
            (grid_key_header("ad4", 0.375, 22.5, 1.6, &types), "pocket probe"),
            (grid_key_header("ad4", 0.375, 22.5, 1.4, &[AdType::C]), "type superset"),
        ] {
            assert_ne!(base, other, "{knob}");
        }
    }
}
