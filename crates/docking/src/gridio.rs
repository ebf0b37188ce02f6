//! Exact-roundtrip serialization of precomputed grid sets and the FNV
//! content digest that keys the persistent cross-campaign grid cache.
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

/// 64-bit FNV-1a over a byte string (std-only content hashing; collisions
/// are astronomically unlikely across a few hundred receptors, and a wrong
/// hit would still deserialize to a well-formed grid set of the wrong
/// receptor — the digest input includes everything that shapes the maps).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over more bytes: `fnv1a64_from(fnv1a64(a), b)`
/// equals `fnv1a64` of `a` followed by `b`.
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content address of a receptor's grid set: digests the receptor PDBQT
/// *text* (no reparse needed on lookup) together with every knob that shapes
/// the maps — engine, spacing, box edge, pocket probe, probe-type superset —
/// and the format version, so incompatible entries can never collide.
pub fn grid_set_digest(
    receptor_pdbqt: &str,
    engine_label: &str,
    grid_spacing: f64,
    box_edge: f64,
    pocket_probe: f64,
    types: &[AdType],
) -> u64 {
    // the header is a few dozen bytes; the receptor text (tens of KB, hashed
    // on every cache lookup) is fed to the same running hash in place
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
    fnv1a64_from(fnv1a64(header.as_bytes()), receptor_pdbqt.as_bytes())
}

fn push_f64(out: &mut String, v: f64) {
    // `fmt::Write` into a `String` cannot fail
    let _ = write!(out, "{:016x}", v.to_bits());
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
    out.push_str(&format!("end {digest:016x}\n"));
    out
}

fn parse_f64(tok: &str) -> Result<f64, GridIoError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| GridIoError(format!("bad f64 bits {tok:?}")))
}

fn parse_map(line: &str, spec: GridSpec) -> Result<(String, GridMap), GridIoError> {
    let mut toks = line.split_ascii_whitespace();
    let tag = toks.next();
    if tag != Some("map") {
        return Err(GridIoError(format!("expected map line, got {tag:?}")));
    }
    let label = toks.next().ok_or_else(|| GridIoError("map line missing label".into()))?;
    let mut values = Vec::with_capacity(spec.len());
    for tok in toks {
        values.push(parse_f64(tok)?);
    }
    if values.len() != spec.len() {
        return Err(GridIoError(format!(
            "map {label}: {} values for a {}-point lattice",
            values.len(),
            spec.len()
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
        .and_then(|d| u64::from_str_radix(d.trim(), 16).ok())
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
        let (label, map) = parse_map(line, spec)?;
        let t = AdType::from_str(&label)
            .map_err(|_| GridIoError(format!("unknown AD type {label:?}")))?;
        g.affinity.insert(t, map);
    }
    if has_e {
        let line = lines.next().ok_or_else(|| GridIoError("missing electrostatic map".into()))?;
        g.electrostatic = Some(parse_map(line, spec)?.1);
    }
    if has_d {
        let line = lines.next().ok_or_else(|| GridIoError("missing desolvation map".into()))?;
        g.desolvation = Some(parse_map(line, spec)?.1);
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

    /// The compositions `grid_set_digest` and `serialize_grid_set` replaced
    /// (whole key concatenated before hashing; one `format!` per value).
    /// `<digest>.grid` entries written by them must keep hitting.
    fn digest_reference(
        receptor_pdbqt: &str,
        engine_label: &str,
        knobs: [f64; 3],
        types: &[AdType],
    ) -> u64 {
        let mut key = format!(
            "{GRID_CACHE_MAGIC}|{engine_label}|{:016x}|{:016x}|{:016x}|",
            knobs[0].to_bits(),
            knobs[1].to_bits(),
            knobs[2].to_bits()
        );
        for t in types {
            key.push_str(t.label());
            key.push(',');
        }
        key.push('|');
        key.push_str(receptor_pdbqt);
        fnv1a64(key.as_bytes())
    }

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

    #[test]
    fn digest_and_entry_bytes_match_the_reference_compositions() {
        let types = [AdType::C, AdType::OA, AdType::HD];
        let text = "ATOM      1  OA  LIG     1      -1.500   0.200   0.000 -0.40 OA\n";
        assert_eq!(
            grid_set_digest(text, "autodock4", 0.375, 22.5, 1.4, &types),
            digest_reference(text, "autodock4", [0.375, 22.5, 1.4], &types)
        );
        // pinned value: a change here orphans every cache entry on disk
        assert_eq!(
            grid_set_digest("ATOM 1", "ad4", 0.375, 22.5, 1.4, &types),
            0x5e63_6ef3_bd54_d040
        );
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

    #[test]
    fn digest_separates_every_knob() {
        let base = grid_set_digest("ATOM 1", "ad4", 0.375, 22.5, 1.4, &[AdType::C, AdType::OA]);
        assert_ne!(
            base,
            grid_set_digest("ATOM 2", "ad4", 0.375, 22.5, 1.4, &[AdType::C, AdType::OA]),
            "receptor text"
        );
        assert_ne!(
            base,
            grid_set_digest("ATOM 1", "vina", 0.375, 22.5, 1.4, &[AdType::C, AdType::OA]),
            "engine"
        );
        assert_ne!(
            base,
            grid_set_digest("ATOM 1", "ad4", 0.5, 22.5, 1.4, &[AdType::C, AdType::OA]),
            "spacing"
        );
        assert_ne!(
            base,
            grid_set_digest("ATOM 1", "ad4", 0.375, 24.0, 1.4, &[AdType::C, AdType::OA]),
            "box edge"
        );
        assert_ne!(
            base,
            grid_set_digest("ATOM 1", "ad4", 0.375, 22.5, 1.6, &[AdType::C, AdType::OA]),
            "pocket probe"
        );
        assert_ne!(
            base,
            grid_set_digest("ATOM 1", "ad4", 0.375, 22.5, 1.4, &[AdType::C]),
            "type superset"
        );
        // deterministic
        assert_eq!(
            base,
            grid_set_digest("ATOM 1", "ad4", 0.375, 22.5, 1.4, &[AdType::C, AdType::OA])
        );
    }
}
