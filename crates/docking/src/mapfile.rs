//! AutoGrid `.map` file format — the on-disk representation of one
//! [`crate::grid::GridMap`].
//!
//! Real AutoGrid writes a six-line header followed by one energy value per
//! line, z-major (x fastest), which is exactly our storage order:
//!
//! ```text
//! GRID_PARAMETER_FILE lig_rec.gpf
//! GRID_DATA_FILE rec.maps.fld
//! MACROMOLECULE rec.pdbqt
//! SPACING 0.375
//! NELEMENTS 40 40 40        (intervals per axis = npts − 1)
//! CENTER 2.500 6.500 -7.500
//! -0.3231
//! …
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use crate::autogrid::GridSet;
use crate::grid::GridMap;

/// Render a grid map as AutoGrid `.map` text.
///
/// `gpf_name` and `receptor_name` fill the provenance header lines.
pub fn write_map(map: &GridMap, gpf_name: &str, receptor_name: &str) -> String {
    let spec = map.spec;
    let n = spec.npts - 1;
    let mut out = String::with_capacity(spec.len() * 8 + 200);
    // `fmt::Write` into a `String` cannot fail
    let _ = write!(
        out,
        "GRID_PARAMETER_FILE {gpf_name}\n\
         GRID_DATA_FILE {receptor_name}.maps.fld\n\
         MACROMOLECULE {receptor_name}.pdbqt\n\
         SPACING {}\n\
         NELEMENTS {n} {n} {n}\n\
         CENTER {:.3} {:.3} {:.3}\n",
        spec.spacing, spec.center.x, spec.center.y, spec.center.z
    );
    for &v in map.values() {
        // AutoGrid prints %.3f for typical magnitudes; keep more precision
        // so roundtrips are tight
        push_fixed6(&mut out, v);
        out.push('\n');
    }
    out
}

/// Append `v` as `format!("{v:.6}")` writes it: the exact binary value
/// rounded to six decimals, ties to even, a `-` on every negative value
/// (`-0.0` included), no exponent.
///
/// Below 2⁵³ in magnitude `v = m / 2^s` for integers `m < 2⁵³` and `s`,
/// so `v·10⁶ = m·10⁶ / 2^s` with `m·10⁶ < 2⁷³`: one 128-bit product and
/// shift give the rounded integer, whose digits are the text. Anything
/// else (±∞, NaN, magnitudes from 2⁵³ on) goes through `core::fmt`.
fn push_fixed6(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let biased = (bits >> 52 & 0x7ff) as u32;
    if biased > 1075 {
        let _ = write!(out, "{v:.6}");
        return;
    }
    let frac = bits & ((1 << 52) - 1);
    let (m, s) = if biased == 0 { (frac, 1074) } else { (frac | 1 << 52, 1075 - biased) };
    let x = m as u128 * 1_000_000;
    let n = match s {
        0 => x,
        // x < 2⁷³ ≤ half of 2^s: rounds to zero
        74.. => 0,
        _ => {
            let (q, rem, half) = (x >> s, x & ((1 << s) - 1), 1u128 << (s - 1));
            q + u128::from(rem > half || rem == half && q & 1 == 1)
        }
    };
    let (int, fraction) = ((n / 1_000_000) as u64, (n % 1_000_000) as u32);
    // sign, up to 16 integer digits (int < 2⁵³), the point, six decimals
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let mut f = fraction;
    for _ in 0..6 {
        at -= 1;
        buf[at] = b'0' + (f % 10) as u8;
        f /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    let mut i = int;
    loop {
        at -= 1;
        buf[at] = b'0' + (i % 10) as u8;
        i /= 10;
        if i == 0 {
            break;
        }
    }
    if bits >> 63 == 1 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Render every map of a receptor's grid set as the files AutoGrid leaves
/// behind: `(file name, text)` per map, `<receptor>.<label>.map`, in
/// [`GridSet::maps`] order. The header names the receptor and its
/// `<receptor>.gpf`, never a ligand, so the result is the same for every
/// pair docked against `receptor_name` — callers render once and share the
/// `Arc<str>`s.
pub fn render_map_files(grids: &GridSet, receptor_name: &str) -> Vec<(String, Arc<str>)> {
    let gpf_name = format!("{receptor_name}.gpf");
    grids
        .maps()
        .map(|(label, map)| {
            let name = format!("{receptor_name}.{label}.map");
            (name, write_map(map, &gpf_name, receptor_name).into())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use molkit::Vec3;

    /// The map `text` describes, read back the way AutoDock reads one: the
    /// lattice from the `SPACING`, `NELEMENTS` and `CENTER` header lines,
    /// then one value per line, exactly one per lattice point.
    fn read_back(text: &str) -> GridMap {
        let lines: Vec<&str> = text.lines().collect();
        let numbers = |line: &str, key: &str| -> Vec<f64> {
            let rest = line.strip_prefix(key).unwrap_or_else(|| panic!("{line:?} is not {key}"));
            rest.split_whitespace().map(|v| v.parse().unwrap()).collect()
        };
        let spacing = numbers(lines[3], "SPACING")[0];
        let n = numbers(lines[4], "NELEMENTS");
        assert!(n.len() == 3 && n[0] == n[1] && n[1] == n[2], "NELEMENTS {n:?}");
        let c = numbers(lines[5], "CENTER");
        let spec =
            GridSpec { center: Vec3::new(c[0], c[1], c[2]), npts: n[0] as usize + 1, spacing };
        GridMap::from_values(spec, lines[6..].iter().map(|v| v.parse().unwrap()).collect())
    }

    fn sample_map() -> GridMap {
        let spec = GridSpec { center: Vec3::new(1.5, -2.0, 30.25), npts: 5, spacing: 0.75 };
        GridMap::from_fn(spec, |p| (p.x * 0.3).sin() + p.y - 0.1 * p.z)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = sample_map();
        let text = write_map(&m, "0E6_2HHN.gpf", "2HHN");
        let back = read_back(&text);
        assert_eq!(back.spec.npts, m.spec.npts);
        assert_eq!(back.spec.spacing, m.spec.spacing);
        assert!((back.spec.center - m.spec.center).norm() < 1e-3);
        for (a, b) in m.values().iter().zip(back.values()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The per-value `format!` composition `write_map` replaced; staged map
    /// files (and so `hfile.fsize`) must not change by a byte.
    fn write_map_reference(map: &GridMap, gpf_name: &str, receptor_name: &str) -> String {
        let spec = map.spec;
        let n = spec.npts - 1;
        let mut out = String::new();
        out.push_str(&format!("GRID_PARAMETER_FILE {gpf_name}\n"));
        out.push_str(&format!("GRID_DATA_FILE {receptor_name}.maps.fld\n"));
        out.push_str(&format!("MACROMOLECULE {receptor_name}.pdbqt\n"));
        out.push_str(&format!("SPACING {}\n", spec.spacing));
        out.push_str(&format!("NELEMENTS {n} {n} {n}\n"));
        out.push_str(&format!(
            "CENTER {:.3} {:.3} {:.3}\n",
            spec.center.x, spec.center.y, spec.center.z
        ));
        for v in map.values() {
            out.push_str(&format!("{v:.6}\n"));
        }
        out
    }

    /// `push_fixed6(v)` against `format!("{v:.6}")`.
    fn assert_fixed6(v: f64) {
        let mut out = String::new();
        push_fixed6(&mut out, v);
        assert_eq!(out, format!("{v:.6}"), "{v:e} ({:016x})", v.to_bits());
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
    fn fixed6_matches_core_fmt_on_random_bit_patterns() {
        // 10⁶ patterns with the exponent field drawn over the integer
        // path's range and one past it; the fallback prints up to 309
        // digits through `core::fmt`, so fully random patterns (half of
        // them that large) get a smaller share
        let mut next = bits_stream(45);
        for _ in 0..1_000_000 {
            let b = next();
            let biased = (b >> 52 & 0x7ff) % 1077;
            assert_fixed6(f64::from_bits((b & !(0x7ff << 52)) | (biased << 52)));
        }
        for _ in 0..20_000 {
            assert_fixed6(f64::from_bits(next()));
        }
        // 10⁶ more where maps live, 2⁻²⁶ … 2⁵⁴
        for _ in 0..1_000_000 {
            let b = next();
            let biased = 997 + (b >> 52) % 80;
            assert_fixed6(f64::from_bits((b & !(0x7ff << 52)) | (biased << 52)));
        }
    }

    #[test]
    fn fixed6_matches_core_fmt_at_every_edge() {
        // v·10⁶ is a tie exactly when v = n/2⁷ with n odd: all of them up
        // to 2¹⁷/2⁷, then odd n at random up to 2⁶⁰ (v up to 2⁵³)
        for n in (1..1u64 << 17).step_by(2) {
            assert_fixed6(n as f64 / 128.0);
            assert_fixed6(-(n as f64) / 128.0);
        }
        let mut next = bits_stream(7);
        for _ in 0..100_000 {
            let n = (next() >> 4) | 1;
            assert_fixed6(n as f64 / 128.0);
        }
        // zeros, subnormals, the smallest normals, and the halfway values
        // of the last decimal in both directions
        for v in [0.0, -0.0, 5e-7, -5e-7, 4.999_999_999_999_999e-7, 1.5e-6, 2.5e-6, 0.999_999_5] {
            assert_fixed6(v);
        }
        for b in [1u64, 2, 3, (1 << 52) - 1, 1 << 52, (1 << 52) + 1] {
            assert_fixed6(f64::from_bits(b));
            assert_fixed6(-f64::from_bits(b));
        }
        for _ in 0..10_000 {
            assert_fixed6(f64::from_bits(next() & ((1 << 52) - 1)));
        }
        // around 2⁵³/10⁶, where v·10⁶ passes 2⁵³, and around 2⁵³, where
        // the integer path ends
        for centre in [(1u64 << 53) as f64 / 1e6, (1u64 << 53) as f64] {
            let mut up = centre;
            let mut down = centre;
            for _ in 0..2000 {
                for v in [up, down, -up, -down] {
                    assert_fixed6(v);
                }
                (up, down) = (up.next_up(), down.next_down());
            }
        }
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, f64::MAX, f64::MIN] {
            assert_fixed6(v);
        }
    }

    #[test]
    fn write_map_bytes_match_the_reference_composition() {
        let m = sample_map();
        assert_eq!(write_map(&m, "2HHN.gpf", "2HHN"), write_map_reference(&m, "2HHN.gpf", "2HHN"));
    }

    #[test]
    fn render_map_files_names_every_map_in_set_order() {
        use crate::autogrid::GridKind;
        // a receptor whose id is itself a map label must still get all files
        let mut g = GridSet {
            kind: GridKind::Ad4,
            spec: sample_map().spec,
            affinity: Default::default(),
            electrostatic: Some(sample_map()),
            desolvation: Some(sample_map()),
        };
        g.affinity.insert(molkit::AdType::OA, sample_map());
        g.affinity.insert(molkit::AdType::C, sample_map());
        let files = render_map_files(&g, "e");
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["e.C.map", "e.OA.map", "e.e.map", "e.d.map"]);
        for (_, text) in &files {
            assert_eq!(&**text, write_map(&sample_map(), "e.gpf", "e"));
        }
    }

    #[test]
    fn header_contents() {
        let text = write_map(&sample_map(), "lig_rec.gpf", "2HHN");
        assert!(text.starts_with("GRID_PARAMETER_FILE lig_rec.gpf\n"));
        assert!(text.contains("MACROMOLECULE 2HHN.pdbqt"));
        assert!(text.contains("SPACING 0.75"));
        assert!(text.contains("NELEMENTS 4 4 4"));
        assert!(text.contains("CENTER 1.500 -2.000 30.250"));
    }

    #[test]
    fn interpolation_identical_after_roundtrip() {
        let m = sample_map();
        let back = read_back(&write_map(&m, "g", "r"));
        let p = Vec3::new(1.2, -2.2, 30.5);
        assert!((m.interpolate(p) - back.interpolate(p)).abs() < 1e-5);
    }
}
