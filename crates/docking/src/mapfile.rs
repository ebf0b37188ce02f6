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
    for v in map.values() {
        // AutoGrid prints %.3f for typical magnitudes; keep more precision
        // so roundtrips are tight
        let _ = writeln!(out, "{v:.6}");
    }
    out
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
