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

use molkit::Vec3;

use crate::autogrid::GridSet;
use crate::grid::{GridMap, GridSpec};

/// Error from parsing a `.map` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapParseError(pub String);

impl std::fmt::Display for MapParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "map file error: {}", self.0)
    }
}

impl std::error::Error for MapParseError {}

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

/// Parse AutoGrid `.map` text back into a grid map.
pub fn read_map(text: &str) -> Result<GridMap, MapParseError> {
    let mut lines = text.lines();
    let mut spacing: Option<f64> = None;
    let mut nelements: Option<usize> = None;
    let mut center: Option<Vec3> = None;
    // header: read until the first numeric-only line
    let mut first_value: Option<f64> = None;
    for line in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix("SPACING") {
            spacing = Some(
                rest.trim().parse().map_err(|_| MapParseError(format!("bad SPACING {rest:?}")))?,
            );
        } else if let Some(rest) = t.strip_prefix("NELEMENTS") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != parts[1] || parts[1] != parts[2] {
                return Err(MapParseError(format!(
                    "NELEMENTS must be three equal values, got {rest:?}"
                )));
            }
            nelements = Some(
                parts[0].parse().map_err(|_| MapParseError(format!("bad NELEMENTS {rest:?}")))?,
            );
        } else if let Some(rest) = t.strip_prefix("CENTER") {
            let parts: Vec<f64> = rest
                .split_whitespace()
                .map(|p| p.parse())
                .collect::<Result<_, _>>()
                .map_err(|_| MapParseError(format!("bad CENTER {rest:?}")))?;
            if parts.len() != 3 {
                return Err(MapParseError("CENTER needs three values".into()));
            }
            center = Some(Vec3::new(parts[0], parts[1], parts[2]));
        } else if t.starts_with("GRID_PARAMETER_FILE")
            || t.starts_with("GRID_DATA_FILE")
            || t.starts_with("MACROMOLECULE")
        {
            // provenance lines, ignored
        } else if let Ok(v) = t.parse::<f64>() {
            first_value = Some(v);
            break;
        } else {
            return Err(MapParseError(format!("unexpected header line {t:?}")));
        }
    }
    let spacing = spacing.ok_or_else(|| MapParseError("missing SPACING".into()))?;
    let n = nelements.ok_or_else(|| MapParseError("missing NELEMENTS".into()))?;
    let center = center.ok_or_else(|| MapParseError("missing CENTER".into()))?;
    let spec = GridSpec { center, npts: n + 1, spacing };

    let mut values = Vec::with_capacity(spec.len());
    if let Some(v) = first_value {
        values.push(v);
    }
    for line in lines {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        values
            .push(t.parse::<f64>().map_err(|_| MapParseError(format!("bad energy value {t:?}")))?);
    }
    if values.len() != spec.len() {
        return Err(MapParseError(format!(
            "expected {} values for a {}³ grid, found {}",
            spec.len(),
            spec.npts,
            values.len()
        )));
    }
    let mut map = GridMap::zeros(spec);
    let mut it = values.into_iter();
    for k in 0..spec.npts {
        for j in 0..spec.npts {
            for i in 0..spec.npts {
                *map.at_mut(i, j, k) = it.next().expect("counted");
            }
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> GridMap {
        let spec = GridSpec { center: Vec3::new(1.5, -2.0, 30.25), npts: 5, spacing: 0.75 };
        GridMap::from_fn(spec, |p| (p.x * 0.3).sin() + p.y - 0.1 * p.z)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = sample_map();
        let text = write_map(&m, "0E6_2HHN.gpf", "2HHN");
        let back = read_map(&text).unwrap();
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
    fn value_count_mismatch_rejected() {
        let m = sample_map();
        let mut text = write_map(&m, "g", "r");
        text.push_str("0.5\n"); // one extra value
        let err = read_map(&text).unwrap_err();
        assert!(err.to_string().contains("expected 125"));
    }

    #[test]
    fn missing_header_fields_rejected() {
        assert!(read_map("SPACING 0.5\nCENTER 0 0 0\n0.0\n").is_err());
        assert!(read_map("NELEMENTS 2 2 2\nCENTER 0 0 0\n0.0\n").is_err());
        assert!(read_map("SPACING 1.0\nNELEMENTS 2 2 2\n0.0\n").is_err());
    }

    #[test]
    fn non_cubic_rejected() {
        let err = read_map("SPACING 1\nNELEMENTS 4 4 8\nCENTER 0 0 0\n").unwrap_err();
        assert!(err.to_string().contains("three equal"));
    }

    #[test]
    fn garbage_rejected() {
        assert!(read_map("SPACING 1\nNELEMENTS 1 1 1\nCENTER 0 0 0\nnot-a-number\n").is_err());
        assert!(read_map("WHAT is this\n").is_err());
    }

    #[test]
    fn interpolation_identical_after_roundtrip() {
        let m = sample_map();
        let back = read_map(&write_map(&m, "g", "r")).unwrap();
        let p = Vec3::new(1.2, -2.2, 30.5);
        assert!((m.interpolate(p) - back.interpolate(p)).abs() < 1e-5);
    }
}
