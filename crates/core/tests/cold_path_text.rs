//! The texts a cold receptor leaves behind — its `SDGC1` grid-cache
//! entries and its AutoGrid `.map` files — byte for byte what a
//! `format!`-per-value composition writes, for the twelve receptors a
//! `screen` campaign docks, at the served map knobs (1.5 Å spacing, 14 Å
//! box, the twelve-type probe superset), through the receptor tier's own
//! build and render.

use cumulus::Blob;
use docking::autogrid::GridSet;
use docking::engine::{DockConfig, EngineKind};
use docking::grid::GridMap;
use docking::gridio::{fnv1a64, serialize_grid_set, GRID_CACHE_MAGIC};
use molkit::formats::pdb;
use scidock::dataset::{make_receptor, DatasetParams, RECEPTOR_IDS};
use scidock::receptors::ReceptorCache;
use telemetry::Telemetry;

/// An `SDGC1` entry with one `format!` per value.
fn entry_reference(g: &GridSet) -> String {
    let hex = |v: f64| format!("{:016x}", v.to_bits());
    let kind = match g.kind {
        docking::autogrid::GridKind::Ad4 => "ad4",
        docking::autogrid::GridKind::Vina => "vina",
    };
    let mut out = format!(
        "{GRID_CACHE_MAGIC} {kind} {} {} {} {} {} {} {} {}\n",
        g.spec.npts,
        hex(g.spec.spacing),
        hex(g.spec.center.x),
        hex(g.spec.center.y),
        hex(g.spec.center.z),
        g.affinity.len(),
        u8::from(g.electrostatic.is_some()),
        u8::from(g.desolvation.is_some())
    );
    for (label, m) in g.maps() {
        out.push_str(&format!("map {label}"));
        for v in m.values() {
            out.push_str(&format!(" {}", hex(*v)));
        }
        out.push('\n');
    }
    let digest = fnv1a64(out.as_bytes());
    out + &format!("end {digest:016x}\n")
}

/// A `.map` file with one `format!` per line.
fn map_reference(map: &GridMap, receptor: &str) -> String {
    let (spec, n) = (map.spec, map.spec.npts - 1);
    let mut out = format!("GRID_PARAMETER_FILE {receptor}.gpf\n");
    out.push_str(&format!("GRID_DATA_FILE {receptor}.maps.fld\n"));
    out.push_str(&format!("MACROMOLECULE {receptor}.pdbqt\n"));
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
fn entries_and_map_files_of_the_screen_receptors_equal_the_format_composition() {
    let tel = Telemetry::disabled();
    let tier = ReceptorCache::default();
    let cfg = DockConfig { grid_spacing: 1.5, box_edge: 14.0, ..Default::default() };
    let params = DatasetParams::default();
    for id in &RECEPTOR_IDS[..12] {
        let pdb_text = Blob::new(pdb::write_pdb(&make_receptor(id, &params).structure));
        let prepared = tier.prepared(&pdb_text, id, &tel).unwrap();
        for engine in [EngineKind::Ad4, EngineKind::Vina] {
            let grids = tier.grids(&prepared.pdbqt, engine, &cfg).unwrap();
            assert_eq!(grids.affinity.len(), 12);
            assert!(serialize_grid_set(&grids) == entry_reference(&grids), "{id} {engine:?} entry");
            let files = tier.get_or_render(id, &prepared.pdbqt, engine, &cfg).unwrap();
            assert_eq!(files.len(), grids.maps().count());
            for ((name, text), (label, map)) in files.iter().zip(grids.maps()) {
                assert_eq!(name, &format!("{id}.{label}.map"));
                assert!(**text.text() == *map_reference(map, id), "{id} {engine:?} {name}");
            }
        }
    }
}
