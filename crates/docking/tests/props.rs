//! Property-based tests for the docking substrate.

use proptest::prelude::*;

use docking::conformation::{LigandModel, Pose};
use docking::grid::GridSpec;
use docking::params::{Ad4Params, VinaParams};
use docking::scoring::{ad4_pair, vina_pair};
use molkit::formats::pdbqt::PdbqtLigand;
use molkit::synth::{generate_ligand, LigandParams};
use molkit::torsion::build_torsion_tree;
use molkit::typer::{assign_ad_types, merge_nonpolar_hydrogens};
use molkit::{AdType, Quat, Vec3};

fn prepared(seed_name: &str) -> LigandModel {
    let mut lig = generate_ligand(
        seed_name,
        &LigandParams { min_heavy: 8, max_heavy: 18, hang_fraction: 0.0 },
    );
    assign_ad_types(&mut lig);
    molkit::charges::assign_gasteiger(&mut lig, &Default::default());
    merge_nonpolar_hydrogens(&mut lig);
    let tree = build_torsion_tree(&lig);
    LigandModel::new(&PdbqtLigand { mol: lig, tree })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pose_application_preserves_bond_topology(name in "[A-Z0-9]{3}",
                                                tx in -10.0..10.0f64,
                                                angle in -3.0..3.0f64,
                                                tors in -3.0..3.0f64) {
        let lm = prepared(&name);
        let mut pose = Pose::at(Vec3::new(tx, -tx, tx * 0.5), lm.torsdof());
        pose.orientation = Quat::from_axis_angle(Vec3::new(1.0, 2.0, -1.0), angle);
        for t in pose.torsions.iter_mut() {
            *t = tors;
        }
        let c = lm.coords(&pose);
        prop_assert_eq!(c.len(), lm.atom_count());
        for p in &c {
            prop_assert!(p.is_finite());
        }
        // distances within the rigid root never change
        let root = &lm.tree.root;
        for i in 0..root.len().min(6) {
            for j in (i + 1)..root.len().min(6) {
                let want = lm.ref_coords[root[i]].dist(lm.ref_coords[root[j]]);
                let got = c[root[i]].dist(c[root[j]]);
                prop_assert!((want - got).abs() < 1e-8, "root pair distorted");
            }
        }
    }

    #[test]
    fn zero_pose_is_identity(name in "[A-Z0-9]{3}") {
        let lm = prepared(&name);
        let pose = Pose::at(Vec3::ZERO, lm.torsdof());
        let c = lm.coords(&pose);
        for (a, b) in c.iter().zip(&lm.ref_coords) {
            prop_assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn scoring_finite_for_all_type_pairs(r in 0.01..12.0f64, qa in -1.0..1.0f64, qb in -1.0..1.0f64) {
        let p = Ad4Params::new();
        let v = VinaParams::default();
        for ta in AdType::ALL {
            for tb in AdType::ALL {
                let e = ad4_pair(&p, ta, tb, qa, qb, r);
                prop_assert!(e.is_finite(), "ad4 {ta}-{tb} at {r}: {e}");
                let e2 = vina_pair(&v, ta, tb, r);
                prop_assert!(e2.is_finite(), "vina {ta}-{tb} at {r}: {e2}");
            }
        }
    }

    #[test]
    fn scoring_zero_beyond_cutoff(r in 8.0..100.0f64) {
        let p = Ad4Params::new();
        let v = VinaParams::default();
        prop_assert_eq!(ad4_pair(&p, AdType::C, AdType::OA, 0.3, -0.3, r), 0.0);
        prop_assert_eq!(vina_pair(&v, AdType::C, AdType::OA, r), 0.0);
    }

    #[test]
    fn grid_spec_contains_its_own_points(cx in -50.0..50.0f64, npts in 2usize..12, spacing in 0.2..2.0f64) {
        let spec = GridSpec { center: Vec3::new(cx, -cx, 0.0), npts, spacing };
        for i in [0, npts - 1] {
            for j in [0, npts - 1] {
                for k in [0, npts - 1] {
                    prop_assert!(spec.contains(spec.point(i, j, k)));
                }
            }
        }
    }

    #[test]
    fn dlg_feb_roundtrip(feb in -15.0..15.0f64) {
        use docking::engine::{DockResult, EngineKind, Mode};
        let feb = (feb * 100.0).round() / 100.0; // the dlg prints 2 decimals
        let res = DockResult {
            engine: EngineKind::Ad4,
            receptor: "R".into(),
            ligand: "L".into(),
            feb,
            modes: vec![Mode { rank: 1, energy: feb, feb, rmsd: 1.0, rmsd_lb: 0.8 }],
            best_coords: vec![Vec3::ZERO],
            evaluations: 1,
            pocket_center: Vec3::ZERO,
            torsdof: 0,
            clusters: vec![],
            best_pose: docking::conformation::Pose::at(Vec3::ZERO, 0),
        };
        let text = docking::dlg::write_dlg(&res);
        let parsed = docking::dlg::parse_dlg_feb(&text).unwrap();
        prop_assert!((parsed - feb).abs() < 1e-9);
    }
}

/// A small serialized `SDGC1` entry: a two-atom receptor's AD4 maps for
/// carbon (plus the electrostatic and desolvation maps).
fn grid_entry() -> String {
    use molkit::atom::Atom;
    use molkit::molecule::Molecule;
    use molkit::Element;
    let mut m = Molecule::new("R");
    let mut a = Atom::new(1, "OA", Element::O, Vec3::new(-1.5, 0.2, 0.0));
    a.charge = -0.4;
    a.ad_type = AdType::OA;
    m.add_atom(a);
    let mut b = Atom::new(2, "C", Element::C, Vec3::new(1.5, -0.3, 0.4));
    b.charge = 0.2;
    b.ad_type = AdType::C;
    m.add_atom(b);
    let spec = GridSpec { center: Vec3::new(0.1, -0.2, 0.3), npts: 5, spacing: 0.7 };
    let g = docking::autogrid::build_ad4_grids(&m, spec, &[AdType::C], &Ad4Params::new());
    docking::gridio::serialize_grid_set(&g)
}

/// `body` as a whole entry: its integrity footer recomputed, so a mutation
/// reaches the parser instead of the digest check.
fn with_footer(body: &str) -> String {
    format!("{body}end {:016x}\n", docking::gridio::fnv1a64(body.as_bytes()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_grid_entries_load_or_fail_but_never_panic(at in 0usize..1 << 20,
                                                         byte in 0usize..64,
                                                         header in 0usize..2) {
        let text = grid_entry();
        let body = &text[..text.rfind("end ").unwrap()];
        // half the mutations land on the header line, where the sizes are
        let span = if header == 0 { body.find('\n').unwrap() } else { body.len() };
        let alphabet = b"0123456789abcdef -\nmapendCx+.";
        let mut bytes = body.as_bytes().to_vec();
        bytes[at % span] = alphabet[byte % alphabet.len()];
        let body = String::from_utf8(bytes).unwrap();
        let _ = docking::gridio::deserialize_grid_set(&with_footer(&body));
    }

    #[test]
    fn grid_entries_with_hostile_header_fields_are_refused(field in 2usize..10, pick in 0usize..9) {
        let text = grid_entry();
        let body = &text[..text.rfind("end ").unwrap()];
        let (header, maps) = body.split_once('\n').unwrap();
        let mut h: Vec<&str> = header.split(' ').collect();
        let hostile = ["0", "1", "2", "100000", "4194304", "18446744073709551615",
                       "99999999999999999999", "-1", "x"];
        h[field] = hostile[pick];
        let entry = with_footer(&format!("{}\n{maps}", h.join(" ")));
        let parsed = docking::gridio::deserialize_grid_set(&entry);
        // the lattice size is checked against the map lines; the other
        // fields only have to fail cleanly when they are wrong
        if field == 2 {
            prop_assert!(parsed.is_err(), "field {} = {}", field, hostile[pick]);
        }
    }
}
