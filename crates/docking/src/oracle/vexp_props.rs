//! The two instantiations of every kernel that runs `exp` in lanes: the
//! body on the process's selected path (the `vexp` lanes wherever the port
//! passed its self-check) and the libm body, both called directly, give
//! the same bits as each other and as the oracles, on the random receptors
//! and ligands of `kernel_props`. Where the port is not selected both calls
//! run the libm body.

use molkit::AdType;
use proptest::prelude::*;

use super::{prepared_ligand, prepared_receptor};
use crate::autogrid::{build_ad4_grids_via, build_vina_grids_via, GridSet};
use crate::conformation::LigandModel;
use crate::energy::EnergyModel;
use crate::grid::GridSpec;
use crate::oracle;
use crate::params::{vina_radius, Ad4Params, VinaParams};
use crate::search::random_pose;
use crate::vexp::ExpPath;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every map of `a` and `b`, bit for bit (`-0.0` and `0.0` differ).
fn grids_bits_equal(a: &GridSet, b: &GridSet) -> bool {
    let maps = |g: &GridSet| -> Vec<(&'static str, Vec<u64>)> {
        g.maps().map(|(l, m)| (l, m.values().iter().map(|v| v.to_bits()).collect())).collect()
    };
    maps(a) == maps(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ad4_grid_lanes_and_libm_bodies_agree(name in "[A-Z0-9]{3}",
                                            spacing in 1.0..1.6f64,
                                            edge in 10.0..16.0f64) {
        let receptor = prepared_receptor(&name);
        let spec = GridSpec::with_edge(receptor.centroid(), edge, spacing);
        let types = [molkit::AdType::C, molkit::AdType::OA, molkit::AdType::HD, molkit::AdType::N];
        let p = Ad4Params::new();
        let lanes = build_ad4_grids_via(ExpPath::selected(), &receptor, spec, &types, &p);
        let libm = build_ad4_grids_via(ExpPath::Libm, &receptor, spec, &types, &p);
        prop_assert!(grids_bits_equal(&lanes, &libm), "lanes and libm bodies diverged");
        let naive = oracle::build_ad4_grids(&receptor, spec, &types, &p);
        prop_assert!(grids_bits_equal(&libm, &naive), "libm body diverged from the reference");
    }

    #[test]
    fn vina_grid_lanes_and_libm_bodies_agree(name in "[A-Z0-9]{3}",
                                             spacing in 1.0..1.6f64,
                                             edge in 10.0..16.0f64) {
        let receptor = prepared_receptor(&name);
        let spec = GridSpec::with_edge(receptor.centroid(), edge, spacing);
        let types = [molkit::AdType::C, molkit::AdType::NA, molkit::AdType::HD, molkit::AdType::OA];
        let p = VinaParams::default();
        let lanes = build_vina_grids_via(ExpPath::selected(), &receptor, spec, &types, &p);
        let libm = build_vina_grids_via(ExpPath::Libm, &receptor, spec, &types, &p);
        prop_assert!(grids_bits_equal(&lanes, &libm), "lanes and libm bodies diverged");
        let naive = oracle::build_vina_grids(&receptor, spec, &types, &p);
        prop_assert!(grids_bits_equal(&libm, &naive), "libm body diverged from the reference");
    }

    #[test]
    fn intramolecular_lanes_and_libm_bodies_agree(rname in "[A-Z0-9]{3}",
                                                  lname in "[A-Z0-9]{3}",
                                                  seed in 0..10_000u64) {
        let receptor = prepared_receptor(&rname);
        let lig = prepared_ligand(&lname);
        let lm = LigandModel::new(&lig);
        let spec = GridSpec::with_edge(receptor.centroid(), 14.0, 1.25);
        let types = lig.mol.ad_types();
        let ad4 = build_ad4_grids_via(ExpPath::Libm, &receptor, spec, &types, &Ad4Params::new());
        let vina =
            build_vina_grids_via(ExpPath::Libm, &receptor, spec, &types, &VinaParams::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for grids in [&ad4, &vina] {
            let em = EnergyModel::new(grids, &lm).unwrap();
            for _ in 0..16 {
                let c = lm.coords(&random_pose(&spec, lm.torsdof(), &mut rng));
                let lanes = em.intramolecular_via(ExpPath::selected(), &c);
                let libm = em.intramolecular_via(ExpPath::Libm, &c);
                prop_assert_eq!(lanes.to_bits(), libm.to_bits(), "{:?}", grids.kind);
                prop_assert_eq!(libm.to_bits(), em.intramolecular_reference(&c).to_bits());
                prop_assert_eq!(em.intramolecular(&c).to_bits(), libm.to_bits());
            }
        }
    }
}

/// The probe types a screen's cached grids carry: C/A share every AD4 pair
/// row, N/NA/Cl, S/SA/Br and H/HD share a Vina radius (C/A and the
/// halogens their hydrophobic class too), so the fills share columns and
/// Gaussians across them.
const LIGAND_TYPE_SUPERSET: [AdType; 12] = [
    AdType::C,
    AdType::A,
    AdType::N,
    AdType::NA,
    AdType::OA,
    AdType::S,
    AdType::SA,
    AdType::HD,
    AdType::H,
    AdType::F,
    AdType::Cl,
    AdType::Br,
];

#[test]
fn fills_over_the_ligand_type_superset_match_the_oracles_on_both_paths() {
    let types = LIGAND_TYPE_SUPERSET;
    let (ad4, vina) = (Ad4Params::new(), VinaParams::default());
    // the sharing the fills rely on is really there
    assert!(AdType::ALL.iter().all(|&tb| {
        let (c, a) = (ad4.pair(AdType::C, tb), ad4.pair(AdType::A, tb));
        (c.lj_a, c.lj_b, c.hb_c, c.hb_d, c.hbond) == (a.lj_a, a.lj_b, a.hb_c, a.hb_d, a.hbond)
    }));
    for same in [[AdType::N, AdType::NA, AdType::Cl], [AdType::S, AdType::SA, AdType::Br]] {
        assert!(same.iter().all(|&t| vina_radius(t) == vina_radius(same[0])));
    }
    assert_eq!(vina_radius(AdType::H), vina_radius(AdType::HD));
    for name in ["SUP", "7Q2"] {
        // every seventh atom a donor hydrogen, so acceptor probes take
        // the 12-10 branch in some lanes too
        let mut receptor = prepared_receptor(name);
        for a in receptor.atoms.iter_mut().step_by(7) {
            a.ad_type = AdType::HD;
        }
        assert!(receptor.atoms.iter().any(|a| a.ad_type.is_acceptor()));
        let spec = GridSpec::with_edge(receptor.centroid(), 12.0, 1.5);
        let want_ad4 = oracle::build_ad4_grids(&receptor, spec, &types, &ad4);
        let want_vina = oracle::build_vina_grids(&receptor, spec, &types, &vina);
        for path in [ExpPath::selected(), ExpPath::Libm] {
            let got = build_ad4_grids_via(path, &receptor, spec, &types, &ad4);
            assert!(grids_bits_equal(&got, &want_ad4), "AD4 {name} {path:?}");
            let got = build_vina_grids_via(path, &receptor, spec, &types, &vina);
            assert!(grids_bits_equal(&got, &want_vina), "Vina {name} {path:?}");
        }
    }
}
