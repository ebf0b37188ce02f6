//! The fast docking kernels — the cell-list grid build and the evaluation
//! body — are *bit-identical* to the oracles over randomized receptors,
//! ligands, lattices, and seeds.

use proptest::prelude::*;

use super::{prepared_ligand, prepared_receptor};
use crate::autogrid::{build_ad4_grids, build_vina_grids, GridSet};
use crate::conformation::{LigandModel, Pose};
use crate::energy::EnergyModel;
use crate::grid::GridSpec;
use crate::oracle;
use crate::params::{Ad4Params, VinaParams};
use crate::search::{random_pose, Evaluator};
use crate::vexp::ExpPath;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn grids_bits_equal(a: &GridSet, b: &GridSet) -> bool {
    a.affinity.len() == b.affinity.len()
        && a.affinity.iter().all(|(t, ma)| ma.values() == b.affinity[t].values())
        && match (&a.electrostatic, &b.electrostatic) {
            (Some(x), Some(y)) => x.values() == y.values(),
            (None, None) => true,
            _ => false,
        }
        && match (&a.desolvation, &b.desolvation) {
            (Some(x), Some(y)) => x.values() == y.values(),
            (None, None) => true,
            _ => false,
        }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cell_list_ad4_grids_match_naive_exactly(name in "[A-Z0-9]{3}",
                                               spacing in 1.0..1.6f64,
                                               edge in 10.0..16.0f64) {
        let receptor = prepared_receptor(&name);
        let spec = GridSpec::with_edge(receptor.centroid(), edge, spacing);
        let types = [molkit::AdType::C, molkit::AdType::OA, molkit::AdType::HD];
        let p = Ad4Params::new();
        let naive = oracle::build_ad4_grids(&receptor, spec, &types, &p);
        prop_assert!(grids_bits_equal(&naive, &build_ad4_grids(&receptor, spec, &types, &p)),
                     "cell list diverged");
    }

    #[test]
    fn cell_list_vina_grids_match_naive_exactly(name in "[A-Z0-9]{3}",
                                                spacing in 1.0..1.6f64,
                                                edge in 10.0..16.0f64) {
        let receptor = prepared_receptor(&name);
        let spec = GridSpec::with_edge(receptor.centroid(), edge, spacing);
        let types = [molkit::AdType::C, molkit::AdType::NA, molkit::AdType::HD];
        let p = VinaParams::default();
        let naive = oracle::build_vina_grids(&receptor, spec, &types, &p);
        prop_assert!(grids_bits_equal(&naive, &build_vina_grids(&receptor, spec, &types, &p)),
                     "cell list diverged");
    }

    #[test]
    fn optimized_energy_matches_reference(rname in "[A-Z0-9]{3}",
                                          lname in "[A-Z0-9]{3}",
                                          seed in 0..10_000u64) {
        let receptor = prepared_receptor(&rname);
        let lig = prepared_ligand(&lname);
        let lm = LigandModel::new(&lig);
        let spec = GridSpec::with_edge(receptor.centroid(), 14.0, 1.25);
        let types = lig.mol.ad_types();
        let ad4 = build_ad4_grids(&receptor, spec, &types, &Ad4Params::new());
        let vina = build_vina_grids(&receptor, spec, &types, &VinaParams::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // random poses, and the same poses pushed half a box along x so that
        // some of their atoms leave the box
        let mut poses: Vec<Pose> =
            (0..12).map(|_| random_pose(&spec, lm.torsdof(), &mut rng)).collect();
        poses.extend(poses.clone().into_iter().map(|mut p| {
            p.translation.x += spec.edge() * 0.5;
            p
        }));
        for grids in [&ad4, &vina] {
            for path in [ExpPath::selected(), ExpPath::Libm] {
                let em = EnergyModel::new_via(path, grids, &lm).unwrap();
                let mut fast = Evaluator::new(&em);
                let want: Vec<u64> =
                    poses.iter().map(|p| em.total_reference(&lm.coords(p)).to_bits()).collect();
                for (pose, want) in poses.iter().zip(&want) {
                    prop_assert_eq!(fast.energy(pose).to_bits(), *want, "{:?} {:?}", grids.kind, path);
                    prop_assert_eq!(em.total(&lm.coords(pose)).to_bits(), *want);
                }
                let mut batch = Vec::new();
                fast.energy_batch(&poses, &mut batch);
                let got: Vec<u64> = batch.iter().map(|e| e.to_bits()).collect();
                prop_assert_eq!(got, want, "{:?} {:?} batch", grids.kind, path);
            }
        }
    }

    #[test]
    fn batched_scoring_bit_identical_in_every_batch_size(rname in "[A-Z0-9]{3}",
                                                         lname in "[A-Z0-9]{3}",
                                                         seed in 0..10_000u64,
                                                         population in 4..12usize) {
        let receptor = prepared_receptor(&rname);
        let lig = prepared_ligand(&lname);
        let lm = LigandModel::new(&lig);
        let spec = GridSpec::with_edge(receptor.centroid(), 14.0, 1.25);
        let grids = build_ad4_grids(&receptor, spec, &lig.mol.ad_types(), &Ad4Params::new());
        let em = EnergyModel::new(&grids, &lm).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let natoms = lm.atom_count();
        // a whole population of random poses, flattened SoA-style
        let mut coords = Vec::with_capacity(population * natoms);
        let mut per_pose = Vec::with_capacity(population);
        let mut scratch = vec![molkit::Vec3::default(); natoms];
        for _ in 0..population {
            let pose = random_pose(&spec, lm.torsdof(), &mut rng);
            lm.apply(&pose, &mut scratch);
            coords.extend_from_slice(&scratch);
            per_pose.push((em.total(&scratch), em.total_reference(&scratch)));
        }
        for (fast, naive) in &per_pose {
            prop_assert_eq!(fast.to_bits(), naive.to_bits(), "fast path diverged from naive");
        }
        for batch in [1usize, 3, 7, population] {
            let mut scored = Vec::new();
            for chunk in coords.chunks(batch * natoms) {
                let mut out = vec![0.0; chunk.len() / natoms];
                em.total_batch(chunk, &mut out);
                scored.extend(out);
            }
            prop_assert_eq!(scored.len(), population);
            for (got, (want, _)) in scored.iter().zip(&per_pose) {
                prop_assert_eq!(got.to_bits(), want.to_bits(),
                                "batch size {} diverged from per-pose total", batch);
            }
        }
    }
}
