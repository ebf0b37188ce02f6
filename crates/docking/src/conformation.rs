//! Ligand poses and their application to coordinates.
//!
//! A pose is the docking search's genotype: a rigid-body translation, an
//! orientation quaternion, and one dihedral angle per rotatable bond.

use molkit::formats::pdbqt::PdbqtLigand;
use molkit::{AdType, Quat, TorsionTree, Vec3};

/// One candidate placement of the ligand.
#[derive(Debug, Clone, PartialEq)]
pub struct Pose {
    /// Position of the ligand's root centroid in receptor coordinates.
    pub translation: Vec3,
    /// Rigid-body orientation.
    pub orientation: Quat,
    /// Torsion angle deltas (radians), one per branch of the torsion tree.
    pub torsions: Vec<f64>,
}

impl Pose {
    /// Identity pose at a given position.
    pub fn at(translation: Vec3, n_torsions: usize) -> Pose {
        Pose { translation, orientation: Quat::IDENTITY, torsions: vec![0.0; n_torsions] }
    }
}

/// A ligand preprocessed for fast pose evaluation.
///
/// Reference coordinates are centered on the root-fragment centroid, so pose
/// application is `rotate(center-relative) + translation`.
#[derive(Debug, Clone)]
pub struct LigandModel {
    /// Ligand identifier.
    pub name: String,
    /// Reference coordinates, root centroid at the origin.
    pub ref_coords: Vec<Vec3>,
    /// The torsion tree (branches parent-before-child).
    pub tree: TorsionTree,
    /// AD types per atom.
    pub types: Vec<AdType>,
    /// Partial charges per atom.
    pub charges: Vec<f64>,
    /// Atom pairs contributing intramolecular energy: graph distance ≥ 3 and
    /// separated by at least one rotatable bond.
    pub intra_pairs: Vec<(usize, usize)>,
}

impl LigandModel {
    /// Build a model from a prepared PDBQT ligand.
    pub fn new(lig: &PdbqtLigand) -> LigandModel {
        let n = lig.mol.atoms.len();
        // center on root centroid
        let root_centroid = if lig.tree.root.is_empty() {
            lig.mol.centroid()
        } else {
            let s = lig.tree.root.iter().fold(Vec3::ZERO, |acc, &i| acc + lig.mol.atoms[i].pos);
            s / lig.tree.root.len() as f64
        };
        let ref_coords: Vec<Vec3> = lig.mol.atoms.iter().map(|a| a.pos - root_centroid).collect();
        let types: Vec<AdType> = lig.mol.atoms.iter().map(|a| a.ad_type).collect();
        let charges: Vec<f64> = lig.mol.atoms.iter().map(|a| a.charge).collect();

        // graph distances (BFS from each atom; ligands are small)
        let adj = lig.mol.adjacency();
        let mut dist = vec![vec![u32::MAX; n]; n];
        for (s, row) in dist.iter_mut().enumerate() {
            let mut q = std::collections::VecDeque::from([s]);
            row[s] = 0;
            while let Some(u) = q.pop_front() {
                for &v in &adj[u] {
                    if row[v] == u32::MAX {
                        row[v] = row[u] + 1;
                        q.push_back(v);
                    }
                }
            }
        }
        // rigid-fragment id per atom: atoms moved together by the same set of
        // branches share a fragment
        let mut frag_sig: Vec<u64> = vec![0; n];
        for (bi, br) in lig.tree.branches.iter().enumerate() {
            for &a in &br.moved {
                frag_sig[a] |= 1u64 << (bi % 64);
            }
        }
        let mut intra_pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let far_enough = dist[i][j] == u32::MAX || dist[i][j] >= 3;
                let relative_motion = frag_sig[i] != frag_sig[j];
                if far_enough && relative_motion {
                    intra_pairs.push((i, j));
                }
            }
        }
        LigandModel {
            name: lig.mol.name.clone(),
            ref_coords,
            tree: lig.tree.clone(),
            types,
            charges,
            intra_pairs,
        }
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.ref_coords.len()
    }

    /// Number of torsional degrees of freedom.
    pub fn torsdof(&self) -> usize {
        self.tree.torsdof()
    }

    /// Apply `pose`, writing world coordinates into `out` (resized as needed).
    ///
    /// Branch rotations are applied parent-before-child about the *current*
    /// axis positions, then the whole molecule is rotated about the root
    /// centroid and translated.
    #[inline(always)]
    pub fn apply(&self, pose: &Pose, out: &mut Vec<Vec3>) {
        debug_assert_eq!(pose.torsions.len(), self.tree.torsdof(), "torsion count mismatch");
        out.clear();
        out.extend_from_slice(&self.ref_coords);
        for (br, &angle) in self.tree.branches.iter().zip(&pose.torsions) {
            if angle == 0.0 {
                continue;
            }
            let origin = out[br.axis_from];
            let axis = out[br.axis_to] - origin;
            let q = Quat::from_axis_angle(axis, angle);
            for &i in &br.moved {
                out[i] = origin + q.rotate(out[i] - origin);
            }
        }
        for p in out.iter_mut() {
            *p = pose.orientation.rotate(*p) + pose.translation;
        }
    }

    /// Convenience: apply and return a fresh vector.
    pub fn coords(&self, pose: &Pose) -> Vec<Vec3> {
        let mut v = Vec::new();
        self.apply(pose, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molkit::atom::Atom;
    use molkit::molecule::{BondOrder, Molecule};
    use molkit::torsion::build_torsion_tree;
    use molkit::Element;

    fn hexane_model() -> LigandModel {
        // zig-zag chain: a straight chain would make every torsion axis
        // collinear with the atoms, turning rotations into no-ops
        let mut m = Molecule::new("HEX");
        for k in 0..6 {
            m.add_atom(Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.4, 0.5 * (k % 2) as f64, 0.1 * k as f64),
            ));
        }
        for k in 0..5 {
            m.add_bond(k, k + 1, BondOrder::Single);
        }
        let tree = build_torsion_tree(&m);
        LigandModel::new(&PdbqtLigand { mol: m, tree })
    }

    #[test]
    fn identity_pose_recovers_reference() {
        let lm = hexane_model();
        let pose = Pose::at(Vec3::ZERO, lm.torsdof());
        let c = lm.coords(&pose);
        for (a, b) in c.iter().zip(&lm.ref_coords) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn translation_moves_everything() {
        let lm = hexane_model();
        let t = Vec3::new(10.0, -5.0, 3.0);
        let pose = Pose::at(t, lm.torsdof());
        let c = lm.coords(&pose);
        for (a, b) in c.iter().zip(&lm.ref_coords) {
            assert!((*a - (*b + t)).norm() < 1e-12);
        }
    }

    #[test]
    fn rotation_preserves_internal_distances() {
        let lm = hexane_model();
        let mut pose = Pose::at(Vec3::new(1.0, 2.0, 3.0), lm.torsdof());
        pose.orientation = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0), 1.1);
        let c = lm.coords(&pose);
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                let want = lm.ref_coords[i].dist(lm.ref_coords[j]);
                let got = c[i].dist(c[j]);
                assert!((want - got).abs() < 1e-9, "rigid rotation distorts {i},{j}");
            }
        }
    }

    #[test]
    fn torsion_preserves_bond_lengths_but_changes_shape() {
        let lm = hexane_model();
        let mut pose = Pose::at(Vec3::ZERO, lm.torsdof());
        for t in pose.torsions.iter_mut() {
            *t = 1.0;
        }
        let c = lm.coords(&pose);
        // consecutive carbons keep their reference bond lengths (bonds are rigid)
        for k in 0..5 {
            let want = lm.ref_coords[k].dist(lm.ref_coords[k + 1]);
            assert!((c[k].dist(c[k + 1]) - want).abs() < 1e-9, "bond {k} length");
        }
        // but the end-to-end distance changes (chain folds)
        let ref_e2e = lm.ref_coords[0].dist(lm.ref_coords[5]);
        let new_e2e = c[0].dist(c[5]);
        assert!((ref_e2e - new_e2e).abs() > 0.1, "torsions must change the shape");
    }

    #[test]
    fn torsion_rotation_leaves_root_fixed() {
        let lm = hexane_model();
        let mut pose = Pose::at(Vec3::ZERO, lm.torsdof());
        for t in pose.torsions.iter_mut() {
            *t = 2.0;
        }
        let c = lm.coords(&pose);
        for &i in &lm.tree.root {
            assert!((c[i] - lm.ref_coords[i]).norm() < 1e-9, "root atom {i} moved");
        }
    }

    #[test]
    fn intra_pairs_exclude_near_neighbors() {
        let lm = hexane_model();
        // 1-2 and 1-3 pairs never appear
        for &(i, j) in &lm.intra_pairs {
            assert!(j as i64 - i as i64 >= 3, "pair ({i},{j}) too close in graph");
        }
        // the 0-5 pair (ends of the chain, across all torsions) must be there
        assert!(lm.intra_pairs.contains(&(0, 5)));
    }

    #[test]
    fn apply_reuses_buffer() {
        let lm = hexane_model();
        let pose = Pose::at(Vec3::ZERO, lm.torsdof());
        let mut buf = vec![Vec3::ZERO; 100]; // wrong size on purpose
        lm.apply(&pose, &mut buf);
        assert_eq!(buf.len(), lm.atom_count());
    }

    #[test]
    fn full_turn_torsion_is_identity() {
        let lm = hexane_model();
        let mut pose = Pose::at(Vec3::ZERO, lm.torsdof());
        for t in pose.torsions.iter_mut() {
            *t = std::f64::consts::TAU;
        }
        let c = lm.coords(&pose);
        for (a, b) in c.iter().zip(&lm.ref_coords) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }
}
