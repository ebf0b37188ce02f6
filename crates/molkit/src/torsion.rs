//! Rotatable-bond detection and the AutoDock torsion tree.
//!
//! PDBQT ligands carry a `ROOT`/`BRANCH`/`ENDBRANCH`/`TORSDOF` skeleton that
//! partitions atoms into a rigid root plus rotatable branches. The docking
//! engines pose a ligand by rotating each branch about its bond axis.

use std::collections::{HashSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::molecule::{BondOrder, Molecule};
use crate::typer::ring_atoms;

/// One rotatable branch: atoms `moved` rotate about the `axis_from → axis_to`
/// bond. Branches are stored in parent-before-child order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Branch {
    /// Atom on the root side of the rotatable bond.
    pub axis_from: usize,
    /// Atom on the moving side (first atom of the branch).
    pub axis_to: usize,
    /// All atom indices that move when this torsion rotates (includes
    /// `axis_to` and every atom of child branches).
    pub moved: Vec<usize>,
}

/// The torsion tree of a prepared ligand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TorsionTree {
    /// Atom indices of the rigid root fragment.
    pub root: Vec<usize>,
    /// Rotatable branches (the number of torsional degrees of freedom).
    pub branches: Vec<Branch>,
}

impl TorsionTree {
    /// Number of torsional degrees of freedom (`TORSDOF`).
    pub fn torsdof(&self) -> usize {
        self.branches.len()
    }

    /// A rigid tree (everything in the root).
    fn rigid(n_atoms: usize) -> TorsionTree {
        TorsionTree { root: (0..n_atoms).collect(), branches: Vec::new() }
    }
}

/// Is the bond between `a` and `b` rotatable?
///
/// A bond is rotatable when it is a single, non-ring bond and neither side is
/// a terminal atom (rotating a terminal atom is a no-op for heavy-atom poses).
fn is_rotatable(
    mol: &Molecule,
    a: usize,
    b: usize,
    order: BondOrder,
    rings: &HashSet<usize>,
) -> bool {
    if order != BondOrder::Single {
        return false;
    }
    // ring bonds are not rotatable (both endpoints in a ring and part of it)
    if rings.contains(&a) && rings.contains(&b) {
        return false;
    }
    let heavy_deg =
        |i: usize| mol.neighbors(i).iter().filter(|&&j| !mol.atoms[j].is_hydrogen()).count();
    heavy_deg(a) >= 2 && heavy_deg(b) >= 2
}

/// Build the torsion tree of `mol`.
///
/// The root is chosen as the fragment (after cutting all rotatable bonds)
/// containing the atom closest to the molecule's centroid — the same
/// heuristic AutoDockTools uses ("largest central rigid fragment" is
/// approximated by "central fragment").
pub fn build_torsion_tree(mol: &Molecule) -> TorsionTree {
    let n = mol.atoms.len();
    if n == 0 {
        return TorsionTree::rigid(0);
    }
    let rings = ring_atoms(mol, 8);
    let rotatable: Vec<(usize, usize)> = mol
        .bonds
        .iter()
        .filter(|b| is_rotatable(mol, b.a, b.b, b.order, &rings))
        .map(|b| (b.a, b.b))
        .collect();
    if rotatable.is_empty() {
        return TorsionTree::rigid(n);
    }
    let rot_set: HashSet<(usize, usize)> =
        rotatable.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();

    // fragment decomposition: connected components after cutting rotatable bonds
    let adj = mol.adjacency();
    let mut fragment = vec![usize::MAX; n];
    let mut n_frags = 0;
    for start in 0..n {
        if fragment[start] != usize::MAX {
            continue;
        }
        let f = n_frags;
        n_frags += 1;
        let mut q = VecDeque::from([start]);
        fragment[start] = f;
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if fragment[v] == usize::MAX && !rot_set.contains(&(u, v)) {
                    fragment[v] = f;
                    q.push_back(v);
                }
            }
        }
    }

    // root fragment = fragment of the atom nearest the centroid
    let c = mol.centroid();
    let central = (0..n)
        .min_by(|&i, &j| mol.atoms[i].pos.dist_sq(c).total_cmp(&mol.atoms[j].pos.dist_sq(c)))
        .expect("non-empty molecule");
    let root_frag = fragment[central];

    // BFS over the fragment graph from the root, creating branches in
    // parent-before-child order
    let mut frag_atoms: Vec<Vec<usize>> = vec![Vec::new(); n_frags];
    for (i, &f) in fragment.iter().enumerate() {
        frag_atoms[f].push(i);
    }
    let mut branches = Vec::new();
    let mut seen_frag = vec![false; n_frags];
    seen_frag[root_frag] = true;
    let mut q = VecDeque::from([root_frag]);
    // fragment adjacency via rotatable bonds
    while let Some(f) = q.pop_front() {
        for &(a, b) in &rotatable {
            let (from, to) = if fragment[a] == f && !seen_frag[fragment[b]] {
                (a, b)
            } else if fragment[b] == f && !seen_frag[fragment[a]] {
                (b, a)
            } else {
                continue;
            };
            let child = fragment[to];
            seen_frag[child] = true;
            q.push_back(child);
            branches.push(Branch { axis_from: from, axis_to: to, moved: Vec::new() });
        }
    }

    // compute moved sets: everything reachable from axis_to without crossing
    // back over the branch's own rotatable bond
    for br in &mut branches {
        let mut moved = Vec::new();
        let mut seen = vec![false; n];
        seen[br.axis_from] = true; // wall
        let mut q = VecDeque::from([br.axis_to]);
        seen[br.axis_to] = true;
        while let Some(u) = q.pop_front() {
            moved.push(u);
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    q.push_back(v);
                }
            }
        }
        moved.sort_unstable();
        br.moved = moved;
    }

    let mut root = frag_atoms[root_frag].clone();
    root.sort_unstable();
    TorsionTree { root, branches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::element::Element;
    use crate::vec3::Vec3;

    /// Linear chain C0-C1-C2-C3 (butane heavy atoms): one rotatable bond C1-C2.
    fn butane() -> Molecule {
        let mut m = Molecule::new("BUT");
        for k in 0..4 {
            m.add_atom(Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.5, 0.0, 0.0),
            ));
        }
        for k in 0..3 {
            m.add_bond(k, k + 1, BondOrder::Single);
        }
        m
    }

    #[test]
    fn butane_one_torsion() {
        let m = butane();
        let t = build_torsion_tree(&m);
        assert_eq!(t.torsdof(), 1);
        let br = &t.branches[0];
        // axis is the central bond, whichever direction
        let axis = (br.axis_from.min(br.axis_to), br.axis_from.max(br.axis_to));
        assert_eq!(axis, (1, 2));
        // root + moved partition the molecule
        let mut all: Vec<usize> = t.root.iter().chain(br.moved.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn terminal_bonds_not_rotatable() {
        let m = butane();
        let rings = HashSet::new();
        assert!(!is_rotatable(&m, 0, 1, BondOrder::Single, &rings));
        assert!(is_rotatable(&m, 1, 2, BondOrder::Single, &rings));
    }

    #[test]
    fn double_bond_not_rotatable() {
        let mut m = butane();
        m.bonds[1].order = BondOrder::Double;
        let t = build_torsion_tree(&m);
        assert_eq!(t.torsdof(), 0);
        assert_eq!(t.root.len(), 4);
    }

    #[test]
    fn ring_bonds_not_rotatable() {
        // cyclohexane: all bonds in ring, rigid
        let mut m = Molecule::new("CHX");
        for k in 0..6 {
            let ang = std::f64::consts::TAU * k as f64 / 6.0;
            m.add_atom(Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(1.5 * ang.cos(), 1.5 * ang.sin(), 0.0),
            ));
        }
        for k in 0..6 {
            m.add_bond(k, (k + 1) % 6, BondOrder::Single);
        }
        let t = build_torsion_tree(&m);
        assert_eq!(t.torsdof(), 0);
    }

    #[test]
    fn longer_chain_branch_nesting() {
        // hexane heavy atoms: C0..C5, rotatable bonds C1-C2, C2-C3, C3-C4
        let mut m = Molecule::new("HEX");
        for k in 0..6 {
            m.add_atom(Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.5, 0.0, 0.0),
            ));
        }
        for k in 0..5 {
            m.add_bond(k, k + 1, BondOrder::Single);
        }
        let t = build_torsion_tree(&m);
        assert_eq!(t.torsdof(), 3);
        // parent-before-child: each branch's moved set must not contain a later
        // branch's axis_from unless that axis_from moves with it
        for (i, br) in t.branches.iter().enumerate() {
            assert!(br.moved.contains(&br.axis_to));
            assert!(!br.moved.contains(&br.axis_from));
            for later in &t.branches[i + 1..] {
                if br.moved.contains(&later.axis_to) {
                    // nested branch: its whole moved set is a subset of ours
                    assert!(
                        later.moved.iter().all(|a| br.moved.contains(a)),
                        "child branch moved set must nest"
                    );
                }
            }
        }
    }

    #[test]
    fn hydrogens_dont_create_torsions() {
        // ethane with explicit hydrogens: C-C bond is terminal-ish in heavy
        // degree terms (each C has only 1 heavy neighbor) -> rigid
        let mut m = Molecule::new("ETH");
        let c1 = m.add_atom(Atom::new(1, "C1", Element::C, Vec3::ZERO));
        let c2 = m.add_atom(Atom::new(2, "C2", Element::C, Vec3::new(1.5, 0.0, 0.0)));
        m.add_bond(c1, c2, BondOrder::Single);
        for k in 0..3 {
            let h = m.add_atom(Atom::new(
                3 + k,
                format!("H{k}"),
                Element::H,
                Vec3::new(-0.5, k as f64, 0.0),
            ));
            m.add_bond(c1, h, BondOrder::Single);
        }
        let t = build_torsion_tree(&m);
        assert_eq!(t.torsdof(), 0);
    }

    #[test]
    fn empty_molecule() {
        let t = build_torsion_tree(&Molecule::new("E"));
        assert_eq!(t.torsdof(), 0);
        assert!(t.root.is_empty());
    }

    #[test]
    fn rigid_constructor() {
        let t = TorsionTree::rigid(5);
        assert_eq!(t.root, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.torsdof(), 0);
    }
}
