//! Molecules: atoms + bonds + derived structural queries.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::atom::{AdType, Atom};
use crate::element::Element;
use crate::vec3::Vec3;

/// Covalent bond order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BondOrder {
    /// Single bond.
    Single,
    /// Double bond.
    Double,
    /// Triple bond.
    Triple,
    /// Aromatic/conjugated bond (order 1.5).
    Aromatic,
}

impl BondOrder {
    /// Numeric order as used in SDF bond blocks (aromatic = 4 per V2000).
    pub fn sdf_code(self) -> u8 {
        match self {
            BondOrder::Single => 1,
            BondOrder::Double => 2,
            BondOrder::Triple => 3,
            BondOrder::Aromatic => 4,
        }
    }

    /// Parse an SDF bond code.
    pub fn from_sdf_code(c: u8) -> Option<BondOrder> {
        match c {
            1 => Some(BondOrder::Single),
            2 => Some(BondOrder::Double),
            3 => Some(BondOrder::Triple),
            4 => Some(BondOrder::Aromatic),
            _ => None,
        }
    }
}

/// A covalent bond between two atoms, stored by index into [`Molecule::atoms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bond {
    /// First atom index.
    pub a: usize,
    /// Second atom index.
    pub b: usize,
    /// Bond order.
    pub order: BondOrder,
}

impl Bond {
    /// Construct a bond between atom indices `a` and `b`.
    pub fn new(a: usize, b: usize, order: BondOrder) -> Bond {
        Bond { a, b, order }
    }

    /// The other endpoint, given one endpoint.
    pub fn other(&self, i: usize) -> Option<usize> {
        if self.a == i {
            Some(self.b)
        } else if self.b == i {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A molecule: receptor, ligand, or intermediate structure.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Molecule {
    /// Identifier (PDB id for receptors, ligand code for ligands).
    pub name: String,
    /// Atoms, indexed by the bond endpoints.
    pub atoms: Vec<Atom>,
    /// Covalent bonds.
    pub bonds: Vec<Bond>,
}

impl Molecule {
    /// Empty molecule with a name.
    pub fn new(name: impl Into<String>) -> Molecule {
        Molecule { name: name.into(), atoms: Vec::new(), bonds: Vec::new() }
    }

    /// Add an atom, returning its index.
    pub fn add_atom(&mut self, atom: Atom) -> usize {
        self.atoms.push(atom);
        self.atoms.len() - 1
    }

    /// Add a bond between existing atom indices.
    ///
    /// # Panics
    /// Panics if either index is out of range or the bond is a self-loop —
    /// both indicate a construction bug, not recoverable input.
    pub fn add_bond(&mut self, a: usize, b: usize, order: BondOrder) {
        assert!(a != b, "self-loop bond on atom {a}");
        assert!(a < self.atoms.len() && b < self.atoms.len(), "bond index out of range");
        self.bonds.push(Bond::new(a, b, order));
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Count of non-hydrogen atoms.
    pub fn heavy_atom_count(&self) -> usize {
        self.atoms.iter().filter(|a| !a.is_hydrogen()).count()
    }

    /// Total molecular mass in Daltons.
    pub fn mass(&self) -> f64 {
        self.atoms.iter().map(|a| a.element.mass()).sum()
    }

    /// Sum of partial charges.
    pub fn total_charge(&self) -> f64 {
        self.atoms.iter().map(|a| a.charge).sum()
    }

    /// Geometric centroid of all atoms (zero vector when empty).
    pub fn centroid(&self) -> Vec3 {
        if self.atoms.is_empty() {
            return Vec3::ZERO;
        }
        let sum = self.atoms.iter().fold(Vec3::ZERO, |s, a| s + a.pos);
        sum / self.atoms.len() as f64
    }

    /// Axis-aligned bounding box `(min, max)`; `None` when empty.
    pub fn bounding_box(&self) -> Option<(Vec3, Vec3)> {
        let first = self.atoms.first()?.pos;
        let mut lo = first;
        let mut hi = first;
        for a in &self.atoms[1..] {
            lo = lo.min(a.pos);
            hi = hi.max(a.pos);
        }
        Some((lo, hi))
    }

    /// Radius of gyration in Å (mass-weighted spread around the centroid).
    pub fn radius_of_gyration(&self) -> f64 {
        let m = self.mass();
        if m <= 0.0 {
            return 0.0;
        }
        let com = {
            let weighted = self.atoms.iter().fold(Vec3::ZERO, |s, a| s + a.pos * a.element.mass());
            weighted / m
        };
        let sum: f64 = self.atoms.iter().map(|a| a.element.mass() * a.pos.dist_sq(com)).sum();
        (sum / m).sqrt()
    }

    /// Indices of atoms bonded to atom `i`.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        self.bonds.iter().filter_map(|b| b.other(i)).collect()
    }

    /// Adjacency list for the whole molecule (index → neighbor indices).
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.atoms.len()];
        for b in &self.bonds {
            adj[b.a].push(b.b);
            adj[b.b].push(b.a);
        }
        adj
    }

    /// Number of connected components of the bond graph.
    fn connected_components(&self) -> usize {
        let n = self.atoms.len();
        if n == 0 {
            return 0;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; n];
        let mut comps = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            comps += 1;
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        comps
    }

    /// True when the bond graph is a single connected component.
    pub fn is_connected(&self) -> bool {
        self.connected_components() <= 1
    }

    /// Does the molecule contain any atom of `element`?
    ///
    /// Used by the workflow's poison-input rule: receptors containing Hg hang
    /// the docking programs (paper §V.C) and are blacklisted.
    pub fn contains_element(&self, element: Element) -> bool {
        self.atoms.iter().any(|a| a.element == element)
    }

    /// Distinct AD types present, sorted (drives which grid maps AutoGrid makes).
    pub fn ad_types(&self) -> Vec<AdType> {
        let mut ts: Vec<AdType> = self.atoms.iter().map(|a| a.ad_type).collect();
        ts.sort();
        ts.dedup();
        ts
    }

    /// Translate every atom by `delta`.
    pub fn translate(&mut self, delta: Vec3) {
        for a in &mut self.atoms {
            a.pos += delta;
        }
    }

    /// Positions of all atoms, in index order.
    pub fn positions(&self) -> Vec<Vec3> {
        self.atoms.iter().map(|a| a.pos).collect()
    }

    /// Replace all atom positions. Panics if the length differs.
    pub fn set_positions(&mut self, pos: &[Vec3]) {
        assert_eq!(pos.len(), self.atoms.len(), "position count mismatch");
        for (a, &p) in self.atoms.iter_mut().zip(pos) {
            a.pos = p;
        }
    }

    /// Infer bonds from inter-atomic distances and covalent radii.
    ///
    /// Two atoms are bonded when their distance is below
    /// `tolerance * (r_cov(a) + r_cov(b))`. Returns the number of bonds added.
    /// Existing bonds are kept; duplicates are not added.
    pub fn perceive_bonds(&mut self, tolerance: f64) -> usize {
        let n = self.atoms.len();
        let mut have: std::collections::HashSet<(usize, usize)> =
            self.bonds.iter().map(|b| (b.a.min(b.b), b.a.max(b.b))).collect();
        let mut added = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                // hydrogen-hydrogen bonds never occur in our structures
                if self.atoms[i].is_hydrogen() && self.atoms[j].is_hydrogen() {
                    continue;
                }
                let cutoff = tolerance
                    * (self.atoms[i].element.covalent_radius()
                        + self.atoms[j].element.covalent_radius());
                if self.atoms[i].pos.dist_sq(self.atoms[j].pos) <= cutoff * cutoff
                    && have.insert((i, j))
                {
                    self.bonds.push(Bond::new(i, j, BondOrder::Single));
                    added += 1;
                }
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn water() -> Molecule {
        let mut m = Molecule::new("HOH");
        let o = m.add_atom(Atom::new(1, "O", Element::O, Vec3::ZERO));
        let h1 = m.add_atom(Atom::new(2, "H1", Element::H, Vec3::new(0.96, 0.0, 0.0)));
        let h2 = m.add_atom(Atom::new(3, "H2", Element::H, Vec3::new(-0.24, 0.93, 0.0)));
        m.add_bond(o, h1, BondOrder::Single);
        m.add_bond(o, h2, BondOrder::Single);
        m
    }

    #[test]
    fn counts_and_mass() {
        let w = water();
        assert_eq!(w.atom_count(), 3);
        assert_eq!(w.heavy_atom_count(), 1);
        assert!((w.mass() - 18.015).abs() < 0.01);
    }

    #[test]
    fn centroid_and_bbox() {
        let w = water();
        let c = w.centroid();
        assert!((c.x - 0.24).abs() < 1e-9);
        let (lo, hi) = w.bounding_box().unwrap();
        assert_eq!(lo, Vec3::new(-0.24, 0.0, 0.0));
        assert_eq!(hi, Vec3::new(0.96, 0.93, 0.0));
        assert!(Molecule::new("empty").bounding_box().is_none());
        assert_eq!(Molecule::new("empty").centroid(), Vec3::ZERO);
    }

    #[test]
    fn neighbors_and_adjacency() {
        let w = water();
        assert_eq!(w.neighbors(0), vec![1, 2]);
        assert_eq!(w.neighbors(1), vec![0]);
        let adj = w.adjacency();
        assert_eq!(adj[0].len(), 2);
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn connectivity() {
        let mut m = water();
        assert!(m.is_connected());
        assert_eq!(m.connected_components(), 1);
        // add an unbonded ion
        m.add_atom(Atom::new(4, "ZN", Element::Zn, Vec3::new(10.0, 0.0, 0.0)));
        assert!(!m.is_connected());
        assert_eq!(m.connected_components(), 2);
        assert_eq!(Molecule::new("x").connected_components(), 0);
    }

    #[test]
    fn contains_element_poison_rule() {
        let mut m = water();
        assert!(!m.contains_element(Element::Hg));
        m.add_atom(Atom::new(4, "HG", Element::Hg, Vec3::new(5.0, 5.0, 5.0)));
        assert!(m.contains_element(Element::Hg));
    }

    #[test]
    fn translate_moves_all_atoms() {
        let mut w = water();
        let before = w.centroid();
        w.translate(Vec3::new(1.0, 2.0, 3.0));
        let after = w.centroid();
        assert!((after - before - Vec3::new(1.0, 2.0, 3.0)).norm() < 1e-12);
    }

    #[test]
    fn set_positions_roundtrip() {
        let mut w = water();
        let mut pos = w.positions();
        pos[0] = Vec3::new(9.0, 9.0, 9.0);
        w.set_positions(&pos);
        assert_eq!(w.atoms[0].pos, Vec3::new(9.0, 9.0, 9.0));
    }

    #[test]
    #[should_panic(expected = "position count mismatch")]
    fn set_positions_len_mismatch_panics() {
        let mut w = water();
        w.set_positions(&[Vec3::ZERO]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_bond_panics() {
        let mut m = Molecule::new("bad");
        m.add_atom(Atom::new(1, "C", Element::C, Vec3::ZERO));
        m.add_bond(0, 0, BondOrder::Single);
    }

    #[test]
    fn perceive_bonds_finds_oh_bonds() {
        let mut m = water();
        m.bonds.clear();
        let added = m.perceive_bonds(1.2);
        assert_eq!(added, 2);
        // idempotent: running again adds nothing
        assert_eq!(m.perceive_bonds(1.2), 0);
    }

    #[test]
    fn bond_order_sdf_codes() {
        for o in [BondOrder::Single, BondOrder::Double, BondOrder::Triple, BondOrder::Aromatic] {
            assert_eq!(BondOrder::from_sdf_code(o.sdf_code()), Some(o));
        }
        assert_eq!(BondOrder::from_sdf_code(9), None);
    }

    #[test]
    fn radius_of_gyration_scales() {
        let w = water();
        let rg = w.radius_of_gyration();
        assert!(rg > 0.0 && rg < 1.0, "water Rg should be sub-Å, got {rg}");
        assert_eq!(Molecule::new("e").radius_of_gyration(), 0.0);
    }

    #[test]
    fn ad_types_sorted_dedup() {
        let w = water();
        let ts = w.ad_types();
        assert_eq!(ts.len(), 2); // OA + H (two hydrogens dedup to one type)
    }
}
