//! PDBQT — AutoDock's structure format: PDB columns plus partial charge (Q)
//! and AutoDock atom type (T).
//!
//! Receptors are flat atom lists. Ligands additionally carry the torsion
//! tree as `ROOT`/`ENDROOT`/`BRANCH a b`/`ENDBRANCH a b`/`TORSDOF n`
//! records, which the docking engines use to pose the molecule.

use crate::atom::{AdType, Atom};
use crate::molecule::Molecule;
use crate::torsion::{Branch, TorsionTree};
use crate::vec3::Vec3;

use super::pdb::format_atom_prefix;
use super::{cols, field_f64, field_u32, ParseError};

/// A prepared ligand: molecule + torsion tree, as stored in ligand PDBQT.
#[derive(Debug, Clone, PartialEq)]
pub struct PdbqtLigand {
    /// The prepared molecule.
    pub mol: Molecule,
    /// Its rotatable-bond tree.
    pub tree: TorsionTree,
}

fn parse_atom_line(line: &str, lineno: usize) -> Result<Atom, ParseError> {
    let serial = field_u32(cols(line, 6, 11), lineno, "serial")?;
    let name = cols(line, 12, 16).trim().to_string();
    let res_name = cols(line, 17, 20).trim().to_string();
    let res_seq = field_u32(cols(line, 22, 26), lineno, "resSeq").unwrap_or(0);
    let x = field_f64(cols(line, 30, 38), lineno, "x")?;
    let y = field_f64(cols(line, 38, 46), lineno, "y")?;
    let z = field_f64(cols(line, 46, 54), lineno, "z")?;
    // tail after the occupancy/tempFactor columns: "charge adtype"
    let tail = cols(line, 66, line.len());
    let mut it = tail.split_whitespace();
    let charge: f64 = it
        .next()
        .ok_or_else(|| ParseError::new(lineno, "missing charge column"))?
        .parse()
        .map_err(|_| ParseError::new(lineno, "bad charge"))?;
    let ad_str = it.next().ok_or_else(|| ParseError::new(lineno, "missing atom-type column"))?;
    let ad_type: AdType = ad_str.parse().map_err(|e| ParseError::new(lineno, format!("{e}")))?;
    let mut atom = Atom::new(serial, name, ad_type.element(), Vec3::new(x, y, z))
        .with_residue(res_name, res_seq);
    atom.charge = charge;
    atom.ad_type = ad_type;
    Ok(atom)
}

fn format_atom_line(a: &Atom) -> String {
    format!("{}    {:>6.3} {:<2}\n", format_atom_prefix("ATOM", a), a.charge, a.ad_type.label())
}

/// Parse a receptor PDBQT (flat atom list; tree records rejected).
pub fn read_receptor_pdbqt(text: &str) -> Result<Molecule, ParseError> {
    let mut mol = Molecule::new("");
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let rec = cols(line, 0, 6).trim();
        match rec {
            "ATOM" | "HETATM" => {
                mol.add_atom(parse_atom_line(line, lineno)?);
            }
            "REMARK" | "TER" | "" => {}
            "NAME" => mol.name = cols(line, 6, line.len()).trim().to_string(),
            "END" => break,
            "ROOT" | "ENDROOT" | "BRANCH" | "ENDBRANCH" | "TORSDOF" => {
                return Err(ParseError::new(lineno, "torsion-tree record in receptor PDBQT"));
            }
            other => return Err(ParseError::new(lineno, format!("unknown record {other:?}"))),
        }
    }
    if mol.atoms.is_empty() {
        return Err(ParseError::new(0, "receptor PDBQT contains no atoms"));
    }
    Ok(mol)
}

/// Serialize a receptor PDBQT.
pub fn write_receptor_pdbqt(mol: &Molecule) -> String {
    let mut out = String::new();
    if !mol.name.is_empty() {
        out.push_str(&format!("NAME  {}\n", mol.name));
    }
    out.push_str(&format!("REMARK  {} atoms\n", mol.atoms.len()));
    for a in &mol.atoms {
        out.push_str(&format_atom_line(a));
    }
    out.push_str("END\n");
    out
}

/// Parse a ligand PDBQT with its torsion tree.
///
/// Atom indices inside `BRANCH` records are 1-based serials in file order;
/// we map them to 0-based indices in `mol.atoms`.
pub fn read_ligand_pdbqt(text: &str) -> Result<PdbqtLigand, ParseError> {
    let mut mol = Molecule::new("");
    let mut root: Vec<usize> = Vec::new();
    let mut branches: Vec<Branch> = Vec::new();
    // stack of (axis_from_serial, axis_to_serial, atoms collected)
    let mut stack: Vec<(u32, u32, Vec<usize>)> = Vec::new();
    let mut in_root = false;
    let mut torsdof: Option<usize> = None;
    let mut serial_to_index: std::collections::HashMap<u32, usize> = Default::default();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let rec = cols(line, 0, 9).split_whitespace().next().unwrap_or("");
        match rec {
            "ATOM" | "HETATM" => {
                let atom = parse_atom_line(line, lineno)?;
                let i = mol.atoms.len();
                serial_to_index.insert(atom.serial, i);
                mol.add_atom(atom);
                if in_root {
                    root.push(i);
                } else if stack.is_empty() {
                    return Err(ParseError::new(lineno, "atom outside ROOT/BRANCH"));
                }
                // atom belongs to every open branch (nested branches move together)
                for frame in &mut stack {
                    frame.2.push(i);
                }
            }
            "ROOT" => in_root = true,
            "ENDROOT" => in_root = false,
            "BRANCH" => {
                let mut it = line.split_whitespace().skip(1);
                let a: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::new(lineno, "BRANCH missing serials"))?;
                let b: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::new(lineno, "BRANCH missing second serial"))?;
                stack.push((a, b, Vec::new()));
            }
            "ENDBRANCH" => {
                let (a, b, atoms) = stack
                    .pop()
                    .ok_or_else(|| ParseError::new(lineno, "ENDBRANCH without BRANCH"))?;
                let from = *serial_to_index
                    .get(&a)
                    .ok_or_else(|| ParseError::new(lineno, format!("BRANCH serial {a} unknown")))?;
                let to = *serial_to_index
                    .get(&b)
                    .ok_or_else(|| ParseError::new(lineno, format!("BRANCH serial {b} unknown")))?;
                let mut moved = atoms;
                moved.sort_unstable();
                moved.dedup();
                branches.push(Branch { axis_from: from, axis_to: to, moved });
            }
            "TORSDOF" => {
                let n: usize = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::new(lineno, "bad TORSDOF"))?;
                torsdof = Some(n);
            }
            "REMARK" | "" => {}
            "NAME" => mol.name = cols(line, 6, line.len()).trim().to_string(),
            "END" => break,
            other => return Err(ParseError::new(lineno, format!("unknown record {other:?}"))),
        }
    }
    if !stack.is_empty() {
        return Err(ParseError::new(0, "unclosed BRANCH at end of file"));
    }
    if mol.atoms.is_empty() {
        return Err(ParseError::new(0, "ligand PDBQT contains no atoms"));
    }
    // branches were closed innermost-first; re-sort to parent-before-child
    // (parents have supersets of children's moved atoms, so sort by size desc)
    branches.sort_by_key(|b| std::cmp::Reverse(b.moved.len()));
    if let Some(n) = torsdof {
        if n != branches.len() {
            return Err(ParseError::new(
                0,
                format!("TORSDOF {n} disagrees with {} BRANCH records", branches.len()),
            ));
        }
    }
    Ok(PdbqtLigand { mol, tree: TorsionTree { root, branches } })
}

/// Serialize a ligand PDBQT with its torsion tree.
///
/// Branches are emitted depth-first; nested branches appear inside their
/// parents, matching AutoDockTools output.
pub fn write_ligand_pdbqt(lig: &PdbqtLigand) -> String {
    let mol = &lig.mol;
    let tree = &lig.tree;
    let mut out = String::new();
    if !mol.name.is_empty() {
        out.push_str(&format!("NAME  {}\n", mol.name));
    }
    out.push_str(&format!("REMARK  {} active torsions\n", tree.torsdof()));
    out.push_str("ROOT\n");
    for &i in &tree.root {
        out.push_str(&format_atom_line(&mol.atoms[i]));
    }
    out.push_str("ENDROOT\n");

    // Emit branches depth-first. `direct_atoms(b)` = atoms of b not moved by
    // any child branch.
    let n = tree.branches.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for (i, par) in parent.iter_mut().enumerate() {
        // parent of i = smallest branch strictly containing i's moved set
        let mut best: Option<usize> = None;
        for j in 0..n {
            if i != j
                && tree.branches[j].moved.len() > tree.branches[i].moved.len()
                && tree.branches[i]
                    .moved
                    .iter()
                    .all(|a| tree.branches[j].moved.binary_search(a).is_ok())
            {
                best = match best {
                    None => Some(j),
                    Some(k) if tree.branches[j].moved.len() < tree.branches[k].moved.len() => {
                        Some(j)
                    }
                    keep => keep,
                };
            }
        }
        *par = best;
        if let Some(p) = best {
            children[p].push(i);
        }
    }

    fn emit(
        out: &mut String,
        mol: &Molecule,
        tree: &TorsionTree,
        children: &[Vec<usize>],
        b: usize,
    ) {
        let br = &tree.branches[b];
        let fa = mol.atoms[br.axis_from].serial;
        let ta = mol.atoms[br.axis_to].serial;
        out.push_str(&format!("BRANCH {fa:>3} {ta:>3}\n"));
        let child_moved: std::collections::HashSet<usize> =
            children[b].iter().flat_map(|&c| tree.branches[c].moved.iter().copied()).collect();
        for &i in &br.moved {
            if !child_moved.contains(&i) {
                out.push_str(&format_atom_line(&mol.atoms[i]));
            }
        }
        for &c in &children[b] {
            emit(out, mol, tree, children, c);
        }
        out.push_str(&format!("ENDBRANCH {fa:>3} {ta:>3}\n"));
    }

    for (b, par) in parent.iter().enumerate() {
        if par.is_none() {
            emit(&mut out, mol, tree, &children, b);
        }
    }
    out.push_str(&format!("TORSDOF {}\n", tree.torsdof()));
    out.push_str("END\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::molecule::BondOrder;
    use crate::torsion::build_torsion_tree;

    fn hexane_ligand() -> PdbqtLigand {
        let mut m = Molecule::new("HEX");
        for k in 0..6 {
            let mut a = Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.5, 0.1 * k as f64, 0.0),
            );
            a.charge = -0.05 + 0.01 * k as f64;
            a.res_name = "LIG".into();
            m.add_atom(a);
        }
        for k in 0..5 {
            m.add_bond(k, k + 1, BondOrder::Single);
        }
        let tree = build_torsion_tree(&m);
        PdbqtLigand { mol: m, tree }
    }

    #[test]
    fn receptor_roundtrip() {
        let mut m = Molecule::new("1ABC");
        let mut a = Atom::new(1, "CA", Element::C, Vec3::new(1.0, 2.0, 3.0)).with_residue("GLY", 1);
        a.charge = 0.176;
        a.ad_type = AdType::C;
        m.add_atom(a);
        let mut b =
            Atom::new(2, "OG", Element::O, Vec3::new(-4.5, 0.0, 9.25)).with_residue("SER", 2);
        b.charge = -0.398;
        b.ad_type = AdType::OA;
        m.add_atom(b);
        let text = write_receptor_pdbqt(&m);
        let back = read_receptor_pdbqt(&text).unwrap();
        assert_eq!(back.name, "1ABC");
        assert_eq!(back.atom_count(), 2);
        assert_eq!(back.atoms[1].ad_type, AdType::OA);
        assert!((back.atoms[0].charge - 0.176).abs() < 1e-3);
        assert!((back.atoms[1].pos.z - 9.25).abs() < 1e-3);
    }

    #[test]
    fn ligand_roundtrip_preserves_tree_shape() {
        let lig = hexane_ligand();
        let text = write_ligand_pdbqt(&lig);
        let back = read_ligand_pdbqt(&text).unwrap();
        assert_eq!(back.mol.atom_count(), 6);
        assert_eq!(back.tree.torsdof(), lig.tree.torsdof());
        // moved-set sizes must match (indices may be renumbered by file order)
        let mut a: Vec<usize> = lig.tree.branches.iter().map(|b| b.moved.len()).collect();
        let mut b: Vec<usize> = back.tree.branches.iter().map(|b| b.moved.len()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // root+every-atom partition
        let total: usize = back.tree.root.len()
            + back.tree.branches.iter().map(|br| br.moved.len()).max().unwrap_or(0);
        assert!(total <= back.mol.atom_count() + back.tree.root.len());
    }

    #[test]
    fn torsdof_mismatch_rejected() {
        let lig = hexane_ligand();
        let text = write_ligand_pdbqt(&lig)
            .replace(&format!("TORSDOF {}", lig.tree.torsdof()), "TORSDOF 99");
        assert!(read_ligand_pdbqt(&text).unwrap_err().to_string().contains("TORSDOF"));
    }

    #[test]
    fn unclosed_branch_rejected() {
        let lig = hexane_ligand();
        let mut text = String::new();
        for line in write_ligand_pdbqt(&lig).lines() {
            if !line.starts_with("ENDBRANCH") {
                text.push_str(line);
                text.push('\n');
            }
        }
        assert!(read_ligand_pdbqt(&text).is_err());
    }

    #[test]
    fn tree_records_rejected_in_receptor() {
        let lig = hexane_ligand();
        let text = write_ligand_pdbqt(&lig);
        assert!(read_receptor_pdbqt(&text)
            .unwrap_err()
            .to_string()
            .contains("torsion-tree record"));
    }

    #[test]
    fn atom_outside_root_rejected() {
        let text =
            "ATOM      1  C1  LIG     1       0.000   0.000   0.000  1.00  0.00    -0.050 C\nEND\n";
        assert!(read_ligand_pdbqt(text).unwrap_err().to_string().contains("outside ROOT"));
    }

    #[test]
    fn charges_and_types_roundtrip_exactly() {
        let lig = hexane_ligand();
        let back = read_ligand_pdbqt(&write_ligand_pdbqt(&lig)).unwrap();
        // all charges present with 3-decimal precision
        let mut orig: Vec<i64> =
            lig.mol.atoms.iter().map(|a| (a.charge * 1000.0).round() as i64).collect();
        let mut got: Vec<i64> =
            back.mol.atoms.iter().map(|a| (a.charge * 1000.0).round() as i64).collect();
        orig.sort_unstable();
        got.sort_unstable();
        assert_eq!(orig, got);
        assert!(back.mol.atoms.iter().all(|a| a.ad_type == AdType::C));
    }

    #[test]
    fn rigid_ligand_all_in_root() {
        let mut m = Molecule::new("RIG");
        for k in 0..3 {
            let mut a =
                Atom::new(k + 1, format!("C{k}"), Element::C, Vec3::new(k as f64, 0.0, 0.0));
            a.res_name = "LIG".into();
            m.add_atom(a);
        }
        m.add_bond(0, 1, BondOrder::Single);
        m.add_bond(1, 2, BondOrder::Single);
        let tree = TorsionTree { root: vec![0, 1, 2], branches: Vec::new() };
        let lig = PdbqtLigand { mol: m, tree };
        let back = read_ligand_pdbqt(&write_ligand_pdbqt(&lig)).unwrap();
        assert_eq!(back.tree.torsdof(), 0);
        assert_eq!(back.tree.root.len(), 3);
    }

    #[test]
    fn empty_rejected() {
        assert!(read_receptor_pdbqt("").is_err());
        assert!(read_ligand_pdbqt("ROOT\nENDROOT\nEND\n").is_err());
    }
}
