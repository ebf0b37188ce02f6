//! Tripos MOL2 — the output of SciDock activity 1 (Babel SDF→MOL2).
//!
//! Sections used: `@<TRIPOS>MOLECULE`, `@<TRIPOS>ATOM`, `@<TRIPOS>BOND`.
//! Atom lines are whitespace-delimited:
//! `id name x y z sybyl_type subst_id subst_name charge`.

use crate::atom::Atom;
use crate::element::Element;
use crate::molecule::{BondOrder, Molecule};
use crate::vec3::Vec3;

use super::ParseError;

/// Parse a MOL2 file.
pub fn read_mol2(text: &str) -> Result<Molecule, ParseError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Molecule(usize),
        Atom,
        Bond,
        Other,
    }
    let mut section = Section::None;
    let mut mol = Molecule::new("");
    let mut expected_atoms = None::<usize>;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("@<TRIPOS>") {
            section = match rest.trim() {
                "MOLECULE" => Section::Molecule(0),
                "ATOM" => Section::Atom,
                "BOND" => Section::Bond,
                _ => Section::Other,
            };
            continue;
        }
        match section {
            Section::Molecule(n) => {
                match n {
                    0 => mol.name = line.trim().to_string(),
                    1 => {
                        let mut it = line.split_whitespace();
                        if let Some(first) = it.next() {
                            expected_atoms = first.parse::<usize>().ok();
                        }
                    }
                    _ => {}
                }
                section = Section::Molecule(n + 1);
            }
            Section::Atom => {
                let f: Vec<&str> = line.split_whitespace().collect();
                if f.len() < 6 {
                    return Err(ParseError::new(lineno, format!("short ATOM line: {line:?}")));
                }
                let serial: u32 = f[0]
                    .parse()
                    .map_err(|_| ParseError::new(lineno, format!("bad atom id {:?}", f[0])))?;
                let name = f[1].to_string();
                let x: f64 = f[2].parse().map_err(|_| ParseError::new(lineno, "bad x"))?;
                let y: f64 = f[3].parse().map_err(|_| ParseError::new(lineno, "bad y"))?;
                let z: f64 = f[4].parse().map_err(|_| ParseError::new(lineno, "bad z"))?;
                // SYBYL type like "C.3", "N.ar", "O.2": element before the dot
                let sybyl = f[5];
                let elem_str = sybyl.split('.').next().unwrap_or(sybyl);
                let element: Element =
                    elem_str.parse().map_err(|e| ParseError::new(lineno, format!("{e}")))?;
                let mut atom = Atom::new(serial, name, element, Vec3::new(x, y, z));
                if let Some(q) = f.get(8) {
                    atom.charge = q.parse().unwrap_or(0.0);
                }
                if let Some(rn) = f.get(7) {
                    atom.res_name = rn.to_string();
                }
                mol.add_atom(atom);
            }
            Section::Bond => {
                let f: Vec<&str> = line.split_whitespace().collect();
                if f.len() < 4 {
                    return Err(ParseError::new(lineno, format!("short BOND line: {line:?}")));
                }
                let a: usize = f[1].parse().map_err(|_| ParseError::new(lineno, "bad bond a"))?;
                let b: usize = f[2].parse().map_err(|_| ParseError::new(lineno, "bad bond b"))?;
                let order = match f[3] {
                    "1" => BondOrder::Single,
                    "2" => BondOrder::Double,
                    "3" => BondOrder::Triple,
                    "ar" => BondOrder::Aromatic,
                    "am" => BondOrder::Single, // amide: treated as single
                    other => {
                        return Err(ParseError::new(lineno, format!("bad bond type {other:?}")))
                    }
                };
                if a == 0 || b == 0 || a > mol.atoms.len() || b > mol.atoms.len() {
                    return Err(ParseError::new(lineno, "bond atom index out of range"));
                }
                if a == b {
                    return Err(ParseError::new(lineno, format!("bond joins atom {a} to itself")));
                }
                mol.add_bond(a - 1, b - 1, order);
            }
            Section::None | Section::Other => {}
        }
    }
    if mol.atoms.is_empty() {
        return Err(ParseError::new(0, "MOL2 contains no atoms"));
    }
    if let Some(n) = expected_atoms {
        if n != mol.atoms.len() {
            return Err(ParseError::new(
                0,
                format!(
                    "MOLECULE header declares {n} atoms but ATOM section has {}",
                    mol.atoms.len()
                ),
            ));
        }
    }
    Ok(mol)
}

/// SYBYL atom type of an atom (approximate: enough for Babel-style output).
fn sybyl_type(mol: &Molecule, i: usize) -> String {
    let a = &mol.atoms[i];
    match a.element {
        Element::C => {
            let arom =
                mol.bonds.iter().any(|b| (b.a == i || b.b == i) && b.order == BondOrder::Aromatic);
            if arom {
                "C.ar".into()
            } else {
                "C.3".into()
            }
        }
        Element::N => "N.3".into(),
        Element::O => "O.3".into(),
        Element::S => "S.3".into(),
        Element::H => "H".into(),
        Element::P => "P.3".into(),
        e => e.symbol().to_string(),
    }
}

/// Serialize a molecule as MOL2.
pub fn write_mol2(mol: &Molecule) -> String {
    let mut out = String::new();
    out.push_str("@<TRIPOS>MOLECULE\n");
    out.push_str(&format!("{}\n", mol.name));
    out.push_str(&format!("{:>5} {:>5}     1     0     0\n", mol.atoms.len(), mol.bonds.len()));
    out.push_str("SMALL\nUSER_CHARGES\n\n@<TRIPOS>ATOM\n");
    for (i, a) in mol.atoms.iter().enumerate() {
        out.push_str(&format!(
            "{:>7} {:<8} {:>9.4} {:>9.4} {:>9.4} {:<5} {:>3} {:<8} {:>9.4}\n",
            a.serial,
            a.name,
            a.pos.x,
            a.pos.y,
            a.pos.z,
            sybyl_type(mol, i),
            1,
            a.res_name,
            a.charge,
        ));
    }
    out.push_str("@<TRIPOS>BOND\n");
    for (k, b) in mol.bonds.iter().enumerate() {
        let t = match b.order {
            BondOrder::Single => "1",
            BondOrder::Double => "2",
            BondOrder::Triple => "3",
            BondOrder::Aromatic => "ar",
        };
        out.push_str(&format!("{:>6} {:>5} {:>5} {}\n", k + 1, b.a + 1, b.b + 1, t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Molecule {
        let mut m = Molecule::new("lig42");
        let mut a1 = Atom::new(1, "C1", Element::C, Vec3::new(0.0, 0.0, 0.0));
        a1.charge = -0.12;
        a1.res_name = "LIG".into();
        let mut a2 = Atom::new(2, "N1", Element::N, Vec3::new(1.4, 0.1, -0.2));
        a2.charge = 0.3;
        a2.res_name = "LIG".into();
        m.add_atom(a1);
        m.add_atom(a2);
        m.add_bond(0, 1, BondOrder::Single);
        m
    }

    #[test]
    fn roundtrip_with_charges() {
        let m = mk();
        let back = read_mol2(&write_mol2(&m)).unwrap();
        assert_eq!(back.name, "lig42");
        assert_eq!(back.atom_count(), 2);
        assert!((back.atoms[0].charge + 0.12).abs() < 1e-6);
        assert!((back.atoms[1].charge - 0.3).abs() < 1e-6);
        assert_eq!(back.bonds.len(), 1);
    }

    #[test]
    fn aromatic_bonds_survive() {
        let mut m = mk();
        m.bonds[0].order = BondOrder::Aromatic;
        let back = read_mol2(&write_mol2(&m)).unwrap();
        assert_eq!(back.bonds[0].order, BondOrder::Aromatic);
    }

    #[test]
    fn sybyl_dot_types_parse_to_elements() {
        let text = "\
@<TRIPOS>MOLECULE
x
 2 1 1 0 0
SMALL
NO_CHARGES

@<TRIPOS>ATOM
      1 C1    0.0 0.0 0.0 C.ar  1 LIG 0.0
      2 O1    1.2 0.0 0.0 O.2   1 LIG 0.0
@<TRIPOS>BOND
     1 1 2 2
";
        let m = read_mol2(text).unwrap();
        assert_eq!(m.atoms[0].element, Element::C);
        assert_eq!(m.atoms[1].element, Element::O);
        assert_eq!(m.bonds[0].order, BondOrder::Double);
        // a bond from an atom to itself is refused, not a panic
        let looped = text.replace("     1 1 2 2", "     1 2 2 2");
        assert!(read_mol2(&looped).unwrap_err().to_string().contains("to itself"));
    }

    #[test]
    fn amide_bond_reads_as_single() {
        let text = "\
@<TRIPOS>MOLECULE
x
 2 1
SMALL
NO_CHARGES

@<TRIPOS>ATOM
      1 C1    0.0 0.0 0.0 C.3  1 LIG 0.0
      2 N1    1.3 0.0 0.0 N.am 1 LIG 0.0
@<TRIPOS>BOND
     1 1 2 am
";
        let m = read_mol2(text).unwrap();
        assert_eq!(m.bonds[0].order, BondOrder::Single);
    }

    #[test]
    fn header_atom_count_mismatch_rejected() {
        let text = "\
@<TRIPOS>MOLECULE
x
 5 0
SMALL
NO_CHARGES

@<TRIPOS>ATOM
      1 C1    0.0 0.0 0.0 C.3  1 LIG 0.0
";
        assert!(read_mol2(text).unwrap_err().to_string().contains("declares 5 atoms"));
    }

    #[test]
    fn rejects_empty_and_bad_bonds() {
        assert!(read_mol2("").is_err());
        let text = "\
@<TRIPOS>MOLECULE
x
 1 1
S
N

@<TRIPOS>ATOM
      1 C1 0 0 0 C.3 1 LIG 0.0
@<TRIPOS>BOND
     1 1 9 1
";
        assert!(read_mol2(text).unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let m = mk();
        let text = format!("# babel-style comment\n\n{}", write_mol2(&m));
        assert_eq!(read_mol2(&text).unwrap().atom_count(), 2);
    }
}
