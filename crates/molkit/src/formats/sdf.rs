//! SDF / MDL Molfile (V2000) — the ligand input format of SciDock activity 1.
//!
//! Layout: 3 header lines, a counts line (`aaabbb...V2000`), an atom block
//! (`x y z element`), a bond block (`aaa bbb type`), `M  END`, optional data
//! fields, and `$$$$` terminating each record in a multi-molecule file.

use crate::atom::Atom;
use crate::element::Element;
use crate::molecule::{BondOrder, Molecule};
use crate::vec3::Vec3;

use super::{cols, field_f64, field_u32, ParseError};

/// Parse the first molecule of an SDF file.
pub fn read_sdf(text: &str) -> Result<Molecule, ParseError> {
    read_sdf_multi(text)?
        .into_iter()
        .next()
        .ok_or_else(|| ParseError::new(0, "SDF contains no molecules"))
}

/// Parse every molecule in a (possibly multi-record) SDF file.
fn read_sdf_multi(text: &str) -> Result<Vec<Molecule>, ParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut mols = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        // skip blank separators between records
        while i < lines.len() && lines[i].trim().is_empty() {
            i += 1;
        }
        if i >= lines.len() {
            break;
        }
        let start = i;
        if start + 3 >= lines.len() {
            return Err(ParseError::new(start + 1, "truncated SDF header"));
        }
        let name = lines[start].trim().to_string();
        let counts_line = lines[start + 3];
        let counts_no = start + 4;
        let n_atoms = field_u32(cols(counts_line, 0, 3), counts_no, "atom count")? as usize;
        let n_bonds = field_u32(cols(counts_line, 3, 6), counts_no, "bond count")? as usize;

        let mut mol = Molecule::new(name);
        let atom_base = start + 4;
        if atom_base + n_atoms + n_bonds > lines.len() {
            return Err(ParseError::new(counts_no, "SDF truncated before end of blocks"));
        }
        for k in 0..n_atoms {
            let l = lines[atom_base + k];
            let no = atom_base + k + 1;
            let x = field_f64(cols(l, 0, 10), no, "x")?;
            let y = field_f64(cols(l, 10, 20), no, "y")?;
            let z = field_f64(cols(l, 20, 30), no, "z")?;
            let sym = cols(l, 31, 34).trim();
            let element: Element = sym.parse().map_err(|e| ParseError::new(no, format!("{e}")))?;
            let mut a = Atom::new(
                k as u32 + 1,
                format!("{}{}", element.symbol(), k + 1),
                element,
                Vec3::new(x, y, z),
            );
            a.res_name = "LIG".to_string();
            mol.add_atom(a);
        }
        let bond_base = atom_base + n_atoms;
        for k in 0..n_bonds {
            let l = lines[bond_base + k];
            let no = bond_base + k + 1;
            let a = field_u32(cols(l, 0, 3), no, "bond atom a")? as usize;
            let b = field_u32(cols(l, 3, 6), no, "bond atom b")? as usize;
            let code = field_u32(cols(l, 6, 9), no, "bond type")?;
            if a == 0 || b == 0 || a > n_atoms || b > n_atoms {
                return Err(ParseError::new(
                    no,
                    format!("bond references atom {a}/{b} out of 1..={n_atoms}"),
                ));
            }
            if a == b {
                return Err(ParseError::new(no, format!("bond joins atom {a} to itself")));
            }
            let order = BondOrder::from_sdf_code(code as u8)
                .ok_or_else(|| ParseError::new(no, format!("bad bond type {code}")))?;
            mol.add_bond(a - 1, b - 1, order);
        }
        // skip to record terminator
        let mut j = bond_base + n_bonds;
        while j < lines.len() && lines[j].trim() != "$$$$" {
            j += 1;
        }
        i = j + 1;
        mols.push(mol);
    }
    if mols.is_empty() {
        return Err(ParseError::new(0, "SDF contains no molecules"));
    }
    Ok(mols)
}

/// Serialize a molecule as a single-record SDF (V2000).
pub fn write_sdf(mol: &Molecule) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\n  molkit          3D\n\n", mol.name));
    out.push_str(&format!(
        "{:>3}{:>3}  0  0  0  0  0  0  0  0999 V2000\n",
        mol.atoms.len(),
        mol.bonds.len()
    ));
    for a in &mol.atoms {
        out.push_str(&format!(
            "{:>10.4}{:>10.4}{:>10.4} {:<3} 0  0  0  0  0  0  0  0  0  0  0  0\n",
            a.pos.x,
            a.pos.y,
            a.pos.z,
            a.element.symbol()
        ));
    }
    for b in &mol.bonds {
        out.push_str(&format!("{:>3}{:>3}{:>3}  0\n", b.a + 1, b.b + 1, b.order.sdf_code()));
    }
    out.push_str("M  END\n$$$$\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ethanol() -> Molecule {
        let mut m = Molecule::new("ethanol");
        m.add_atom(Atom::new(1, "C1", Element::C, Vec3::new(0.0, 0.0, 0.0)));
        m.add_atom(Atom::new(2, "C2", Element::C, Vec3::new(1.512, 0.0, 0.0)));
        m.add_atom(Atom::new(3, "O1", Element::O, Vec3::new(2.2, 1.25, -0.5)));
        m.add_bond(0, 1, BondOrder::Single);
        m.add_bond(1, 2, BondOrder::Single);
        m
    }

    #[test]
    fn roundtrip() {
        let m = ethanol();
        let text = write_sdf(&m);
        let back = read_sdf(&text).unwrap();
        assert_eq!(back.name, "ethanol");
        assert_eq!(back.atom_count(), 3);
        assert_eq!(back.bonds.len(), 2);
        assert_eq!(back.bonds[0].order, BondOrder::Single);
        for (a, b) in m.atoms.iter().zip(&back.atoms) {
            assert!((a.pos - b.pos).norm() < 1e-4);
            assert_eq!(a.element, b.element);
        }
    }

    #[test]
    fn multi_record_file() {
        let text = format!("{}{}", write_sdf(&ethanol()), write_sdf(&ethanol()));
        let mols = read_sdf_multi(&text).unwrap();
        assert_eq!(mols.len(), 2);
        // read_sdf takes the first
        assert_eq!(read_sdf(&text).unwrap().name, "ethanol");
    }

    #[test]
    fn aromatic_bond_roundtrip() {
        let mut m = ethanol();
        m.bonds[0].order = BondOrder::Aromatic;
        let back = read_sdf(&write_sdf(&m)).unwrap();
        assert_eq!(back.bonds[0].order, BondOrder::Aromatic);
    }

    #[test]
    fn rejects_truncated_header() {
        assert!(read_sdf("name\nonly-two-lines").is_err());
    }

    #[test]
    fn rejects_bond_out_of_range() {
        let text = "\
bad
  molkit

  1  1  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 C   0  0
  1  2  1  0
M  END
$$$$
";
        let err = read_sdf(text).unwrap_err();
        assert!(err.to_string().contains("out of"));
        // a bond from an atom to itself is refused, not a panic
        let looped = text.replace("  1  2  1  0", "  1  1  1  0");
        assert!(read_sdf(&looped).unwrap_err().to_string().contains("to itself"));
    }

    #[test]
    fn rejects_unknown_bond_type() {
        let text = "\
bad
  molkit

  2  1  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 C   0  0
    1.5000    0.0000    0.0000 C   0  0
  1  2  7  0
M  END
$$$$
";
        assert!(read_sdf(text).unwrap_err().to_string().contains("bad bond type"));
    }

    #[test]
    fn rejects_empty() {
        assert!(read_sdf("").is_err());
        assert!(read_sdf("\n\n\n").is_err());
    }

    #[test]
    fn atoms_marked_as_ligand_residue() {
        let back = read_sdf(&write_sdf(&ethanol())).unwrap();
        assert!(back.atoms.iter().all(|a| a.res_name == "LIG"));
    }
}
