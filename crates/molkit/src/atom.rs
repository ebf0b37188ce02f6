//! Atoms and AutoDock-style atom typing.
//!
//! AutoDock 4 and Vina classify atoms into a small set of *AD types* that
//! select force-field parameters: aromatic vs aliphatic carbon, hydrogen-bond
//! donor hydrogens, acceptor nitrogens/oxygens/sulfurs, and so on. The typing
//! rules here are the subset needed for protein receptors and drug-like
//! ligands.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::element::Element;
use crate::vec3::Vec3;

/// AutoDock 4 force-field atom type (the `type` column of PDBQT files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AdType {
    /// Aliphatic carbon.
    C,
    /// Aromatic carbon.
    A,
    /// Nitrogen (non-acceptor).
    N,
    /// Nitrogen hydrogen-bond acceptor.
    NA,
    /// Oxygen hydrogen-bond acceptor.
    OA,
    /// Sulfur hydrogen-bond acceptor.
    SA,
    /// Sulfur (non-acceptor).
    S,
    /// Non-polar hydrogen (merged away during preparation).
    H,
    /// Polar hydrogen (hydrogen-bond donor).
    HD,
    /// Phosphorus.
    P,
    /// Fluorine.
    F,
    /// Chlorine.
    Cl,
    /// Bromine.
    Br,
    /// Iodine.
    I,
    /// Generic metal (Fe, Zn, Mg, Ca, Mn).
    Met,
    /// Mercury. Kept distinct so the workflow's Hg-blacklist rule can fire.
    Hg,
}

impl AdType {
    /// Every AD type, in a stable order (used to enumerate grid maps).
    pub const ALL: [AdType; 16] = [
        AdType::C,
        AdType::A,
        AdType::N,
        AdType::NA,
        AdType::OA,
        AdType::SA,
        AdType::S,
        AdType::H,
        AdType::HD,
        AdType::P,
        AdType::F,
        AdType::Cl,
        AdType::Br,
        AdType::I,
        AdType::Met,
        AdType::Hg,
    ];

    /// The PDBQT column spelling.
    pub fn label(self) -> &'static str {
        match self {
            AdType::C => "C",
            AdType::A => "A",
            AdType::N => "N",
            AdType::NA => "NA",
            AdType::OA => "OA",
            AdType::SA => "SA",
            AdType::S => "S",
            AdType::H => "H",
            AdType::HD => "HD",
            AdType::P => "P",
            AdType::F => "F",
            AdType::Cl => "Cl",
            AdType::Br => "Br",
            AdType::I => "I",
            AdType::Met => "M",
            AdType::Hg => "Hg",
        }
    }

    /// Underlying element for parameter lookup.
    pub fn element(self) -> Element {
        match self {
            AdType::C | AdType::A => Element::C,
            AdType::N | AdType::NA => Element::N,
            AdType::OA => Element::O,
            AdType::S | AdType::SA => Element::S,
            AdType::H | AdType::HD => Element::H,
            AdType::P => Element::P,
            AdType::F => Element::F,
            AdType::Cl => Element::Cl,
            AdType::Br => Element::Br,
            AdType::I => Element::I,
            AdType::Met => Element::Zn,
            AdType::Hg => Element::Hg,
        }
    }

    /// Hydrogen-bond acceptor?
    pub fn is_acceptor(self) -> bool {
        matches!(self, AdType::NA | AdType::OA | AdType::SA)
    }

    /// Hydrogen-bond donor hydrogen?
    pub fn is_donor_h(self) -> bool {
        self == AdType::HD
    }

    /// Hydrophobic per the Vina classification (carbons and halogens).
    pub fn is_hydrophobic(self) -> bool {
        matches!(self, AdType::C | AdType::A | AdType::F | AdType::Cl | AdType::Br | AdType::I)
    }

    /// Classify an element into its default AD type.
    ///
    /// `aromatic` and `polar`/`acceptor` refinements are context the caller
    /// (typer) supplies; this gives the base mapping.
    pub fn from_element(e: Element, aromatic: bool, acceptor: bool, polar_h: bool) -> AdType {
        match e {
            Element::C => {
                if aromatic {
                    AdType::A
                } else {
                    AdType::C
                }
            }
            Element::N => {
                if acceptor {
                    AdType::NA
                } else {
                    AdType::N
                }
            }
            Element::O => AdType::OA,
            Element::S => {
                if acceptor {
                    AdType::SA
                } else {
                    AdType::S
                }
            }
            Element::H => {
                if polar_h {
                    AdType::HD
                } else {
                    AdType::H
                }
            }
            Element::P => AdType::P,
            Element::F => AdType::F,
            Element::Cl => AdType::Cl,
            Element::Br => AdType::Br,
            Element::I => AdType::I,
            Element::Hg => AdType::Hg,
            Element::Fe | Element::Zn | Element::Mg | Element::Ca | Element::Mn => AdType::Met,
        }
    }
}

impl fmt::Display for AdType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error for unparseable AD type labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAdType(pub String);

impl fmt::Display for UnknownAdType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown AutoDock atom type {:?}", self.0)
    }
}

impl std::error::Error for UnknownAdType {}

impl FromStr for AdType {
    type Err = UnknownAdType;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        for a in AdType::ALL {
            if t == a.label() {
                return Ok(a);
            }
        }
        Err(UnknownAdType(t.to_string()))
    }
}

/// One atom of a molecule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Atom {
    /// 1-based serial as found in / written to structure files.
    pub serial: u32,
    /// Atom name, e.g. `CA`, `N`, `O1`.
    pub name: String,
    /// Chemical element.
    pub element: Element,
    /// Position in Å.
    pub pos: Vec3,
    /// Partial charge in elementary charges (0 until assigned).
    pub charge: f64,
    /// AutoDock atom type (defaulted from the element until typed).
    pub ad_type: AdType,
    /// Residue name for receptor atoms (`LIG` for ligand atoms).
    pub res_name: String,
    /// Residue sequence number.
    pub res_seq: u32,
}

impl Atom {
    /// New atom with element-default typing and zero charge.
    pub fn new(serial: u32, name: impl Into<String>, element: Element, pos: Vec3) -> Atom {
        Atom {
            serial,
            name: name.into(),
            element,
            pos,
            charge: 0.0,
            ad_type: AdType::from_element(element, false, false, false),
            res_name: "UNK".to_string(),
            res_seq: 1,
        }
    }

    /// Builder-style residue assignment.
    pub fn with_residue(mut self, res_name: impl Into<String>, res_seq: u32) -> Atom {
        self.res_name = res_name.into();
        self.res_seq = res_seq;
        self
    }

    /// Is this a hydrogen atom?
    pub fn is_hydrogen(&self) -> bool {
        self.element == Element::H
    }
}

#[cfg(test)]
impl AdType {
    /// True for heavy (non-hydrogen) types. RMSD is computed on these only.
    fn is_heavy(self) -> bool {
        !matches!(self, AdType::H | AdType::HD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adtype_label_roundtrip() {
        for a in AdType::ALL {
            assert_eq!(a.label().parse::<AdType>().unwrap(), a);
        }
        assert!("XX".parse::<AdType>().is_err());
    }

    #[test]
    fn acceptor_and_donor_flags() {
        assert!(AdType::OA.is_acceptor());
        assert!(AdType::NA.is_acceptor());
        assert!(AdType::SA.is_acceptor());
        assert!(!AdType::C.is_acceptor());
        assert!(AdType::HD.is_donor_h());
        assert!(!AdType::H.is_donor_h());
    }

    #[test]
    fn hydrophobic_classification() {
        assert!(AdType::C.is_hydrophobic());
        assert!(AdType::A.is_hydrophobic());
        assert!(AdType::Cl.is_hydrophobic());
        assert!(!AdType::OA.is_hydrophobic());
        assert!(!AdType::HD.is_hydrophobic());
    }

    #[test]
    fn heavy_excludes_hydrogens() {
        assert!(!AdType::H.is_heavy());
        assert!(!AdType::HD.is_heavy());
        assert!(AdType::C.is_heavy());
        assert!(AdType::Hg.is_heavy());
    }

    #[test]
    fn from_element_contextual() {
        assert_eq!(AdType::from_element(Element::C, true, false, false), AdType::A);
        assert_eq!(AdType::from_element(Element::C, false, false, false), AdType::C);
        assert_eq!(AdType::from_element(Element::N, false, true, false), AdType::NA);
        assert_eq!(AdType::from_element(Element::O, false, false, false), AdType::OA);
        assert_eq!(AdType::from_element(Element::H, false, false, true), AdType::HD);
        assert_eq!(AdType::from_element(Element::Hg, false, false, false), AdType::Hg);
        assert_eq!(AdType::from_element(Element::Zn, false, false, false), AdType::Met);
    }

    #[test]
    fn adtype_element_consistency() {
        for a in AdType::ALL {
            // the element of an AD type must map back to a type of the same element
            let e = a.element();
            let back = AdType::from_element(e, false, false, false);
            assert_eq!(back.element(), e);
        }
    }

    #[test]
    fn atom_constructor_defaults() {
        let a = Atom::new(1, "CA", Element::C, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(a.ad_type, AdType::C);
        assert_eq!(a.charge, 0.0);
        assert_eq!(a.res_name, "UNK");
        assert!(!a.is_hydrogen());
        let h = Atom::new(2, "H1", Element::H, Vec3::ZERO).with_residue("GLY", 7);
        assert!(h.is_hydrogen());
        assert_eq!(h.res_name, "GLY");
        assert_eq!(h.res_seq, 7);
    }
}
