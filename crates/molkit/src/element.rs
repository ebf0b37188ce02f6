//! Chemical elements and the per-element constants the docking stack needs.
//!
//! Only the elements that occur in protein receptors and drug-like ligands
//! (plus the "poison" heavy metals the paper's fault-tolerance anecdotes rely
//! on) are modelled.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Chemical element of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Element {
    H,
    C,
    N,
    O,
    S,
    P,
    F,
    Cl,
    Br,
    I,
    Fe,
    Zn,
    Mg,
    Ca,
    Mn,
    /// Mercury — receptors containing Hg make the docking programs hang
    /// (paper §V.C); the workflow blacklists them.
    Hg,
}

impl Element {
    /// All supported elements, in atomic-number order.
    pub const ALL: [Element; 16] = [
        Element::H,
        Element::C,
        Element::N,
        Element::O,
        Element::F,
        Element::Mg,
        Element::P,
        Element::S,
        Element::Cl,
        Element::Ca,
        Element::Mn,
        Element::Fe,
        Element::Zn,
        Element::Br,
        Element::I,
        Element::Hg,
    ];

    /// Standard atomic weight in Daltons (rounded; docking does not need more).
    pub fn mass(self) -> f64 {
        match self {
            Element::H => 1.008,
            Element::C => 12.011,
            Element::N => 14.007,
            Element::O => 15.999,
            Element::F => 18.998,
            Element::Mg => 24.305,
            Element::P => 30.974,
            Element::S => 32.06,
            Element::Cl => 35.45,
            Element::Ca => 40.078,
            Element::Mn => 54.938,
            Element::Fe => 55.845,
            Element::Zn => 65.38,
            Element::Br => 79.904,
            Element::I => 126.904,
            Element::Hg => 200.592,
        }
    }

    /// Typical covalent radius in Å, used for bond perception.
    pub fn covalent_radius(self) -> f64 {
        match self {
            Element::H => 0.31,
            Element::C => 0.76,
            Element::N => 0.71,
            Element::O => 0.66,
            Element::F => 0.57,
            Element::Mg => 1.41,
            Element::P => 1.07,
            Element::S => 1.05,
            Element::Cl => 1.02,
            Element::Ca => 1.76,
            Element::Mn => 1.39,
            Element::Fe => 1.32,
            Element::Zn => 1.22,
            Element::Br => 1.20,
            Element::I => 1.39,
            Element::Hg => 1.32,
        }
    }

    /// Pauling electronegativity, used by the Gasteiger-style charge model.
    pub fn electronegativity(self) -> f64 {
        match self {
            Element::H => 2.20,
            Element::C => 2.55,
            Element::N => 3.04,
            Element::O => 3.44,
            Element::F => 3.98,
            Element::Mg => 1.31,
            Element::P => 2.19,
            Element::S => 2.58,
            Element::Cl => 3.16,
            Element::Ca => 1.00,
            Element::Mn => 1.55,
            Element::Fe => 1.83,
            Element::Zn => 1.65,
            Element::Br => 2.96,
            Element::I => 2.66,
            Element::Hg => 2.00,
        }
    }

    /// Canonical symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::C => "C",
            Element::N => "N",
            Element::O => "O",
            Element::F => "F",
            Element::Mg => "Mg",
            Element::P => "P",
            Element::S => "S",
            Element::Cl => "Cl",
            Element::Ca => "Ca",
            Element::Mn => "Mn",
            Element::Fe => "Fe",
            Element::Zn => "Zn",
            Element::Br => "Br",
            Element::I => "I",
            Element::Hg => "Hg",
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Error returned when a symbol cannot be parsed into an [`Element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownElement(pub String);

impl fmt::Display for UnknownElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown element symbol {:?}", self.0)
    }
}

impl std::error::Error for UnknownElement {}

impl FromStr for Element {
    type Err = UnknownElement;

    /// Case-insensitive symbol parse (`"CL"`, `"Cl"`, `"cl"` all work —
    /// PDB columns are upper-case).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        for e in Element::ALL {
            if t.eq_ignore_ascii_case(e.symbol()) {
                return Ok(e);
            }
        }
        Err(UnknownElement(t.to_string()))
    }
}

#[cfg(test)]
impl Element {
    /// Atomic number.
    fn atomic_number(self) -> u8 {
        match self {
            Element::H => 1,
            Element::C => 6,
            Element::N => 7,
            Element::O => 8,
            Element::F => 9,
            Element::Mg => 12,
            Element::P => 15,
            Element::S => 16,
            Element::Cl => 17,
            Element::Ca => 20,
            Element::Mn => 25,
            Element::Fe => 26,
            Element::Zn => 30,
            Element::Br => 35,
            Element::I => 53,
            Element::Hg => 80,
        }
    }

    /// Van der Waals radius in Å (Bondi-style values).
    fn vdw_radius(self) -> f64 {
        match self {
            Element::H => 1.20,
            Element::C => 1.70,
            Element::N => 1.55,
            Element::O => 1.52,
            Element::F => 1.47,
            Element::Mg => 1.73,
            Element::P => 1.80,
            Element::S => 1.80,
            Element::Cl => 1.75,
            Element::Ca => 2.31,
            Element::Mn => 2.05,
            Element::Fe => 2.05,
            Element::Zn => 1.39,
            Element::Br => 1.85,
            Element::I => 1.98,
            Element::Hg => 1.55,
        }
    }

    /// True for metals (mono-atomic in our structures, never in ligands).
    fn is_metal(self) -> bool {
        matches!(
            self,
            Element::Mg | Element::Ca | Element::Mn | Element::Fe | Element::Zn | Element::Hg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_roundtrip_all() {
        for e in Element::ALL {
            assert_eq!(e.symbol().parse::<Element>().unwrap(), e);
            assert_eq!(e.symbol().to_uppercase().parse::<Element>().unwrap(), e);
            assert_eq!(e.symbol().to_lowercase().parse::<Element>().unwrap(), e);
        }
    }

    #[test]
    fn unknown_symbol_errors() {
        assert!("Xx".parse::<Element>().is_err());
        assert!("".parse::<Element>().is_err());
        let err = "Qq".parse::<Element>().unwrap_err();
        assert!(err.to_string().contains("Qq"));
    }

    #[test]
    fn atomic_numbers_strictly_increase_in_all_order() {
        let nums: Vec<u8> = Element::ALL.iter().map(|e| e.atomic_number()).collect();
        assert!(nums.windows(2).all(|w| w[0] < w[1]), "{nums:?}");
    }

    #[test]
    fn physical_constants_positive() {
        for e in Element::ALL {
            assert!(e.mass() > 0.0);
            assert!(e.vdw_radius() > 0.0);
            assert!(e.covalent_radius() > 0.0);
            assert!(e.electronegativity() > 0.0);
        }
    }

    #[test]
    fn hydrogen_lighter_than_everything() {
        for e in Element::ALL {
            if e != Element::H {
                assert!(e.mass() > Element::H.mass());
            }
        }
    }

    #[test]
    fn metal_classification() {
        assert!(Element::Hg.is_metal());
        assert!(Element::Zn.is_metal());
        assert!(!Element::C.is_metal());
        assert!(!Element::S.is_metal());
    }
}
