//! Force-field parameters for the AD4-style and Vina-style scoring functions.
//!
//! Values follow the published AutoDock 4 parameter file (`AD4_parameters.dat`)
//! and the Vina paper (Trott & Olson 2010) in spirit; they are tabulated per
//! [`AdType`] pair once per process so the hot scoring loops do table lookups
//! only.

use std::sync::LazyLock;

use molkit::AdType;

/// Number of distinct AD types (indexable by `AdType as usize` via `ALL`).
pub const N_TYPES: usize = AdType::ALL.len();

/// Map an [`AdType`] to its dense index.
#[inline]
pub fn type_index(t: AdType) -> usize {
    // AdType::ALL is in declaration order; discriminants match positions.
    t as usize
}

/// Per-type Lennard-Jones parameters (sum radius Rii in Å, well depth εii in
/// kcal/mol) per the AutoDock 4 force field.
fn lj_params(t: AdType) -> (f64, f64) {
    match t {
        AdType::C => (4.00, 0.150),
        AdType::A => (4.00, 0.150),
        AdType::N => (3.50, 0.160),
        AdType::NA => (3.50, 0.160),
        AdType::OA => (3.20, 0.200),
        AdType::SA => (4.00, 0.200),
        AdType::S => (4.00, 0.200),
        AdType::H => (2.00, 0.020),
        AdType::HD => (2.00, 0.020),
        AdType::P => (4.20, 0.200),
        AdType::F => (3.09, 0.080),
        AdType::Cl => (4.09, 0.276),
        AdType::Br => (4.33, 0.389),
        AdType::I => (4.72, 0.550),
        AdType::Met => (2.40, 0.550),
        AdType::Hg => (3.20, 0.450),
    }
}

/// AutoDock-style atomic solvation volume (Å³), used by the desolvation term.
fn solvation_volume(t: AdType) -> f64 {
    match t {
        AdType::C | AdType::A => 33.51,
        AdType::N | AdType::NA => 22.45,
        AdType::OA => 17.16,
        AdType::S | AdType::SA => 33.51,
        AdType::H | AdType::HD => 0.0,
        AdType::P => 38.79,
        AdType::F => 15.45,
        AdType::Cl => 35.82,
        AdType::Br => 42.57,
        AdType::I => 55.06,
        AdType::Met => 1.70,
        AdType::Hg => 16.00,
    }
}

/// AutoDock-style atomic solvation parameter (kcal/mol/Å³).
fn solvation_param(t: AdType) -> f64 {
    match t {
        AdType::C => -0.00143,
        AdType::A => -0.00052,
        AdType::N | AdType::NA => -0.00162,
        AdType::OA => -0.00251,
        AdType::S | AdType::SA => -0.00214,
        AdType::H | AdType::HD => 0.00051,
        _ => -0.00110,
    }
}

/// Pairwise parameters the AD4 scoring function needs, precomputed.
#[derive(Debug, Clone, Copy)]
pub struct PairParams {
    /// vdW repulsive coefficient (A of A/r¹² − B/r⁶).
    pub lj_a: f64,
    /// vdW attractive coefficient (B of A/r¹² − B/r⁶).
    pub lj_b: f64,
    /// H-bond repulsive coefficient (C of C/r¹² − D/r¹⁰; zero for non-bonding pairs).
    pub hb_c: f64,
    /// H-bond attractive coefficient (D of C/r¹² − D/r¹⁰).
    pub hb_d: f64,
    /// Is this pair a donor–acceptor hydrogen bond pair?
    pub hbond: bool,
}

/// The full AD4 parameter set, tabulated per type pair.
#[derive(Debug, Clone)]
pub struct Ad4Params {
    pairs: Vec<PairParams>,
    /// Per-type solvation volume.
    pub volume: [f64; N_TYPES],
    /// Per-type solvation parameter.
    pub solpar: [f64; N_TYPES],
    /// Free-energy weight of the vdW term (FE_coeff_vdW of AD4.1).
    pub w_vdw: f64,
    /// Free-energy weight of the H-bond term.
    pub w_hbond: f64,
    /// Free-energy weight of the electrostatic term.
    pub w_estat: f64,
    /// Free-energy weight of the desolvation term.
    pub w_desolv: f64,
    /// Torsional entropy penalty per rotatable bond.
    pub w_tors: f64,
    /// FEB calibration: reported FEB = `feb_scale × inter + W_tors×tors +
    /// feb_offset`. Stands in for AutoDock's unbound-state reference energy,
    /// which our synthetic force field cannot derive; calibrated against
    /// Table 3 (see DESIGN.md).
    pub feb_scale: f64,
    /// Constant FEB shift in kcal/mol (see `feb_scale`).
    pub feb_offset: f64,
}

impl Default for Ad4Params {
    fn default() -> Self {
        Self::new()
    }
}

impl Ad4Params {
    /// The tabulated parameter set: a copy of the one table this process
    /// builds on first use.
    pub fn new() -> Ad4Params {
        static TABLE: LazyLock<Ad4Params> = LazyLock::new(Ad4Params::tabulate);
        TABLE.clone()
    }

    /// Tabulate every type pair's parameters.
    fn tabulate() -> Ad4Params {
        let mut pairs = vec![
            PairParams { lj_a: 0.0, lj_b: 0.0, hb_c: 0.0, hb_d: 0.0, hbond: false };
            N_TYPES * N_TYPES
        ];
        let mut volume = [0.0; N_TYPES];
        let mut solpar = [0.0; N_TYPES];
        for ti in AdType::ALL {
            let i = type_index(ti);
            volume[i] = solvation_volume(ti);
            solpar[i] = solvation_param(ti);
            for tj in AdType::ALL {
                let j = type_index(tj);
                let (ri, ei) = lj_params(ti);
                let (rj, ej) = lj_params(tj);
                let req = 0.5 * (ri + rj);
                let eps = (ei * ej).sqrt();
                // A/r^12 - B/r^6 with minimum (req, -eps)
                let lj_b = 2.0 * eps * req.powi(6);
                let lj_a = eps * req.powi(12);
                let hbond =
                    (ti.is_donor_h() && tj.is_acceptor()) || (tj.is_donor_h() && ti.is_acceptor());
                let (hb_c, hb_d) = if hbond {
                    // 12-10 potential: E = C/r¹² − D/r¹⁰ with minimum
                    // (−εhb at rhb) requires C = 5ε·rhb¹², D = 6ε·rhb¹⁰
                    let rhb: f64 = 1.90;
                    let ehb = 5.0;
                    (5.0 * ehb * rhb.powi(12), 6.0 * ehb * rhb.powi(10))
                } else {
                    (0.0, 0.0)
                };
                pairs[i * N_TYPES + j] = PairParams { lj_a, lj_b, hb_c, hb_d, hbond };
            }
        }
        Ad4Params {
            pairs,
            volume,
            solpar,
            // AutoDock 4.1 free-energy coefficients
            w_vdw: 0.1662,
            w_hbond: 0.1209,
            w_estat: 0.1406,
            w_desolv: 0.1322,
            w_tors: 0.2983,
            feb_scale: 3.5,
            feb_offset: 7.0,
        }
    }

    /// Pair parameters for a type pair.
    #[inline]
    pub fn pair(&self, a: AdType, b: AdType) -> &PairParams {
        &self.pairs[type_index(a) * N_TYPES + type_index(b)]
    }
}

/// Vina scoring-function weights (Trott & Olson 2010, Table 1).
#[derive(Debug, Clone, Copy)]
pub struct VinaParams {
    /// Weight of the steric gauss1 term.
    pub w_gauss1: f64,
    /// Weight of the steric gauss2 term.
    pub w_gauss2: f64,
    /// Weight of the overlap repulsion term.
    pub w_repulsion: f64,
    /// Weight of the hydrophobic contact term.
    pub w_hydrophobic: f64,
    /// Weight of the hydrogen-bond term.
    pub w_hbond: f64,
    /// Conformational entropy weight: score / (1 + w_rot * N_rot).
    pub w_rot: f64,
    /// FEB calibration scale (see [`Ad4Params::feb_scale`]).
    pub feb_scale: f64,
    /// Constant FEB shift in kcal/mol.
    pub feb_offset: f64,
}

impl Default for VinaParams {
    fn default() -> Self {
        VinaParams {
            w_gauss1: -0.035579,
            w_gauss2: -0.005156,
            w_repulsion: 0.840245,
            w_hydrophobic: -0.035069,
            w_hbond: -0.587439,
            w_rot: 0.05846,
            feb_scale: 3.9,
            feb_offset: 9.8,
        }
    }
}

/// Vina's per-type vdW radius (Å): slightly different from AD4's Rii/2.
pub fn vina_radius(t: AdType) -> f64 {
    match t {
        AdType::C | AdType::A => 1.9,
        AdType::N | AdType::NA => 1.8,
        AdType::OA => 1.7,
        AdType::S | AdType::SA => 2.0,
        AdType::P => 2.1,
        AdType::F => 1.5,
        AdType::Cl => 1.8,
        AdType::Br => 2.0,
        AdType::I => 2.2,
        AdType::H | AdType::HD => 1.0,
        AdType::Met => 1.2,
        AdType::Hg => 1.6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_index_bijective() {
        let mut seen = [false; N_TYPES];
        for t in AdType::ALL {
            let i = type_index(t);
            assert!(i < N_TYPES);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
    }

    #[test]
    fn pair_table_symmetric() {
        let p = Ad4Params::new();
        for a in AdType::ALL {
            for b in AdType::ALL {
                let ab = p.pair(a, b);
                let ba = p.pair(b, a);
                assert_eq!(ab.lj_a, ba.lj_a);
                assert_eq!(ab.hb_c, ba.hb_c);
                assert_eq!(ab.hbond, ba.hbond);
            }
        }
    }

    #[test]
    fn lj_minimum_at_req() {
        // E(r) = A/r^12 - B/r^6 must have its minimum at req with depth -eps
        let p = Ad4Params::new();
        let pp = p.pair(AdType::C, AdType::C);
        let req = 4.0;
        let eps = 0.150;
        let e = |r: f64| pp.lj_a / r.powi(12) - pp.lj_b / r.powi(6);
        assert!((e(req) + eps).abs() < 1e-9, "depth at req: {}", e(req));
        // derivative ~ 0 at req
        let h = 1e-5;
        let deriv = (e(req + h) - e(req - h)) / (2.0 * h);
        assert!(deriv.abs() < 1e-6, "dE/dr at req = {deriv}");
        // repulsive inside, attractive outside
        assert!(e(req * 0.6) > 0.0);
        assert!(e(req * 1.2) < 0.0 && e(req * 1.2) > -eps);
    }

    #[test]
    fn hbond_pairs_flagged() {
        let p = Ad4Params::new();
        assert!(p.pair(AdType::HD, AdType::OA).hbond);
        assert!(p.pair(AdType::OA, AdType::HD).hbond);
        assert!(p.pair(AdType::HD, AdType::NA).hbond);
        assert!(!p.pair(AdType::HD, AdType::C).hbond);
        assert!(!p.pair(AdType::C, AdType::OA).hbond);
        assert!(!p.pair(AdType::HD, AdType::HD).hbond);
    }

    #[test]
    fn hbond_well_deeper_than_vdw() {
        let p = Ad4Params::new();
        let pp = p.pair(AdType::HD, AdType::OA);
        let ehb = |r: f64| pp.hb_c / r.powi(12) - pp.hb_d / r.powi(10);
        // minimum at 1.9 Å, depth -5
        assert!((ehb(1.9) + 5.0).abs() < 1e-9);
        let h = 1e-5;
        let deriv = (ehb(1.9 + h) - ehb(1.9 - h)) / (2.0 * h);
        assert!(deriv.abs() < 1e-5);
    }

    #[test]
    fn weights_positive() {
        let p = Ad4Params::new();
        for w in [p.w_vdw, p.w_hbond, p.w_estat, p.w_desolv, p.w_tors] {
            assert!(w > 0.0);
        }
        let v = VinaParams::default();
        assert!(v.w_repulsion > 0.0);
        assert!(v.w_gauss1 < 0.0 && v.w_hbond < 0.0 && v.w_hydrophobic < 0.0);
    }

    #[test]
    fn vina_radii_reasonable() {
        for t in AdType::ALL {
            let r = vina_radius(t);
            assert!((0.5..3.0).contains(&r), "{t}: {r}");
        }
    }
}
