//! Pairwise scoring terms for the AD4-style and Vina-style functions.
//!
//! Both engines score a pose as `intermolecular + intramolecular (+ entropy
//! penalty)`. This module holds the *pairwise* physics; grid construction
//! (`autogrid`) and pose evaluation (`energy`) build on it.

use molkit::AdType;

use crate::params::{vina_radius, Ad4Params, VinaParams};
use crate::vexp::LANES;

/// Interaction cutoff in Å; pairs farther apart contribute nothing.
pub const CUTOFF: f64 = 8.0;

/// Electrostatic constant (kcal·Å/mol/e²).
pub const COULOMB: f64 = 332.06;

const A: f64 = -8.5525;
const B: f64 = 78.4 - A; // eps0 - A
const LAM: f64 = 0.003627;
const K: f64 = 7.7839;

/// Mehler–Solmajer style distance-dependent dielectric ε(r).
///
/// Smoothly interpolates between ~8 at contact distances and ~78 (bulk
/// water) at long range.
#[inline]
pub fn dielectric(r: f64) -> f64 {
    A + B / (1.0 + K * (-LAM * B * r).exp())
}

/// The argument [`dielectric`] takes `exp` of at distance `r`.
#[inline(always)]
pub fn dielectric_exp_arg(r: f64) -> f64 {
    -LAM * B * r
}

/// [`dielectric`] given `ex = exp(dielectric_exp_arg(r))`: bit-identical
/// when `ex` is.
#[inline(always)]
pub fn dielectric_from_exp(ex: f64) -> f64 {
    A + B / (1.0 + K * ex)
}

/// Gaussian desolvation width σ (Å) of the AD4 desolvation term.
pub const DESOLV_SIGMA: f64 = 3.6;

/// AD4 van-der-Waals + hydrogen-bond energy for one pair at distance `r`
/// (already weighted by the force-field coefficients).
#[inline]
pub fn ad4_vdw_hb(params: &Ad4Params, ta: AdType, tb: AdType, r: f64) -> f64 {
    if r >= CUTOFF {
        return 0.0;
    }
    let r = r.max(0.35); // clamp: avoid FP overflow at near-zero distances
    let p = params.pair(ta, tb);
    if p.hbond {
        let r10 = r.powi(10);
        params.w_hbond * (p.hb_c / (r10 * r * r) - p.hb_d / r10)
    } else {
        let r6 = r.powi(6);
        params.w_vdw * (p.lj_a / (r6 * r6) - p.lj_b / r6)
    }
}

/// AD4 electrostatic energy for one pair (weighted).
#[inline]
pub fn ad4_electrostatic(params: &Ad4Params, qa: f64, qb: f64, r: f64) -> f64 {
    if r >= CUTOFF {
        return 0.0;
    }
    let r = r.max(0.35);
    // (qa * qb) grouped so the term is bit-exact symmetric in the two atoms
    params.w_estat * COULOMB * (qa * qb) / (dielectric(r) * r)
}

/// AD4 desolvation energy for one pair (weighted).
#[inline]
pub fn ad4_desolvation(
    params: &Ad4Params,
    ta: AdType,
    tb: AdType,
    qa: f64,
    qb: f64,
    r: f64,
) -> f64 {
    if r >= CUTOFF {
        return 0.0;
    }
    let ia = crate::params::type_index(ta);
    let ib = crate::params::type_index(tb);
    let s_a = ad4_solvation_param(params, ta, qa);
    let s_b = ad4_solvation_param(params, tb, qb);
    let g = (-r * r / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA)).exp();
    params.w_desolv * (s_a * params.volume[ib] + s_b * params.volume[ia]) * g
}

/// Full AD4 pairwise energy (vdW/H-bond + electrostatics + desolvation).
#[inline]
pub fn ad4_pair(params: &Ad4Params, ta: AdType, tb: AdType, qa: f64, qb: f64, r: f64) -> f64 {
    ad4_vdw_hb(params, ta, tb, r)
        + ad4_electrostatic(params, qa, qb, r)
        + ad4_desolvation(params, ta, tb, qa, qb, r)
}

/// The argument [`ad4_desolvation`] takes `exp` of at distance `r`.
#[inline(always)]
pub fn ad4_desolv_exp_arg(r: f64) -> f64 {
    -r * r / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA)
}

/// The distance-independent quantities of [`LANES`] AD4 pairs, lane by
/// lane: the weight and coefficients of the pair's 12-6 or 12-10 branch,
/// `qq = qa·qb`, and `dcoef = s_a·vol_b + s_b·vol_a` where
/// `s = solpar + QSOLPAR·|q|`.
#[derive(Debug, Clone, Default)]
pub struct Ad4PairConsts {
    /// Whether the pair takes the 12-10 H-bond branch.
    pub hbond: [bool; LANES],
    /// `w_hbond` or `w_vdw`.
    pub w: [f64; LANES],
    /// `hb_c` or `lj_a`.
    pub c_rep: [f64; LANES],
    /// `hb_d` or `lj_b`.
    pub c_att: [f64; LANES],
    /// Charge product.
    pub qq: [f64; LANES],
    /// Desolvation coefficient.
    pub dcoef: [f64; LANES],
}

impl Ad4PairConsts {
    /// Put the pair with parameters `pp`, charge product `qq` and
    /// desolvation coefficient `dcoef` in lane `l`.
    #[inline(always)]
    pub fn set(
        &mut self,
        l: usize,
        pp: &crate::params::PairParams,
        params: &Ad4Params,
        qq: f64,
        dcoef: f64,
    ) {
        let (w, c_rep, c_att) = if pp.hbond {
            (params.w_hbond, pp.hb_c, pp.hb_d)
        } else {
            (params.w_vdw, pp.lj_a, pp.lj_b)
        };
        self.hbond[l] = pp.hbond;
        (self.w[l], self.c_rep[l], self.c_att[l]) = (w, c_rep, c_att);
        (self.qq[l], self.dcoef[l]) = (qq, dcoef);
    }
}

/// [`ad4_pair`] over [`LANES`] pairs at distances `r < CUTOFF`, with every
/// distance-independent quantity precomputed and both exponentials
/// evaluated by the caller: per lane
/// `eps_exp = exp(dielectric_exp_arg(max(r, 0.35)))` and
/// `g = exp(ad4_desolv_exp_arg(r))`.
///
/// Each lane is bit-identical to `ad4_pair(params, ta, tb, qa, qb, r)` when
/// its exponentials are: the precomputed values are exactly the
/// subexpressions the unfolded form evaluates, and the remaining
/// operations run in the same order. The branch is a pass of selects over
/// the lanes, so the lanes compile to vector code.
#[inline(always)]
pub fn ad4_pair_lanes(
    params: &Ad4Params,
    pairs: &Ad4PairConsts,
    r: &[f64; LANES],
    eps_exp: &[f64; LANES],
    g: &[f64; LANES],
) -> [f64; LANES] {
    let (mut rc, mut rep, mut att) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    for l in 0..LANES {
        rc[l] = r[l].max(0.35);
        let (r6, r10) = (rc[l].powi(6), rc[l].powi(10));
        // the repulsive and attractive powers of the pair's branch
        rep[l] = if pairs.hbond[l] { r10 * rc[l] * rc[l] } else { r6 * r6 };
        att[l] = if pairs.hbond[l] { r10 } else { r6 };
    }
    let mut e = [0.0; LANES];
    for l in 0..LANES {
        let vdw = pairs.w[l] * (pairs.c_rep[l] / rep[l] - pairs.c_att[l] / att[l]);
        let elec =
            params.w_estat * COULOMB * pairs.qq[l] / (dielectric_from_exp(eps_exp[l]) * rc[l]);
        e[l] = vdw + elec + params.w_desolv * pairs.dcoef[l] * g[l];
    }
    e
}

/// The per-atom solvation parameter `s = solpar + QSOLPAR·|q|` used by the
/// desolvation term (shared by [`ad4_desolvation`] and the precomputed
/// paths).
#[inline]
pub fn ad4_solvation_param(params: &Ad4Params, t: AdType, q: f64) -> f64 {
    const QSOLPAR: f64 = 0.01097;
    params.solpar[crate::params::type_index(t)] + QSOLPAR * q.abs()
}

/// Vina pairwise energy at distance `r` (weighted sum of the five terms).
#[inline]
pub fn vina_pair(params: &VinaParams, ta: AdType, tb: AdType, r: f64) -> f64 {
    if r >= CUTOFF {
        return 0.0;
    }
    // Vina terms act on the surface distance d = r - (Ra + Rb); the radii
    // are summed first so the function is bit-exact symmetric in (ta, tb)
    let d = r - (vina_radius(ta) + vina_radius(tb));
    let gauss1 = (-(d / 0.5) * (d / 0.5)).exp();
    let g2 = (d - 3.0) / 2.0;
    let gauss2 = (-g2 * g2).exp();
    let repulsion = if d < 0.0 { d * d } else { 0.0 };
    let hydrophobic =
        if ta.is_hydrophobic() && tb.is_hydrophobic() { ramp(d, 0.5, 1.5) } else { 0.0 };
    // Vina (which drops hydrogens) also treats acceptor/acceptor heavy pairs
    let hbond = if vina_hbond_pair(ta, tb) { ramp(d, -0.7, 0.0) } else { 0.0 };
    params.w_gauss1 * gauss1
        + params.w_gauss2 * gauss2
        + params.w_repulsion * repulsion
        + params.w_hydrophobic * hydrophobic
        + params.w_hbond * hbond
}

/// The two arguments [`vina_pair`] takes `exp` of at surface distance `d`.
#[inline(always)]
pub fn vina_exp_args(d: f64) -> [f64; 2] {
    let g2 = (d - 3.0) / 2.0;
    [-(d / 0.5) * (d / 0.5), -g2 * g2]
}

/// [`vina_pair`] over [`LANES`] pairs at once, with the type-dependent
/// parts precomputed and both Gaussians evaluated by the caller: per lane
/// `d = r − (vina_radius(ta) + vina_radius(tb))`, `gauss1`/`gauss2` the
/// `exp`s of [`vina_exp_args`]`(d)`, and the hydrophobic and H-bond pair
/// eligibility flags as factors (`1.0` eligible, `0.0` not). Each lane is
/// bit-identical to the unfolded form when its Gaussians are. Nothing
/// branches, so the lanes compile to vector code.
#[inline(always)]
pub fn vina_pair_lanes(
    params: &VinaParams,
    r: &[f64; LANES],
    d: &[f64; LANES],
    gauss: [&[f64; LANES]; 2],
    flags: [&[f64; LANES]; 2],
) -> [f64; LANES] {
    vina_pair_of_radial(params, r, &VinaRadial::lanes(params, d, gauss), flags)
}

/// What [`vina_pair_lanes`] computes from the surface distance alone, lane
/// by lane: the steric sum `w_gauss1·gauss1 + w_gauss2·gauss2 +
/// w_repulsion·repulsion` (the first three of its five left-to-right
/// additions) and the two ramps before their eligibility factors. Pairs
/// at one surface distance share it whatever their types' flags.
#[derive(Debug, Clone)]
pub struct VinaRadial {
    /// The steric part of the sum.
    pub steric: [f64; LANES],
    /// The hydrophobic ramp.
    pub hydrophobic: [f64; LANES],
    /// The H-bond ramp.
    pub hbond: [f64; LANES],
}

impl VinaRadial {
    /// The radial parts at surface distances `d` with Gaussians `gauss`.
    #[inline(always)]
    pub fn lanes(
        params: &VinaParams,
        d: &[f64; LANES],
        [gauss1, gauss2]: [&[f64; LANES]; 2],
    ) -> VinaRadial {
        let (mut repulsion, mut hydrophobic, mut hbond) =
            ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            repulsion[l] = if d[l] < 0.0 { d[l] * d[l] } else { 0.0 };
        }
        for l in 0..LANES {
            hydrophobic[l] = ramp_clamped(d[l], 0.5, 1.5);
        }
        for l in 0..LANES {
            hbond[l] = ramp_clamped(d[l], -0.7, 0.0);
        }
        let mut steric = [0.0; LANES];
        for l in 0..LANES {
            steric[l] = params.w_gauss1 * gauss1[l]
                + params.w_gauss2 * gauss2[l]
                + params.w_repulsion * repulsion[l];
        }
        VinaRadial { steric, hydrophobic, hbond }
    }
}

/// [`vina_pair_lanes`] from its radial parts and the pairs' eligibility
/// factors: the last two additions, and `0.0` at `r ≥ CUTOFF`.
#[inline(always)]
pub fn vina_pair_of_radial(
    params: &VinaParams,
    r: &[f64; LANES],
    radial: &VinaRadial,
    [hydrophobic, hbond]: [&[f64; LANES]; 2],
) -> [f64; LANES] {
    let mut e = [0.0; LANES];
    for l in 0..LANES {
        // a ramp is finite and ≥ 0, so × 1.0 keeps it and × 0.0 is +0.0
        let sum = radial.steric[l]
            + params.w_hydrophobic * (radial.hydrophobic[l] * hydrophobic[l])
            + params.w_hbond * (radial.hbond[l] * hbond[l]);
        e[l] = if r[l] >= CUTOFF { 0.0 } else { sum };
    }
    e
}

/// A pair eligibility flag as the factor [`vina_pair_lanes`] takes.
#[inline(always)]
pub fn flag(eligible: bool) -> f64 {
    if eligible {
        1.0
    } else {
        0.0
    }
}

/// Whether a (ligand-atom, ligand-atom) Vina pair is H-bond eligible —
/// matches the condition inside [`vina_pair`].
#[inline]
pub fn vina_hbond_pair(ta: AdType, tb: AdType) -> bool {
    (ta.is_donor_h() && tb.is_acceptor())
        || (tb.is_donor_h() && ta.is_acceptor())
        || (ta.is_acceptor() && tb.is_acceptor())
}

/// Linear ramp: 1 below `lo`, 0 above `hi`.
#[inline]
fn ramp(d: f64, lo: f64, hi: f64) -> f64 {
    if d <= lo {
        1.0
    } else if d >= hi {
        0.0
    } else {
        (hi - d) / (hi - lo)
    }
}

/// [`ramp`] without branches, bit-identical for finite `d`: rounding is
/// monotone, so the slope is ≥ 1 exactly when `d ≤ lo` and ≤ +0 exactly
/// when `d ≥ hi`.
#[inline(always)]
fn ramp_clamped(d: f64, lo: f64, hi: f64) -> f64 {
    ((hi - d) / (hi - lo)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dielectric_monotonic_and_bounded() {
        let mut prev = dielectric(0.1);
        assert!(prev > 1.0);
        for k in 1..100 {
            let r = 0.1 + k as f64 * 0.2;
            let e = dielectric(r);
            assert!(e >= prev - 1e-9, "dielectric must grow with r");
            prev = e;
        }
        assert!((dielectric(50.0) - 78.4).abs() < 1.0, "bulk water at long range");
    }

    #[test]
    fn ad4_vdw_shape() {
        let p = Ad4Params::new();
        // repulsive at close contact, attractive near req, zero past cutoff
        assert!(ad4_vdw_hb(&p, AdType::C, AdType::C, 2.0) > 0.0);
        assert!(ad4_vdw_hb(&p, AdType::C, AdType::C, 4.0) < 0.0);
        assert_eq!(ad4_vdw_hb(&p, AdType::C, AdType::C, 8.0), 0.0);
        // clamped near zero: finite
        assert!(ad4_vdw_hb(&p, AdType::C, AdType::C, 1e-12).is_finite());
    }

    #[test]
    fn ad4_hbond_more_favorable_than_vdw_at_contact() {
        let p = Ad4Params::new();
        let hb = ad4_vdw_hb(&p, AdType::HD, AdType::OA, 1.9);
        let vdw = ad4_vdw_hb(&p, AdType::C, AdType::C, 4.0);
        assert!(hb < vdw, "hbond {hb} should be deeper than vdw {vdw}");
    }

    #[test]
    fn electrostatics_sign_and_decay() {
        let p = Ad4Params::new();
        let attract = ad4_electrostatic(&p, 0.3, -0.3, 3.0);
        let repel = ad4_electrostatic(&p, 0.3, 0.3, 3.0);
        assert!(attract < 0.0);
        assert!(repel > 0.0);
        assert!(ad4_electrostatic(&p, 0.3, -0.3, 6.0).abs() < attract.abs());
        assert_eq!(ad4_electrostatic(&p, 1.0, 1.0, 9.0), 0.0);
    }

    #[test]
    fn desolvation_negative_for_carbon_burial() {
        let p = Ad4Params::new();
        // carbon-carbon desolvation is favorable (negative solpar, positive volume)
        let e = ad4_desolvation(&p, AdType::C, AdType::C, 0.0, 0.0, 2.0);
        assert!(e < 0.0);
        // decays with distance
        let far = ad4_desolvation(&p, AdType::C, AdType::C, 0.0, 0.0, 7.0);
        assert!(far.abs() < e.abs());
    }

    #[test]
    fn vina_repulsion_only_on_overlap() {
        let v = VinaParams::default();
        // strongly overlapping (surface distance << 0)
        let close = vina_pair(&v, AdType::C, AdType::C, 1.0);
        assert!(close > 0.0, "overlap must be penalized, got {close}");
        // at comfortable contact the energy should be favorable
        let contact = vina_pair(&v, AdType::C, AdType::C, 3.9);
        assert!(contact < 0.0, "contact should be favorable, got {contact}");
        assert_eq!(vina_pair(&v, AdType::C, AdType::C, 8.5), 0.0);
    }

    #[test]
    fn vina_hydrophobic_bonus_for_carbon_pairs() {
        let v = VinaParams::default();
        let cc = vina_pair(&v, AdType::C, AdType::C, 4.0);
        let co = vina_pair(&v, AdType::C, AdType::OA, 4.0 - (1.9 - 1.7)); // same surface dist
        assert!(cc < co, "hydrophobic pair should score better: {cc} vs {co}");
    }

    #[test]
    fn vina_hbond_bonus_for_donor_acceptor() {
        let v = VinaParams::default();
        let r_contact = vina_radius(AdType::HD) + vina_radius(AdType::OA) - 0.3;
        let hb = vina_pair(&v, AdType::HD, AdType::OA, r_contact);
        let r2 = vina_radius(AdType::HD) + vina_radius(AdType::C) - 0.3;
        let no_hb = vina_pair(&v, AdType::HD, AdType::C, r2);
        assert!(hb < no_hb, "hbond pair should be better: {hb} vs {no_hb}");
    }

    #[test]
    fn clamped_ramp_is_the_ramp() {
        for (lo, hi) in [(0.5f64, 1.5f64), (-0.7, 0.0)] {
            let edges = [lo, hi, lo - 1e-12, lo + 1e-12, hi - 1e-12, hi + 1e-12];
            let sweep = (0..40_000).map(|k| -10.0 + k as f64 * 5e-4);
            for d in sweep.chain(edges).chain(edges.map(|e| -e)) {
                assert_eq!(ramp(d, lo, hi).to_bits(), ramp_clamped(d, lo, hi).to_bits(), "{d}");
            }
        }
    }

    #[test]
    fn ramp_shape() {
        assert_eq!(ramp(-1.0, 0.5, 1.5), 1.0);
        assert_eq!(ramp(2.0, 0.5, 1.5), 0.0);
        assert!((ramp(1.0, 0.5, 1.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pair_lanes_bit_identical() {
        let p = Ad4Params::new();
        let v = VinaParams::default();
        let cases = [
            (AdType::C, AdType::C, 0.1, -0.2),
            (AdType::HD, AdType::OA, 0.25, -0.4),
            (AdType::NA, AdType::A, -0.35, 0.0),
        ];
        for (ta, tb, qa, qb) in cases {
            let pp = *p.pair(ta, tb);
            let ia = crate::params::type_index(ta);
            let ib = crate::params::type_index(tb);
            let dcoef = ad4_solvation_param(&p, ta, qa) * p.volume[ib]
                + ad4_solvation_param(&p, tb, qb) * p.volume[ia];
            let rsum = vina_radius(ta) + vina_radius(tb);
            let hydro = ta.is_hydrophobic() && tb.is_hydrophobic();
            let hb = vina_hbond_pair(ta, tb);
            for k in 0..60 {
                let r = 0.2 + k as f64 * 0.15;
                if r < CUTOFF {
                    let eps = dielectric_exp_arg(r.max(0.35)).exp();
                    let g = ad4_desolv_exp_arg(r).exp();
                    let mut lanes = Ad4PairConsts::default();
                    lanes.set(LANES - 1, &pp, &p, qa * qb, dcoef);
                    let e = ad4_pair_lanes(&p, &lanes, &[r; LANES], &[eps; LANES], &[g; LANES]);
                    assert_eq!(
                        ad4_pair(&p, ta, tb, qa, qb, r).to_bits(),
                        e[LANES - 1].to_bits(),
                        "ad4 {ta:?}/{tb:?} at r={r}"
                    );
                }
                let d = r - rsum;
                let [g1, g2] = vina_exp_args(d).map(f64::exp);
                let lanes = vina_pair_lanes(
                    &v,
                    &[r; LANES],
                    &[d; LANES],
                    [&[g1; LANES], &[g2; LANES]],
                    [&[flag(hydro); LANES], &[flag(hb); LANES]],
                );
                assert_eq!(
                    vina_pair(&v, ta, tb, r).to_bits(),
                    lanes[0].to_bits(),
                    "vina {ta:?}/{tb:?} at r={r}"
                );
            }
        }
        assert_eq!(
            dielectric(2.5).to_bits(),
            dielectric_from_exp(dielectric_exp_arg(2.5).exp()).to_bits()
        );
    }

    #[test]
    fn pair_functions_symmetric_in_arguments() {
        let p = Ad4Params::new();
        let v = VinaParams::default();
        for r in [1.5, 2.5, 4.0, 6.5] {
            assert_eq!(
                ad4_pair(&p, AdType::NA, AdType::HD, -0.3, 0.2, r),
                ad4_pair(&p, AdType::HD, AdType::NA, 0.2, -0.3, r)
            );
            assert_eq!(
                vina_pair(&v, AdType::OA, AdType::C, r),
                vina_pair(&v, AdType::C, AdType::OA, r)
            );
        }
    }
}
