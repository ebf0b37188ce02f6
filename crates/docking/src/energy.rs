//! Pose energy evaluation: grid-interpolated intermolecular terms plus
//! direct pairwise intramolecular terms.
//!
//! [`EnergyModel::new`] front-loads every per-atom and per-pair lookup the
//! search's inner loop would otherwise repeat millions of times: each ligand
//! atom's affinity map is resolved to a reference once (killing the
//! per-atom-per-evaluation `BTreeMap` walk), the AD4 electrostatic and
//! desolvation coefficients are folded per atom, and the intramolecular pair
//! table is precomputed. Evaluation
//! runs a structure-of-arrays kernel: fractional lattice coordinates are
//! computed for fixed-width chunks of atoms (the subtract-divide sweeps
//! auto-vectorize), each atom then resolves one flattened stencil whose
//! row-major cell base is shared by every co-located map, and
//! [`EnergyModel::total_batch`] scores a whole population of poses through
//! the same chunked pass so the lanes stay full across pose boundaries.
//! The intramolecular sum runs in [`vexp::LANES`]-wide lanes: distances,
//! `exp` arguments, one batched `exp` per argument kind and the pair terms
//! ([`ad4_pair_lanes`]/[`vina_pair_lanes`]), added in pair order.
//! Every shortcut is bit-identical to the retained naive path
//! ([`EnergyModel::total_reference`]); the `kernel_props` property tests
//! enforce that.

use molkit::{Molecule, Vec3};

use crate::autogrid::{GridKind, GridSet};
use crate::conformation::LigandModel;
use crate::engine::DockError;
use crate::grid::sample_flat;
use crate::params::{type_index, vina_radius, Ad4Params, PairParams, VinaParams};
use crate::scoring::{
    ad4_desolv_exp_arg, ad4_pair, ad4_pair_lanes, ad4_solvation_param, dielectric_exp_arg, flag,
    vina_exp_args, vina_hbond_pair, vina_pair, vina_pair_lanes, Ad4PairLanes, CUTOFF,
};
use crate::vexp::{self, ExpLanes, ExpPath, Kernel};

/// Extra per-unit-|charge| desolvation parameter (AD4's `qsolpar`).
const QSOLPAR: f64 = 0.01097;

/// One precomputed AD4 intramolecular pair: atom indices plus every
/// distance-independent quantity [`ad4_pair_lanes`] needs.
struct Ad4Intra {
    i: usize,
    j: usize,
    pp: PairParams,
    qq: f64,
    dcoef: f64,
}

/// One precomputed Vina intramolecular pair for [`vina_pair_lanes`]; the
/// eligibility flags are factors, `1.0` or `0.0`.
struct VinaIntra {
    i: usize,
    j: usize,
    rsum: f64,
    hydrophobic: f64,
    hbond: f64,
}

enum IntraTable {
    Ad4(Vec<Ad4Intra>),
    Vina(Vec<VinaIntra>),
}

/// Evaluates ligand poses against a receptor's precomputed grids.
pub struct EnergyModel<'a> {
    /// Precomputed receptor maps.
    pub grids: &'a GridSet,
    /// The posed ligand.
    pub ligand: &'a LigandModel,
    /// AD4 parameter set (used when `grids.kind` is AD4).
    pub ad4: Ad4Params,
    /// Vina parameter set (used when `grids.kind` is Vina).
    pub vina: VinaParams,
    /// Per-atom electrostatic coefficient `w_estat · q` (AD4 only).
    atom_elec: Vec<f64>,
    /// Per-atom desolvation coefficient `(w_desolv · 2) · s` (AD4 only).
    atom_desolv: Vec<f64>,
    /// Precomputed intramolecular pair table.
    intra: IntraTable,
    /// The `exp` the intramolecular kernel runs on ([`ExpPath::selected`]).
    exp: ExpPath,
    /// Grid origin, precomputed once. [`crate::grid::GridSpec::origin`] is a
    /// pure function of the spec, so this is bit-identical to recomputing it
    /// inside every stencil.
    origin: Vec3,
    /// Raw value slices of the per-atom affinity maps, resolved once at
    /// construction.
    atom_vals: Vec<&'a [f64]>,
    /// Raw electrostatic map values (AD4 only; empty for Vina).
    emap_vals: &'a [f64],
    /// Raw desolvation map values (AD4 only; empty for Vina).
    dmap_vals: &'a [f64],
}

/// Lane width of the chunked SoA pass: wide enough to fill two 4-lane AVX
/// registers. The sweeps are plain indexed std code — the compiler picks the
/// actual vector width, and any `LANES` value produces identical bits.
const LANES: usize = 8;

impl<'a> EnergyModel<'a> {
    /// Build an evaluator. The grid set must contain a map for every AD type
    /// the ligand uses; a missing map is a pipeline error
    /// ([`DockError::MissingAffinityMap`]), not a panic.
    pub fn new(grids: &'a GridSet, ligand: &'a LigandModel) -> Result<EnergyModel<'a>, DockError> {
        let ad4 = Ad4Params::new();
        let vina = VinaParams::default();

        let mut atom_vals: Vec<&'a [f64]> = Vec::with_capacity(ligand.types.len());
        for t in &ligand.types {
            match grids.affinity.get(t) {
                Some(m) => atom_vals.push(m.values()),
                None => return Err(DockError::MissingAffinityMap(t.to_string())),
            }
        }

        let (mut atom_elec, mut atom_desolv) = (Vec::new(), Vec::new());
        if grids.kind == GridKind::Ad4 {
            atom_elec.reserve(ligand.types.len());
            atom_desolv.reserve(ligand.types.len());
            for (i, &t) in ligand.types.iter().enumerate() {
                let q = ligand.charges[i];
                let s = ad4.solpar[type_index(t)] + QSOLPAR * q.abs();
                atom_elec.push(ad4.w_estat * q);
                atom_desolv.push(ad4.w_desolv * 2.0 * s);
            }
        }

        let intra = match grids.kind {
            GridKind::Ad4 => IntraTable::Ad4(
                ligand
                    .intra_pairs
                    .iter()
                    .map(|&(i, j)| {
                        let (ta, tb) = (ligand.types[i], ligand.types[j]);
                        let (qa, qb) = (ligand.charges[i], ligand.charges[j]);
                        let dcoef = ad4_solvation_param(&ad4, ta, qa) * ad4.volume[type_index(tb)]
                            + ad4_solvation_param(&ad4, tb, qb) * ad4.volume[type_index(ta)];
                        Ad4Intra { i, j, pp: *ad4.pair(ta, tb), qq: qa * qb, dcoef }
                    })
                    .collect(),
            ),
            GridKind::Vina => IntraTable::Vina(
                ligand
                    .intra_pairs
                    .iter()
                    .map(|&(i, j)| {
                        let (ta, tb) = (ligand.types[i], ligand.types[j]);
                        VinaIntra {
                            i,
                            j,
                            rsum: vina_radius(ta) + vina_radius(tb),
                            hydrophobic: flag(ta.is_hydrophobic() && tb.is_hydrophobic()),
                            hbond: flag(vina_hbond_pair(ta, tb)),
                        }
                    })
                    .collect(),
            ),
        };

        let emap = grids.electrostatic.as_ref();
        let dmap = grids.desolvation.as_ref();
        Ok(EnergyModel {
            grids,
            ligand,
            ad4,
            vina,
            atom_elec,
            atom_desolv,
            intra,
            exp: ExpPath::selected(),
            origin: grids.spec.origin(),
            atom_vals,
            emap_vals: emap.map_or(&[][..], |m| m.values()),
            dmap_vals: dmap.map_or(&[][..], |m| m.values()),
        })
    }

    /// Receptor–ligand interaction energy of world coordinates `coords`.
    ///
    /// SoA fast path: single-pose front end of the chunked kernel behind
    /// [`total_batch`](EnergyModel::total_batch). Bit-identical to
    /// [`intermolecular_reference`](EnergyModel::intermolecular_reference).
    pub fn intermolecular(&self, coords: &[Vec3]) -> f64 {
        let mut out = [0.0];
        self.intermolecular_batch(coords, coords.len().max(1), &mut out);
        out[0]
    }

    /// Chunked SoA intermolecular kernel over `out.len()` consecutive poses
    /// of `natoms` atoms each (`coords` is pose-major, back to back).
    ///
    /// The subtract-divide sweeps producing fractional lattice coordinates
    /// run over fixed-width lanes so they auto-vectorize; each atom then
    /// resolves one [`FlatStencil`](crate::grid::FlatStencil) whose flattened
    /// cell base is shared by every co-located map. Per-pose accumulation
    /// order is atom order, exactly as the reference loop, so the result is
    /// bit-identical for every batch size.
    fn intermolecular_batch(&self, coords: &[Vec3], natoms: usize, out: &mut [f64]) {
        debug_assert_eq!(coords.len(), natoms * out.len());
        let spec = &self.grids.spec;
        let (o, s) = (self.origin, spec.spacing);
        let (sy, sz) = (spec.npts, spec.npts * spec.npts);
        let ad4 = self.grids.kind == GridKind::Ad4;
        let mut gx = [0.0f64; LANES];
        let mut gy = [0.0f64; LANES];
        let mut gz = [0.0f64; LANES];
        let mut pose = 0usize;
        let mut atom = 0usize; // index within the current pose
        let mut acc = 0.0f64; // running sum of the current pose, in a register
        let mut start = 0usize;
        while start < coords.len() {
            let m = (coords.len() - start).min(LANES);
            for l in 0..m {
                let p = coords[start + l];
                gx[l] = (p.x - o.x) / s;
                gy[l] = (p.y - o.y) / s;
                gz[l] = (p.z - o.z) / s;
            }
            for l in 0..m {
                let st = spec.flat_stencil(gx[l], gy[l], gz[l]);
                let term = if ad4 {
                    let aff = sample_flat(self.atom_vals[atom], &st, sy, sz);
                    let elec = self.atom_elec[atom] * sample_flat(self.emap_vals, &st, sy, sz);
                    // one-map approximation of the symmetric AD4 desolvation
                    // term (see DESIGN.md): ligand-side solvation parameter
                    // against the receptor volume field, doubled.
                    let desolv = self.atom_desolv[atom] * sample_flat(self.dmap_vals, &st, sy, sz);
                    aff + elec + desolv
                } else {
                    sample_flat(self.atom_vals[atom], &st, sy, sz)
                };
                // local accumulation, flushed once per pose: same 0.0-seeded
                // atom-order sum as a per-pose loop, without a memory RMW
                // per atom
                acc += term;
                atom += 1;
                if atom == natoms {
                    out[pose] = acc;
                    acc = 0.0;
                    atom = 0;
                    pose += 1;
                }
            }
            start += m;
        }
        debug_assert_eq!(pose, out.len());
    }

    /// Ligand internal energy (pairs across rotatable bonds), evaluated via
    /// the precomputed pair table with a squared-distance cutoff prefilter.
    ///
    /// Both pair kernels return exactly `0.0` at `r ≥ CUTOFF`, and
    /// `CUTOFF² = 64` is exact in binary, so `d² < 64` selects precisely the
    /// pairs with a nonzero term (IEEE sqrt is monotone and exact at
    /// 64 → 8). Skipping a far pair skips only `e += 0.0`, which cannot
    /// change `e`: no partial sum here is ever `-0.0` (every nonzero pair
    /// term carries a non-underflowing vdW/steric component, and exact
    /// cancellation rounds to `+0.0`), so this is bit-identical to the
    /// filter-free reference loop.
    ///
    /// The pairs that pass the prefilter are scored [`vexp::LANES`] at a
    /// time — their `exp`s as one batch on the process's [`ExpPath`] — and
    /// added to the sum in pair order.
    pub fn intramolecular(&self, coords: &[Vec3]) -> f64 {
        self.intramolecular_via(self.exp, coords)
    }

    /// [`intramolecular`](EnergyModel::intramolecular) on a given `exp`
    /// path; every path returns the same bits.
    pub fn intramolecular_via(&self, path: ExpPath, coords: &[Vec3]) -> f64 {
        match &self.intra {
            IntraTable::Ad4(pairs) => vexp::run(path, Intra { pairs, coords, p: &self.ad4 }),
            IntraTable::Vina(pairs) => vexp::run(path, Intra { pairs, coords, p: &self.vina }),
        }
    }

    /// Total pose energy used by the search (inter + intra).
    pub fn total(&self, coords: &[Vec3]) -> f64 {
        self.intermolecular(coords) + self.intramolecular(coords)
    }

    /// Score `out.len()` poses in one call. `coords` holds the world
    /// coordinates of every pose back to back (pose-major,
    /// `out.len() × ligand.atom_count()` entries).
    ///
    /// Batching amortizes stencil setup and keeps the SoA chunks full across
    /// pose boundaries; it never changes the arithmetic — each `out[p]` is
    /// bit-identical to [`total`](EnergyModel::total) of that pose's
    /// coordinate slice, for every batch size.
    pub fn total_batch(&self, coords: &[Vec3], out: &mut [f64]) {
        let natoms = self.ligand.atom_count();
        assert_eq!(
            coords.len(),
            natoms * out.len(),
            "coords must hold out.len() poses of {natoms} atoms"
        );
        self.intermolecular_batch(coords, natoms, out);
        for (p, c) in coords.chunks_exact(natoms.max(1)).enumerate() {
            out[p] += self.intramolecular(c);
        }
    }

    /// Naive intermolecular evaluation retained as the parity reference:
    /// per-atom map lookup through the `BTreeMap` and three independent
    /// interpolations, exactly as the pre-optimization code did it.
    pub fn intermolecular_reference(&self, coords: &[Vec3]) -> f64 {
        let mut e = 0.0;
        match self.grids.kind {
            GridKind::Ad4 => {
                let emap = self
                    .grids
                    .electrostatic
                    .as_ref()
                    .expect("AD4 grid set has an electrostatic map");
                let dmap =
                    self.grids.desolvation.as_ref().expect("AD4 grid set has a desolvation map");
                for (i, &p) in coords.iter().enumerate() {
                    let t = self.ligand.types[i];
                    let q = self.ligand.charges[i];
                    let aff = self.grids.affinity[&t].interpolate(p);
                    let elec = self.ad4.w_estat * q * emap.interpolate(p);
                    let s = self.ad4.solpar[type_index(t)] + QSOLPAR * q.abs();
                    let desolv = self.ad4.w_desolv * 2.0 * s * dmap.interpolate(p);
                    e += aff + elec + desolv;
                }
            }
            GridKind::Vina => {
                for (i, &p) in coords.iter().enumerate() {
                    let t = self.ligand.types[i];
                    e += self.grids.affinity[&t].interpolate(p);
                }
            }
        }
        e
    }

    /// Naive intramolecular evaluation (full pair-function unfold per pair),
    /// the parity reference for [`intramolecular`](EnergyModel::intramolecular).
    pub fn intramolecular_reference(&self, coords: &[Vec3]) -> f64 {
        let mut e = 0.0;
        match self.grids.kind {
            GridKind::Ad4 => {
                for &(i, j) in &self.ligand.intra_pairs {
                    let r = coords[i].dist(coords[j]);
                    e += ad4_pair(
                        &self.ad4,
                        self.ligand.types[i],
                        self.ligand.types[j],
                        self.ligand.charges[i],
                        self.ligand.charges[j],
                        r,
                    );
                }
            }
            GridKind::Vina => {
                for &(i, j) in &self.ligand.intra_pairs {
                    let r = coords[i].dist(coords[j]);
                    e += vina_pair(&self.vina, self.ligand.types[i], self.ligand.types[j], r);
                }
            }
        }
        e
    }

    /// Naive total (reference intermolecular + reference intramolecular);
    /// the pre-optimization evaluation path, kept for the parity gate.
    pub fn total_reference(&self, coords: &[Vec3]) -> f64 {
        self.intermolecular_reference(coords) + self.intramolecular_reference(coords)
    }

    /// Engine-specific estimated free energy of binding for a final pose.
    ///
    /// * AD4: scaled intermolecular + torsional entropy penalty
    ///   `W_tors × TORSDOF` + the calibrated unbound-reference offset.
    /// * Vina: scaled intermolecular × `1 / (1 + w_rot × N_rot)` + offset.
    pub fn free_energy_of_binding(&self, coords: &[Vec3]) -> f64 {
        let inter = self.intermolecular(coords);
        match self.grids.kind {
            GridKind::Ad4 => {
                self.ad4.feb_scale * inter
                    + self.ad4.w_tors * self.ligand.torsdof() as f64
                    + self.ad4.feb_offset
            }
            GridKind::Vina => {
                self.vina.feb_scale * inter / (1.0 + self.vina.w_rot * self.ligand.torsdof() as f64)
                    + self.vina.feb_offset
            }
        }
    }
}

const CUTOFF_SQ: f64 = CUTOFF * CUTOFF;

/// The pairs within the cutoff, [`vexp::LANES`] at a time: each pair's
/// table index and distance.
struct PairLanes {
    idx: [usize; vexp::LANES],
    r: [f64; vexp::LANES],
    m: usize,
}

/// One row of a precomputed intramolecular pair table.
trait IntraPair: Sized {
    /// The force field's parameter set.
    type Params;
    /// The pair's atom indices.
    fn atoms(&self) -> (usize, usize);
    /// The terms of the batch `b` of `pairs` rows, lane by lane.
    fn terms<E: ExpLanes>(pairs: &[Self], p: &Self::Params, b: &PairLanes) -> [f64; vexp::LANES];
}

impl IntraPair for Ad4Intra {
    type Params = Ad4Params;

    #[inline(always)]
    fn atoms(&self) -> (usize, usize) {
        (self.i, self.j)
    }

    #[inline(always)]
    fn terms<E: ExpLanes>(pairs: &[Self], p: &Ad4Params, b: &PairLanes) -> [f64; vexp::LANES] {
        const L: usize = vexp::LANES;
        let mut lanes = Ad4PairLanes::default();
        for l in 0..b.m {
            let pr = &pairs[b.idx[l]];
            lanes.set(l, &pr.pp, p, pr.qq, pr.dcoef);
        }
        let (mut eps, mut g) = ([0.0; L], [0.0; L]);
        for l in 0..L {
            eps[l] = dielectric_exp_arg(b.r[l].max(0.35));
            g[l] = ad4_desolv_exp_arg(b.r[l]);
        }
        E::exp(&mut eps, b.m);
        E::exp(&mut g, b.m);
        ad4_pair_lanes(p, &lanes, &b.r, &eps, &g)
    }
}

impl IntraPair for VinaIntra {
    type Params = VinaParams;

    #[inline(always)]
    fn atoms(&self) -> (usize, usize) {
        (self.i, self.j)
    }

    #[inline(always)]
    fn terms<E: ExpLanes>(pairs: &[Self], p: &VinaParams, b: &PairLanes) -> [f64; vexp::LANES] {
        const L: usize = vexp::LANES;
        let (mut rsum, mut hydrophobic, mut hbond) = ([0.0; L], [0.0; L], [0.0; L]);
        for l in 0..b.m {
            let pr = &pairs[b.idx[l]];
            (rsum[l], hydrophobic[l], hbond[l]) = (pr.rsum, pr.hydrophobic, pr.hbond);
        }
        let (mut d, mut g1, mut g2) = ([0.0; L], [0.0; L], [0.0; L]);
        for l in 0..L {
            d[l] = b.r[l] - rsum[l];
            [g1[l], g2[l]] = vina_exp_args(d[l]);
        }
        E::exp(&mut g1, b.m);
        E::exp(&mut g2, b.m);
        vina_pair_lanes(p, &b.r, &d, [&g1, &g2], [&hydrophobic, &hbond])
    }
}

/// The intramolecular sum over a pair table, one [`Kernel`] body for both
/// `exp` paths.
struct Intra<'a, T: IntraPair> {
    pairs: &'a [T],
    coords: &'a [Vec3],
    p: &'a T::Params,
}

impl<T: IntraPair> Intra<'_, T> {
    /// Add the batch's terms to `e` in pair order and empty it.
    #[inline(always)]
    fn flush<E: ExpLanes>(&self, b: &mut PairLanes, e: &mut f64) {
        for t in &T::terms::<E>(self.pairs, self.p, b)[..b.m] {
            *e += t;
        }
        b.m = 0;
    }
}

impl<T: IntraPair> Kernel for Intra<'_, T> {
    type Out = f64;

    #[inline(always)]
    fn run<E: ExpLanes>(self) -> f64 {
        let mut e = 0.0;
        let mut b = PairLanes { idx: [0; vexp::LANES], r: [0.0; vexp::LANES], m: 0 };
        for (k, pr) in self.pairs.iter().enumerate() {
            let (i, j) = pr.atoms();
            let d2 = self.coords[i].dist_sq(self.coords[j]);
            if d2 < CUTOFF_SQ {
                (b.idx[b.m], b.r[b.m]) = (k, d2.sqrt());
                b.m += 1;
                if b.m == vexp::LANES {
                    self.flush::<E>(&mut b, &mut e);
                }
            }
        }
        if b.m > 0 {
            self.flush::<E>(&mut b, &mut e);
        }
        e
    }
}

/// Grid-free pose evaluation: direct pairwise sums over all
/// (ligand atom × receptor atom) pairs.
///
/// This is the ablation partner of the grid path: exact (no interpolation
/// error) but O(ligand × receptor) per evaluation instead of O(ligand).
/// AutoGrid exists precisely because the grid path amortizes the receptor
/// loop across the whole search.
pub struct DirectEnergy {
    kind: GridKind,
    rec_pos: Vec<Vec3>,
    rec_type: Vec<molkit::AdType>,
    rec_charge: Vec<f64>,
    ad4: Ad4Params,
    vina: VinaParams,
}

impl DirectEnergy {
    /// Build a direct evaluator over a prepared receptor.
    pub fn new(receptor: &Molecule, kind: GridKind) -> DirectEnergy {
        DirectEnergy {
            kind,
            rec_pos: receptor.atoms.iter().map(|a| a.pos).collect(),
            rec_type: receptor.atoms.iter().map(|a| a.ad_type).collect(),
            rec_charge: receptor.atoms.iter().map(|a| a.charge).collect(),
            ad4: Ad4Params::new(),
            vina: VinaParams::default(),
        }
    }

    /// Exact receptor–ligand interaction energy of world coordinates.
    pub fn intermolecular(&self, ligand: &LigandModel, coords: &[Vec3]) -> f64 {
        let cutoff_sq = CUTOFF * CUTOFF;
        let mut e = 0.0;
        for (i, &p) in coords.iter().enumerate() {
            let lt = ligand.types[i];
            let lq = ligand.charges[i];
            for a in 0..self.rec_pos.len() {
                let d2 = self.rec_pos[a].dist_sq(p);
                if d2 > cutoff_sq {
                    continue;
                }
                let r = d2.sqrt();
                e += match self.kind {
                    GridKind::Ad4 => {
                        ad4_pair(&self.ad4, lt, self.rec_type[a], lq, self.rec_charge[a], r)
                    }
                    GridKind::Vina => vina_pair(&self.vina, lt, self.rec_type[a], r),
                };
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autogrid::{build_ad4_grids, build_vina_grids};
    use crate::conformation::Pose;
    use crate::grid::GridSpec;
    use molkit::atom::Atom;
    use molkit::formats::pdbqt::PdbqtLigand;
    use molkit::molecule::{BondOrder, Molecule};
    use molkit::torsion::build_torsion_tree;
    use molkit::{AdType, Element};

    fn receptor() -> Molecule {
        // two oppositely charged atoms forming a crude site
        let mut m = Molecule::new("R");
        let mut a = Atom::new(1, "OA", Element::O, Vec3::new(-2.0, 0.0, 0.0));
        a.charge = -0.4;
        a.ad_type = AdType::OA;
        m.add_atom(a);
        let mut b = Atom::new(2, "C", Element::C, Vec3::new(2.0, 0.0, 0.0));
        b.charge = 0.2;
        b.ad_type = AdType::C;
        m.add_atom(b);
        m
    }

    fn ligand() -> PdbqtLigand {
        // zig-zag chain so torsion axes are not collinear with the atoms
        let mut m = Molecule::new("L");
        for k in 0..4 {
            let mut a = Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.4 - 2.1, 0.3 + 0.5 * (k % 2) as f64, 0.1 * k as f64),
            );
            a.charge = if k % 2 == 0 { 0.05 } else { -0.05 };
            m.add_atom(a);
        }
        for k in 0..3 {
            m.add_bond(k, k + 1, BondOrder::Single);
        }
        let tree = build_torsion_tree(&m);
        PdbqtLigand { mol: m, tree }
    }

    fn spec() -> GridSpec {
        GridSpec { center: Vec3::ZERO, npts: 17, spacing: 1.0 }
    }

    #[test]
    fn ad4_energy_finite_inside_box() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let types = lig.mol.ad_types();
        let g = build_ad4_grids(&r, spec(), &types, &Ad4Params::new());
        let em = EnergyModel::new(&g, &lm).unwrap();
        let pose = Pose::at(Vec3::new(0.0, 3.0, 0.0), lm.torsdof());
        let c = lm.coords(&pose);
        let e = em.total(&c);
        assert!(e.is_finite());
        assert!(e < crate::grid::OUT_OF_BOX_PENALTY);
    }

    #[test]
    fn out_of_box_pose_heavily_penalized() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let g = build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default());
        let em = EnergyModel::new(&g, &lm).unwrap();
        let inside = em.intermolecular(&lm.coords(&Pose::at(Vec3::ZERO, lm.torsdof())));
        let outside =
            em.intermolecular(&lm.coords(&Pose::at(Vec3::new(100.0, 0.0, 0.0), lm.torsdof())));
        assert!(outside > inside + 1e5);
    }

    #[test]
    fn clash_worse_than_contact() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let g = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let em = EnergyModel::new(&g, &lm).unwrap();
        // pose directly on top of receptor atoms vs a few Å away
        let clash = em.intermolecular(&lm.coords(&Pose::at(Vec3::ZERO, lm.torsdof())));
        let contact =
            em.intermolecular(&lm.coords(&Pose::at(Vec3::new(0.0, 4.0, 0.0), lm.torsdof())));
        assert!(clash > contact, "clash {clash} must exceed contact {contact}");
    }

    #[test]
    fn feb_semantics_differ_between_engines() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let pose = Pose::at(Vec3::new(0.0, 4.0, 0.0), lm.torsdof());
        let c = lm.coords(&pose);

        let ga = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let ea = EnergyModel::new(&ga, &lm).unwrap();
        let feb_ad4 = ea.free_energy_of_binding(&c);
        // AD4 FEB = scale×inter + tors penalty + offset — check the formula
        let p = Ad4Params::new();
        let want_ad4 =
            p.feb_scale * ea.intermolecular(&c) + p.w_tors * lm.torsdof() as f64 + p.feb_offset;
        assert!((feb_ad4 - want_ad4).abs() < 1e-9);

        let gv = build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default());
        let ev = EnergyModel::new(&gv, &lm).unwrap();
        let feb_vina = ev.free_energy_of_binding(&c);
        let v = VinaParams::default();
        let want_vina = v.feb_scale * ev.intermolecular(&c) / (1.0 + v.w_rot * lm.torsdof() as f64)
            + v.feb_offset;
        assert!((feb_vina - want_vina).abs() < 1e-9);
        // the two engines disagree on the same pose (different functions)
        assert_ne!(feb_ad4, feb_vina);
    }

    #[test]
    fn intramolecular_changes_with_torsions() {
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let r = receptor();
        let g = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let em = EnergyModel::new(&g, &lm).unwrap();
        assert!(lm.torsdof() >= 1, "test ligand must be flexible");
        let e0 = em.intramolecular(&lm.coords(&Pose::at(Vec3::ZERO, lm.torsdof())));
        let mut folded = Pose::at(Vec3::ZERO, lm.torsdof());
        folded.torsions[0] = 2.5;
        let e1 = em.intramolecular(&lm.coords(&folded));
        assert_ne!(e0, e1, "torsion change must affect internal energy");
    }

    #[test]
    fn vina_grid_matches_direct_closely() {
        // trilinear interpolation over a 1 Å lattice should track the exact
        // pairwise sum for poses away from hard clashes
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let g = build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default());
        let em = EnergyModel::new(&g, &lm).unwrap();
        let de = DirectEnergy::new(&r, GridKind::Vina);
        for dy in [4.0, 5.5] {
            let pose = Pose::at(Vec3::new(0.3, dy, 0.2), lm.torsdof());
            let c = lm.coords(&pose);
            let via_grid = em.intermolecular(&c);
            let exact = de.intermolecular(&lm, &c);
            assert!(
                (via_grid - exact).abs() < 0.3 * exact.abs().max(0.5),
                "grid {via_grid} vs direct {exact} at dy={dy}"
            );
            // both agree on the sign of the interaction
            assert_eq!(via_grid < 0.0, exact < 0.0, "sign disagreement at dy={dy}");
        }
    }

    #[test]
    fn ad4_grid_matches_direct_vdw_at_lattice_point() {
        // at an exact lattice point the vdW part has zero interpolation
        // error; electrostatic/desolvation use the one-map approximation so
        // compare with a loose band
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let g = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let em = EnergyModel::new(&g, &lm).unwrap();
        let de = DirectEnergy::new(&r, GridKind::Ad4);
        let pose = Pose::at(Vec3::new(0.0, 4.0, 0.0), lm.torsdof());
        let c = lm.coords(&pose);
        let via_grid = em.intermolecular(&c);
        let exact = de.intermolecular(&lm, &c);
        assert!((via_grid - exact).abs() < 1.0, "grid {via_grid} vs direct {exact}");
    }

    #[test]
    fn optimized_energy_bit_identical_to_reference() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let poses = [
            Pose::at(Vec3::new(0.0, 3.0, 0.0), lm.torsdof()),
            Pose::at(Vec3::new(1.3, -2.2, 0.7), lm.torsdof()),
            Pose::at(Vec3::new(40.0, 0.0, 0.0), lm.torsdof()), // out of box
        ];
        let ga = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let ea = EnergyModel::new(&ga, &lm).unwrap();
        let gv = build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default());
        let ev = EnergyModel::new(&gv, &lm).unwrap();
        for pose in &poses {
            let c = lm.coords(pose);
            assert_eq!(ea.intermolecular(&c), ea.intermolecular_reference(&c));
            assert_eq!(ea.intramolecular(&c), ea.intramolecular_reference(&c));
            assert_eq!(ea.total(&c), ea.total_reference(&c));
            assert_eq!(ev.total(&c), ev.total_reference(&c));
        }
    }

    #[test]
    fn batched_total_bit_identical_to_per_pose() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        let poses = [
            Pose::at(Vec3::new(0.0, 3.0, 0.0), lm.torsdof()),
            Pose::at(Vec3::new(1.3, -2.2, 0.7), lm.torsdof()),
            Pose::at(Vec3::new(40.0, 0.0, 0.0), lm.torsdof()), // out of box
            Pose::at(Vec3::new(-1.0, 0.5, -0.5), lm.torsdof()),
            Pose::at(Vec3::new(0.2, 0.2, 0.2), lm.torsdof()),
        ];
        for grids in [
            build_ad4_grids(&receptor(), spec(), &lig.mol.ad_types(), &Ad4Params::new()),
            build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default()),
        ] {
            let em = EnergyModel::new(&grids, &lm).unwrap();
            let per_pose: Vec<f64> = poses.iter().map(|p| em.total(&lm.coords(p))).collect();
            for bs in [1usize, 2, 3, poses.len()] {
                for chunk in poses.chunks(bs) {
                    let first = poses.iter().position(|p| p == &chunk[0]).unwrap();
                    let flat: Vec<Vec3> = chunk.iter().flat_map(|p| lm.coords(p)).collect();
                    let mut out = vec![0.0; chunk.len()];
                    em.total_batch(&flat, &mut out);
                    for (k, e) in out.iter().enumerate() {
                        assert_eq!(
                            e.to_bits(),
                            per_pose[first + k].to_bits(),
                            "batch size {bs}, pose {}",
                            first + k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn missing_map_is_an_error_not_a_panic() {
        let r = receptor();
        let lig = ligand();
        let lm = LigandModel::new(&lig);
        // build grids without the ligand's carbon map
        let g = build_ad4_grids(&r, spec(), &[AdType::OA], &Ad4Params::new());
        match EnergyModel::new(&g, &lm) {
            Err(DockError::MissingAffinityMap(t)) => assert_eq!(t, "C"),
            other => panic!("expected MissingAffinityMap, got {:?}", other.err()),
        }
    }
}
