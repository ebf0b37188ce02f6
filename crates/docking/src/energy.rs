//! Pose energy evaluation: grid-interpolated intermolecular terms plus
//! direct pairwise intramolecular terms.
//!
//! [`EnergyModel::new`] front-loads every per-atom and per-pair lookup the
//! search's inner loop would otherwise repeat millions of times: each ligand
//! atom's affinity map is resolved to a reference once (killing the
//! per-atom-per-evaluation `BTreeMap` walk), the AD4 electrostatic and
//! desolvation coefficients are folded per atom, and the intramolecular pair
//! table is built as structure of arrays.
//!
//! Every evaluation is one `vexp::run` dispatch of one kernel body
//! (`Eval`): compiled under AVX2+FMA over the `exp` port, or as plain code
//! over libm. The body applies the pose (when it is given poses rather than
//! coordinates), walks the intermolecular stencil atom by atom — each atom
//! resolves one flattened stencil whose row-major cell base is shared by
//! every co-located map — and sums the intramolecular pairs in passes
//! over the whole pair table: squared distances; `exp` arguments and the
//! batched `exp`; the pair terms ([`ad4_pair_lanes`]/[`vina_pair_lanes`])
//! and their sum in pair order. Everything the body calls is inlined into
//! it, so all of it runs under the dispatch's target features.
//!
//! Every shortcut is bit-identical to the naive evaluation — a per-atom
//! map lookup, three independent interpolations per atom, and the full
//! pair function per pair — which the crate's tests keep as their oracle
//! and hold this path to on both `exp` paths.

use std::cell::RefCell;

use molkit::Vec3;

use crate::autogrid::{GridKind, GridSet};
use crate::conformation::{LigandModel, Pose};
use crate::engine::DockError;
use crate::grid::sample_flat;
use crate::params::{type_index, vina_radius, Ad4Params, VinaParams};
use crate::scoring::{
    ad4_desolv_exp_arg, ad4_pair_lanes, ad4_solvation_param, dielectric_exp_arg, flag,
    vina_exp_args, vina_hbond_pair, vina_pair_lanes, Ad4PairConsts, CUTOFF,
};
use crate::vexp::{self, ExpLanes, ExpPath, Kernel, LANES};

/// Extra per-unit-|charge| desolvation parameter (AD4's `qsolpar`).
pub(crate) const QSOLPAR: f64 = 0.01097;

/// `CUTOFF² = 64`, exact in binary.
const CUTOFF_SQ: f64 = CUTOFF * CUTOFF;

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
    /// The intramolecular pair table's per-pair constants, in the order of
    /// the atom index pairs `ligand.intra_pairs`.
    pairs: PairConsts,
    /// The `exp` every evaluation body runs on.
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

/// The distance-independent constants of the intramolecular pairs,
/// structure of arrays in chunks of [`LANES`], the last chunk padded, so
/// the passes hand [`ad4_pair_lanes`]/[`vina_pair_lanes`] whole chunks
/// without a copy.
enum PairConsts {
    Ad4(Vec<Ad4PairConsts>),
    Vina(Vec<VinaPairConsts>),
}

/// The distance-independent quantities of [`LANES`] Vina pairs for
/// [`vina_pair_lanes`]; the eligibility flags are factors, `1.0` or `0.0`.
#[derive(Clone, Default)]
struct VinaPairConsts {
    rsum: [f64; LANES],
    hydrophobic: [f64; LANES],
    hbond: [f64; LANES],
}

/// The lanes of the pair passes, one slot per pair of the table it was
/// last fitted to, padding included.
#[derive(Default)]
pub(crate) struct PairScratch {
    /// Squared distance; the padding holds `+∞`, beyond the cutoff, and is
    /// never written by pass 1.
    d2: Vec<[f64; LANES]>,
    /// Distance, or [`CUTOFF`] standing in for a pair beyond it.
    r: Vec<[f64; LANES]>,
    /// The first `exp` argument, then its `exp`.
    x1: Vec<[f64; LANES]>,
    /// The second `exp` argument, then its `exp`.
    x2: Vec<[f64; LANES]>,
}

impl PairScratch {
    /// Size the lanes for a table of `n` pairs.
    fn fit(&mut self, n: usize) {
        for lanes in [&mut self.d2, &mut self.r, &mut self.x1, &mut self.x2] {
            lanes.resize(n.div_ceil(LANES), [0.0; LANES]);
        }
        self.d2.as_flattened_mut()[n..].fill(f64::INFINITY);
    }
}

thread_local! {
    /// The pair lanes of [`EnergyModel`]'s own entry points on this thread,
    /// reused across calls and models. Taken before a dispatch and passed
    /// in: a body that reached for it would run the access out of line,
    /// without the dispatch's target features.
    static PAIR_LANES: RefCell<PairScratch> = RefCell::default();
}

/// What one evaluation works in besides the model: the posed coordinates
/// and the pair lanes. A search run's [`Evaluator`](crate::search::Evaluator)
/// owns one, so the body allocates nothing.
pub(crate) struct Scratch {
    /// World coordinates of the pose being scored.
    pub(crate) coords: Vec<Vec3>,
    pairs: PairScratch,
}

/// Which terms a dispatch adds.
#[derive(Clone, Copy)]
enum Terms {
    Inter,
    Intra,
    Total,
}

/// What a dispatch scores.
enum Input<'a> {
    /// Poses, each applied into the coordinate buffer first.
    Poses(&'a [Pose], &'a mut Vec<Vec3>),
    /// World coordinates of back-to-back poses.
    Coords(&'a [Vec3]),
}

/// One dispatch's body: every pose of `input`, scored into `out`.
struct Eval<'a, 'm> {
    model: &'a EnergyModel<'m>,
    terms: Terms,
    input: Input<'a>,
    pairs: &'a mut PairScratch,
    out: &'a mut [f64],
}

impl Kernel for Eval<'_, '_> {
    type Out = ();

    #[inline(always)]
    fn run<E: ExpLanes>(self) {
        let Eval { model, terms, input, pairs, out } = self;
        match input {
            Input::Poses(poses, coords) => {
                for (pose, e) in poses.iter().zip(out) {
                    model.ligand.apply(pose, coords);
                    *e = model.score::<E>(terms, coords, pairs);
                }
            }
            Input::Coords(all) => {
                let natoms = model.ligand.atom_count().max(1);
                for (c, e) in all.chunks_exact(natoms).zip(out) {
                    *e = model.score::<E>(terms, c, pairs);
                }
            }
        }
    }
}

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

        let pairs = &ligand.intra_pairs;
        let chunks = pairs.len().div_ceil(LANES);
        let pair_consts = match grids.kind {
            GridKind::Ad4 => {
                let mut c = vec![Ad4PairConsts::default(); chunks];
                for (k, &(i, j)) in pairs.iter().enumerate() {
                    let (ta, tb) = (ligand.types[i], ligand.types[j]);
                    let (qa, qb) = (ligand.charges[i], ligand.charges[j]);
                    let dcoef = ad4_solvation_param(&ad4, ta, qa) * ad4.volume[type_index(tb)]
                        + ad4_solvation_param(&ad4, tb, qb) * ad4.volume[type_index(ta)];
                    c[k / LANES].set(k % LANES, ad4.pair(ta, tb), &ad4, qa * qb, dcoef);
                }
                PairConsts::Ad4(c)
            }
            GridKind::Vina => {
                let mut c = vec![VinaPairConsts::default(); chunks];
                for (k, &(i, j)) in pairs.iter().enumerate() {
                    let (ta, tb) = (ligand.types[i], ligand.types[j]);
                    let (chunk, l) = (&mut c[k / LANES], k % LANES);
                    chunk.rsum[l] = vina_radius(ta) + vina_radius(tb);
                    chunk.hydrophobic[l] = flag(ta.is_hydrophobic() && tb.is_hydrophobic());
                    chunk.hbond[l] = flag(vina_hbond_pair(ta, tb));
                }
                PairConsts::Vina(c)
            }
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
            pairs: pair_consts,
            exp: ExpPath::selected(),
            origin: grids.spec.origin(),
            atom_vals,
            emap_vals: emap.map_or(&[][..], |m| m.values()),
            dmap_vals: dmap.map_or(&[][..], |m| m.values()),
        })
    }

    /// A scratch sized for this model's pair table.
    pub(crate) fn scratch(&self) -> Scratch {
        let mut pairs = PairScratch::default();
        pairs.fit(self.ligand.intra_pairs.len());
        Scratch { coords: Vec::with_capacity(self.ligand.atom_count()), pairs }
    }

    /// Run one dispatch on this model's `exp` path.
    fn dispatch(&self, terms: Terms, input: Input<'_>, pairs: &mut PairScratch, out: &mut [f64]) {
        vexp::run(self.exp, Eval { model: self, terms, input, pairs, out })
    }

    /// One term kind of one pose's coordinates, in a dispatch of its own.
    fn one(&self, terms: Terms, coords: &[Vec3]) -> f64 {
        let mut out = [0.0];
        self.coords_dispatch(terms, coords, &mut out);
        out[0]
    }

    /// One dispatch over back-to-back poses' coordinates, in this thread's
    /// [`PAIR_LANES`], taken before the dispatch.
    fn coords_dispatch(&self, terms: Terms, coords: &[Vec3], out: &mut [f64]) {
        PAIR_LANES.with_borrow_mut(|pairs| {
            pairs.fit(self.ligand.intra_pairs.len());
            self.dispatch(terms, Input::Coords(coords), pairs, out)
        })
    }

    /// Score `poses` into `out`, each applied into `scratch` first: one
    /// dispatch for the whole slice, each result bit-identical to
    /// [`total`](EnergyModel::total) of that pose's coordinates.
    pub(crate) fn score_poses(&self, poses: &[Pose], scratch: &mut Scratch, out: &mut [f64]) {
        debug_assert_eq!(poses.len(), out.len());
        let input = Input::Poses(poses, &mut scratch.coords);
        self.dispatch(Terms::Total, input, &mut scratch.pairs, out)
    }

    /// Receptor–ligand interaction energy of world coordinates `coords`.
    pub fn intermolecular(&self, coords: &[Vec3]) -> f64 {
        self.one(Terms::Inter, coords)
    }

    /// Ligand internal energy (pairs across rotatable bonds), summed over
    /// the precomputed pair table.
    pub fn intramolecular(&self, coords: &[Vec3]) -> f64 {
        self.one(Terms::Intra, coords)
    }

    /// Total pose energy used by the search (inter + intra).
    pub fn total(&self, coords: &[Vec3]) -> f64 {
        self.one(Terms::Total, coords)
    }

    /// Score `out.len()` poses in one call. `coords` holds the world
    /// coordinates of every pose back to back (pose-major,
    /// `out.len() × ligand.atom_count()` entries).
    ///
    /// One dispatch scores the poses one after another; each `out[p]` is
    /// bit-identical to [`total`](EnergyModel::total) of that pose's
    /// coordinate slice, for every batch size.
    pub fn total_batch(&self, coords: &[Vec3], out: &mut [f64]) {
        let natoms = self.ligand.atom_count();
        assert_eq!(
            coords.len(),
            natoms * out.len(),
            "coords must hold out.len() poses of {natoms} atoms"
        );
        self.coords_dispatch(Terms::Total, coords, out)
    }

    /// The terms `terms` of one pose's world coordinates, inside a body.
    #[inline(always)]
    fn score<E: ExpLanes>(&self, terms: Terms, coords: &[Vec3], pairs: &mut PairScratch) -> f64 {
        match terms {
            Terms::Inter => self.inter(coords),
            Terms::Intra => self.intra::<E>(coords, pairs),
            Terms::Total => self.inter(coords) + self.intra::<E>(coords, pairs),
        }
    }

    /// The intermolecular sum of one pose: fractional lattice coordinates
    /// for [`LANES`] atoms at a time (vector divides), then per atom one
    /// [`FlatStencil`](crate::grid::FlatStencil) shared by every co-located
    /// map, added in the reference loop's atom order.
    #[inline(always)]
    fn inter(&self, coords: &[Vec3]) -> f64 {
        let spec = &self.grids.spec;
        let (o, s) = (self.origin, spec.spacing);
        let (sy, sz) = (spec.npts, spec.npts * spec.npts);
        let ad4 = self.grids.kind == GridKind::Ad4;
        let mut e = 0.0;
        let (mut gx, mut gy, mut gz) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        for (c, chunk) in coords.chunks(LANES).enumerate() {
            for (l, p) in chunk.iter().enumerate() {
                gx[l] = (p.x - o.x) / s;
                gy[l] = (p.y - o.y) / s;
                gz[l] = (p.z - o.z) / s;
            }
            for l in 0..chunk.len() {
                let a = c * LANES + l;
                let st = spec.flat_stencil(gx[l], gy[l], gz[l]);
                e += if ad4 {
                    let aff = sample_flat(self.atom_vals[a], &st, sy, sz);
                    let elec = self.atom_elec[a] * sample_flat(self.emap_vals, &st, sy, sz);
                    // one-map approximation of the symmetric AD4 desolvation
                    // term (see DESIGN.md): ligand-side solvation parameter
                    // against the receptor volume field, doubled.
                    let desolv = self.atom_desolv[a] * sample_flat(self.dmap_vals, &st, sy, sz);
                    aff + elec + desolv
                } else {
                    sample_flat(self.atom_vals[a], &st, sy, sz)
                };
            }
        }
        e
    }

    /// The intramolecular sum of one pose, in passes over the whole pair
    /// table:
    ///
    /// 1. squared distances, pair by pair;
    /// 2. distances, the `exp` arguments and the batched `exp`s, a chunk
    ///    of [`LANES`] at a time;
    /// 3. the terms ([`ad4_pair_lanes`]/[`vina_pair_lanes`]) chunk by
    ///    chunk, each chunk's added to the sum in pair order as soon as it
    ///    is computed, so the sum's chain of dependent adds overlaps the
    ///    next chunk's divisions.
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
    /// A far pair, and a padding slot, goes through passes 2 and 3 at the
    /// stand-in distance [`CUTOFF`], where every `exp` argument is inside
    /// the port's range: Vina's `−(d/0.5)²` leaves it past r ≈ 11 Å, and
    /// one lane out of range sends its whole chunk to libm. The `exp`s
    /// are asked for the live lanes, `d² < 64`: the port computes the
    /// whole vector anyway, and libm skips the calls whose terms are never
    /// added.
    #[inline(always)]
    fn intra<E: ExpLanes>(&self, coords: &[Vec3], s: &mut PairScratch) -> f64 {
        let pairs = &self.ligand.intra_pairs;
        let n = pairs.len();
        for (d2, &(i, j)) in s.d2.as_flattened_mut().iter_mut().zip(pairs) {
            *d2 = coords[i].dist_sq(coords[j]);
        }
        let mut e = 0.0;
        let lanes = s.d2.iter().zip(&mut s.r).zip(&mut s.x1).zip(&mut s.x2);
        match &self.pairs {
            PairConsts::Ad4(consts) => {
                for (((d2, r), x1), x2) in lanes {
                    *r = distances(d2);
                    let (mut a1, mut a2) = ([0.0; LANES], [0.0; LANES]);
                    for l in 0..LANES {
                        a1[l] = dielectric_exp_arg(r[l].max(0.35));
                        a2[l] = ad4_desolv_exp_arg(r[l]);
                    }
                    (*x1, *x2) = (a1, a2);
                    let live = d2.map(|d2| d2 < CUTOFF_SQ);
                    E::exp_live(x1, &live);
                    E::exp_live(x2, &live);
                }
                let chunks = consts.iter().zip(&s.d2).zip(&s.r).zip(&s.x1).zip(&s.x2);
                for (k, ((((c, d2), r), x1), x2)) in chunks.enumerate() {
                    add(&mut e, n - k * LANES, d2, &ad4_pair_lanes(&self.ad4, c, r, x1, x2));
                }
            }
            PairConsts::Vina(consts) => {
                for ((((d2, r), x1), x2), c) in lanes.zip(consts) {
                    *r = distances(d2);
                    let (mut a1, mut a2) = ([0.0; LANES], [0.0; LANES]);
                    for l in 0..LANES {
                        [a1[l], a2[l]] = vina_exp_args(r[l] - c.rsum[l]);
                    }
                    (*x1, *x2) = (a1, a2);
                    let live = d2.map(|d2| d2 < CUTOFF_SQ);
                    E::exp_live(x1, &live);
                    E::exp_live(x2, &live);
                }
                let chunks = consts.iter().zip(&s.d2).zip(&s.r).zip(&s.x1).zip(&s.x2);
                for (k, ((((c, d2), r), x1), x2)) in chunks.enumerate() {
                    let mut d = [0.0; LANES];
                    for l in 0..LANES {
                        d[l] = r[l] - c.rsum[l];
                    }
                    let t =
                        vina_pair_lanes(&self.vina, r, &d, [x1, x2], [&c.hydrophobic, &c.hbond]);
                    add(&mut e, n - k * LANES, d2, &t);
                }
            }
        }
        e
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

/// The distance of each pair at squared distance `d2`, or [`CUTOFF`]
/// standing in beyond it. Computed into a local array, so no store can
/// alias the next lane's load and the lanes stay a vector `sqrt` and a
/// select.
#[inline(always)]
fn distances(d2: &[f64; LANES]) -> [f64; LANES] {
    let mut r = [0.0; LANES];
    for l in 0..LANES {
        let root = d2[l].sqrt();
        r[l] = if d2[l] < CUTOFF_SQ { root } else { CUTOFF };
    }
    r
}

/// Add the terms `t` of a chunk's first `left` pairs to `e` in pair order,
/// skipping the pairs beyond the cutoff.
#[inline(always)]
fn add(e: &mut f64, left: usize, d2: &[f64; LANES], t: &[f64; LANES]) {
    for l in 0..left.min(LANES) {
        if d2[l] < CUTOFF_SQ {
            *e += t[l];
        }
    }
}

/// The test seams of the `exp` dispatch: a model whose every evaluation
/// runs on a given path, which returns the same bits as every other.
#[cfg(test)]
impl<'a> EnergyModel<'a> {
    /// [`new`](EnergyModel::new) with every evaluation on `path`.
    pub(crate) fn new_via(
        path: ExpPath,
        grids: &'a GridSet,
        ligand: &'a LigandModel,
    ) -> Result<EnergyModel<'a>, DockError> {
        Ok(EnergyModel { exp: path, ..EnergyModel::new(grids, ligand)? })
    }

    /// [`intramolecular`](EnergyModel::intramolecular) on `path`.
    pub(crate) fn intramolecular_via(&self, path: ExpPath, coords: &[Vec3]) -> f64 {
        let model = EnergyModel::new_via(path, self.grids, self.ligand).expect("built once");
        model.intramolecular(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autogrid::{build_ad4_grids, build_vina_grids};
    use crate::grid::GridSpec;
    use crate::oracle::DirectEnergy;
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
        chain(4)
    }

    fn chain(n: usize) -> PdbqtLigand {
        // zig-zag chain so torsion axes are not collinear with the atoms
        let mut m = Molecule::new("L");
        for k in 0..n {
            let mut a = Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.4 - 2.1, 0.3 + 0.5 * (k % 2) as f64, 0.1 * k as f64),
            );
            a.charge = if k % 2 == 0 { 0.05 } else { -0.05 };
            m.add_atom(a);
        }
        for k in 0..n - 1 {
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
    fn every_path_matches_the_reference_past_the_cutoff_and_the_box() {
        // 13 atoms 1.4 Å apart along x: the chain reaches past the 8 Å
        // cutoff and out of the 16 Å box, and its pair count is not a
        // multiple of the lanes
        let lig = chain(13);
        let lm = LigandModel::new(&lig);
        assert_ne!(lm.intra_pairs.len() % LANES, 0);
        let r = receptor();
        let types = lig.mol.ad_types();
        let mut poses = vec![Pose::at(Vec3::ZERO, lm.torsdof()), Pose::at(Vec3::splat(3.0), 0)];
        poses[1].torsions = (0..lm.torsdof()).map(|k| 0.4 * k as f64 - 1.1).collect();
        for pose in &poses {
            let c = lm.coords(pose);
            assert!(lm.intra_pairs.iter().any(|&(i, j)| c[i].dist(c[j]) >= CUTOFF));
            assert!(c.iter().any(|&p| !spec().contains(p)));
        }
        for grids in [
            build_ad4_grids(&r, spec(), &types, &Ad4Params::new()),
            build_vina_grids(&r, spec(), &types, &VinaParams::default()),
        ] {
            for path in [ExpPath::selected(), ExpPath::Libm] {
                let em = EnergyModel::new_via(path, &grids, &lm).unwrap();
                let mut ev = crate::search::Evaluator::new(&em);
                let mut batch = Vec::new();
                ev.energy_batch(&poses, &mut batch);
                for (pose, batched) in poses.iter().zip(&batch) {
                    let c = lm.coords(pose);
                    let want = em.total_reference(&c).to_bits();
                    assert_eq!(em.total(&c).to_bits(), want, "{:?} {path:?}", grids.kind);
                    assert_eq!(ev.energy(pose).to_bits(), want, "{:?} {path:?}", grids.kind);
                    assert_eq!(batched.to_bits(), want, "{:?} {path:?}", grids.kind);
                    let intra = em.intramolecular_reference(&c).to_bits();
                    assert_eq!(em.intramolecular_via(path, &c).to_bits(), intra);
                }
            }
        }
    }

    #[test]
    fn the_libm_body_skips_far_lanes_and_keeps_the_reference_bits() {
        // a 21-atom chain, 1.4 Å a step: in every pose some pairs are past
        // 8 Å and some are not, so chunks mix near and far lanes, and the
        // pair count is not a multiple of the lanes, so the last chunk
        // carries padding
        let lig = chain(21);
        let lm = LigandModel::new(&lig);
        assert_ne!(lm.intra_pairs.len() % LANES, 0);
        let r = receptor();
        let types = lig.mol.ad_types();
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(9);
        let mut poses = vec![Pose::at(Vec3::ZERO, lm.torsdof())];
        poses.extend((0..6).map(|_| crate::search::random_pose(&spec(), lm.torsdof(), &mut rng)));
        for grids in [
            build_ad4_grids(&r, spec(), &types, &Ad4Params::new()),
            build_vina_grids(&r, spec(), &types, &VinaParams::default()),
        ] {
            let em = EnergyModel::new(&grids, &lm).unwrap();
            for pose in &poses {
                let c = lm.coords(pose);
                let far = lm.intra_pairs.iter().filter(|&&(i, j)| c[i].dist(c[j]) >= CUTOFF);
                assert!((1..lm.intra_pairs.len()).contains(&far.count()));
                let want = em.intramolecular_reference(&c).to_bits();
                assert_eq!(em.intramolecular_via(ExpPath::Libm, &c).to_bits(), want);
                assert_eq!(em.intramolecular_via(ExpPath::selected(), &c).to_bits(), want);
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
