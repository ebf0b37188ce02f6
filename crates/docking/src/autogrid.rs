//! AutoGrid: precompute receptor affinity maps (SciDock activity 5).
//!
//! For every atom type present in the ligand, a [`GridMap`] stores the
//! receptor's interaction energy with a probe atom of that type at each
//! lattice point. AD4 additionally uses an electrostatic map (per unit
//! charge) and a desolvation map. Vina-style grids fold everything a type
//! needs into a single map per type.
//!
//! One kernel fills every grid set ([`build_grids`]): it bins receptor
//! atoms into a [`CellList`] once and visits only the cells within cutoff
//! reach of each lattice point, on the caller's thread: a docking campaign
//! runs in parallel one whole dock per engine worker, not within a dock.
//!
//! Candidates from the cell list are iterated in ascending atom order and
//! rejected with the same cutoff test as a scan of every atom at every
//! point, so the kernel performs that scan's floating-point operations in
//! the same order: its output is **bit-identical** to the scan, which the
//! crate's tests keep as their oracle. The kernel scores the surviving
//! candidates [`vexp::LANES`] at a time, with one batched `exp` per
//! argument kind ([`crate::vexp`]), and adds the terms to each lattice
//! point's sums in candidate order. Work that gives the same bits for
//! several probe types is done once: probe types whose terms are equal
//! against every receptor type share one computed column, and the Vina
//! fill takes its Gaussians once per probe radius (DESIGN.md §9).

use std::collections::BTreeMap;

use molkit::{AdType, Molecule};

use crate::celllist::{CellList, Gather};
use crate::grid::{GridMap, GridSpec};
use crate::params::vina_radius;
use crate::params::{type_index, Ad4Params, VinaParams};
use crate::scoring::{
    dielectric_exp_arg, dielectric_from_exp, flag, vina_exp_args, vina_pair_of_radial, VinaRadial,
    COULOMB, CUTOFF, DESOLV_SIGMA,
};
use crate::vexp::{self, ExpLanes, ExpPath, Kernel};

/// Cell edge for receptor binning: half the interaction cutoff, so the
/// gathered neighborhood is a 20 Å cube instead of the 24 Å cube that
/// cutoff-sized cells would give.
const CELL_EDGE: f64 = CUTOFF / 2.0;

/// Which engine the grid set serves (their per-point physics differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// AutoDock 4 physics (vdW/H-bond + electrostatic + desolvation maps).
    Ad4,
    /// Vina physics (one folded map per probe type).
    Vina,
}

/// A complete set of precomputed maps for one receptor + grid box.
#[derive(Debug, Clone)]
pub struct GridSet {
    /// Which engine's physics the maps encode.
    pub kind: GridKind,
    /// The shared lattice geometry.
    pub spec: GridSpec,
    /// Per-probe-type affinity maps.
    pub affinity: BTreeMap<AdType, GridMap>,
    /// Electrostatic potential map (kcal/mol per unit probe charge); AD4 only.
    pub electrostatic: Option<GridMap>,
    /// Desolvation map (Σ receptor volumes × gaussian); AD4 only.
    pub desolvation: Option<GridMap>,
}

impl GridSet {
    /// Every map of the set with its AutoGrid label, in the one order every
    /// writer uses (`.map` files, the `.maps.fld` index, `SDGC1` cache
    /// entries): affinity maps in `BTreeMap` order, then `e`, then `d`.
    pub fn maps(&self) -> impl Iterator<Item = (&'static str, &GridMap)> {
        self.affinity
            .iter()
            .map(|(t, m)| (t.label(), m))
            .chain(self.electrostatic.as_ref().map(|m| ("e", m)))
            .chain(self.desolvation.as_ref().map(|m| ("d", m)))
    }

    /// Resident size of the map values in bytes (used by the grid-cache
    /// telemetry to report memory held per cached receptor).
    pub fn bytes(&self) -> u64 {
        let per_map = (self.spec.len() * std::mem::size_of::<f64>()) as u64;
        per_map * self.maps().count() as u64
    }
}

/// Pre-extracted receptor atom data for the grid inner loop.
struct ReceptorAtoms {
    pos: Vec<molkit::Vec3>,
    ad_type: Vec<AdType>,
    charge: Vec<f64>,
}

impl ReceptorAtoms {
    fn from(receptor: &Molecule) -> ReceptorAtoms {
        ReceptorAtoms {
            pos: receptor.atoms.iter().map(|a| a.pos).collect(),
            ad_type: receptor.atoms.iter().map(|a| a.ad_type).collect(),
            charge: receptor.atoms.iter().map(|a| a.charge).collect(),
        }
    }
}

/// One grid build: `maps` holds every map's buffer, `spec.len()` values
/// each in z-major layout.
struct Slabs<'a, P> {
    spec: GridSpec,
    atoms: &'a ReceptorAtoms,
    cells: &'a CellList,
    probe_types: &'a [AdType],
    params: &'a P,
    maps: &'a mut [Vec<f64>],
}

/// The candidates of one lattice point within the cutoff,
/// [`vexp::LANES`] at a time: atom index, squared distance and distance.
struct CandLanes {
    atom: [usize; vexp::LANES],
    d2: [f64; vexp::LANES],
    r: [f64; vexp::LANES],
    m: usize,
}

/// One lattice point's sums under construction.
trait PointSums {
    /// Add a batch of in-cutoff candidates of `atoms`, in ascending atom
    /// order.
    fn add<E: ExpLanes>(&mut self, atoms: &ReceptorAtoms, b: &CandLanes);
    /// Store the sums at offset `off` of `maps`, and start over from zero.
    fn store(&mut self, maps: &mut [Vec<f64>], off: usize);
}

impl<P> Slabs<'_, P> {
    /// Visit every lattice point in map order, feeding its in-cutoff
    /// candidates to `sums` batch by batch and storing the sums once its
    /// last batch is in.
    #[inline(always)]
    fn fill<E: ExpLanes>(&mut self, sums: &mut impl PointSums) {
        let (spec, cells, atoms) = (self.spec, self.cells, self.atoms);
        let npts = spec.npts;
        let cutoff_sq = CUTOFF * CUTOFF;
        let reach = cells.reach(CUTOFF);
        let mut cand = Gather::default();
        let mut last_cell = [i64::MIN; 3];
        let mut b = CandLanes {
            atom: [0; vexp::LANES],
            d2: [0.0; vexp::LANES],
            r: [0.0; vexp::LANES],
            m: 0,
        };
        for k in 0..npts {
            for j in 0..npts {
                for i in 0..npts {
                    let p = spec.point(i, j, k);
                    // consecutive points along i share a cell for
                    // ~cell/spacing steps, so candidate gathering amortizes
                    // across points
                    let cc = cells.coords(p);
                    if cc != last_cell {
                        cells.gather(cc, reach, &mut cand);
                        last_cell = cc;
                    }
                    for &a in &cand.atoms {
                        let a = a as usize;
                        let d2 = atoms.pos[a].dist_sq(p);
                        if d2 > cutoff_sq {
                            continue;
                        }
                        b.atom[b.m] = a;
                        b.d2[b.m] = d2;
                        b.r[b.m] = d2.sqrt();
                        b.m += 1;
                        if b.m == vexp::LANES {
                            sums.add::<E>(atoms, &b);
                            b.m = 0;
                        }
                    }
                    if b.m > 0 {
                        sums.add::<E>(atoms, &b);
                        b.m = 0;
                    }
                    sums.store(self.maps, (k * npts + j) * npts + i);
                }
            }
        }
    }
}

/// The probe types of a fill grouped into columns: probe types whose terms
/// are bitwise equal against every receptor type share one computed
/// column, whose sums every one of their maps stores.
struct Columns {
    /// Each column's first probe type, in probe order.
    reps: Vec<AdType>,
    /// Each probe type's column.
    of: Vec<usize>,
}

impl Columns {
    /// Group `probe_types` by `key`: equal keys, one column.
    fn new<K: PartialEq>(probe_types: &[AdType], key: impl Fn(AdType) -> K) -> Columns {
        let (mut keys, mut reps) = (Vec::new(), Vec::new());
        let of = probe_types
            .iter()
            .map(|&t| {
                let k = key(t);
                keys.iter().position(|seen| *seen == k).unwrap_or_else(|| {
                    keys.push(k);
                    reps.push(t);
                    keys.len() - 1
                })
            })
            .collect();
        Columns { reps, of }
    }

    /// Store each probe type's column sum at offset `off` of its map (the
    /// first `of.len()` of `maps`), and start every column over from zero.
    #[inline(always)]
    fn store(&self, sums: &mut [f64], maps: &mut [Vec<f64>], off: usize) {
        for (map, &c) in maps.iter_mut().zip(&self.of) {
            map[off] = sums[c];
        }
        sums.fill(0.0);
    }
}

/// An AD4 point's sums: electrostatic, desolvation, one per column of
/// probe types with bitwise-equal pair rows.
struct Ad4Sums<'a> {
    cols: &'a Columns,
    /// Whether a column's row has an H-bonding pair at all.
    hbonds: &'a [bool],
    params: &'a Ad4Params,
    e: f64,
    d: f64,
    aff: Vec<f64>,
}

impl PointSums for Ad4Sums<'_> {
    #[inline(always)]
    fn add<E: ExpLanes>(&mut self, atoms: &ReceptorAtoms, b: &CandLanes) {
        const L: usize = vexp::LANES;
        let params = self.params;
        let (mut rc, mut eps, mut g) = ([0.0; L], [0.0; L], [0.0; L]);
        for l in 0..L {
            rc[l] = b.r[l].max(0.35);
            eps[l] = dielectric_exp_arg(rc[l]);
            g[l] = -b.d2[l] / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA);
        }
        E::exp(&mut eps, b.m);
        E::exp(&mut g, b.m);
        let (mut q, mut vol, mut tb) = ([0.0; L], [0.0; L], [AdType::C; L]);
        for l in 0..b.m {
            tb[l] = atoms.ad_type[b.atom[l]];
            q[l] = atoms.charge[b.atom[l]];
            vol[l] = params.volume[type_index(tb[l])];
        }
        let (mut et, mut dt) = ([0.0; L], [0.0; L]);
        for l in 0..L {
            et[l] = COULOMB * q[l] / (dielectric_from_exp(eps[l]) * rc[l]);
            dt[l] = vol[l] * g[l];
        }
        for l in 0..b.m {
            self.e += et[l];
            self.d += dt[l];
        }
        // one set of distance powers serves every column
        let (mut r6, mut r10) = ([0.0; L], [0.0; L]);
        for l in 0..L {
            (r6[l], r10[l]) = (rc[l].powi(6), rc[l].powi(10));
        }
        for (c, &t) in self.cols.reps.iter().enumerate() {
            let (mut lj_a, mut lj_b) = ([0.0; L], [0.0; L]);
            for l in 0..L {
                let pp = params.pair(t, tb[l]);
                (lj_a[l], lj_b[l]) = (pp.lj_a, pp.lj_b);
            }
            let mut v = [0.0; L];
            for l in 0..L {
                v[l] = params.w_vdw * (lj_a[l] / (r6[l] * r6[l]) - lj_b[l] / r6[l]);
            }
            if self.hbonds[c] {
                for l in 0..b.m {
                    let pp = params.pair(t, tb[l]);
                    if pp.hbond {
                        let r = rc[l];
                        v[l] = params.w_hbond * (pp.hb_c / (r10[l] * r * r) - pp.hb_d / r10[l]);
                    }
                }
            }
            for l in 0..b.m {
                self.aff[c] += if rc[l] >= CUTOFF { 0.0 } else { v[l] };
            }
        }
    }

    #[inline(always)]
    fn store(&mut self, maps: &mut [Vec<f64>], off: usize) {
        let nprobe = self.cols.of.len();
        self.cols.store(&mut self.aff, maps, off);
        maps[nprobe][off] = std::mem::take(&mut self.e);
        maps[nprobe + 1][off] = std::mem::take(&mut self.d);
    }
}

/// The AD4 fill: `maps` is `[affinity(probe_types[0]), …, electrostatic,
/// desolvation]`.
impl Kernel for Slabs<'_, Ad4Params> {
    type Out = ();

    #[inline(always)]
    fn run<E: ExpLanes>(mut self) {
        let params = self.params;
        let row = |t: AdType| {
            AdType::ALL.map(|tb| {
                let p = params.pair(t, tb);
                (p.lj_a.to_bits(), p.lj_b.to_bits(), p.hb_c.to_bits(), p.hb_d.to_bits(), p.hbond)
            })
        };
        let cols = Columns::new(self.probe_types, row);
        let hbonds: Vec<bool> = cols
            .reps
            .iter()
            .map(|&t| AdType::ALL.iter().any(|&tb| params.pair(t, tb).hbond))
            .collect();
        let aff = vec![0.0; cols.reps.len()];
        self.fill::<E>(&mut Ad4Sums { cols: &cols, hbonds: &hbonds, params, e: 0.0, d: 0.0, aff });
    }
}

/// A Vina point's sums, one per probe class: the probe types of a class
/// share a radius and the hydrophobic, donor and acceptor flags, so their
/// terms are equal against every receptor type.
struct VinaSums<'a> {
    cols: &'a Columns,
    /// The distinct probe radii, each with the columns of that radius.
    radii: &'a [(f64, Vec<usize>)],
    params: &'a VinaParams,
    aff: Vec<f64>,
}

impl PointSums for VinaSums<'_> {
    #[inline(always)]
    fn add<E: ExpLanes>(&mut self, atoms: &ReceptorAtoms, b: &CandLanes) {
        const L: usize = vexp::LANES;
        // per lane the receptor atom's radius, and the eligibility factors
        // a probe class picks from: its hydrophobic factor is the atom's
        // or zero, its H-bond factor (`vina_hbond_pair`) the atom's
        // acceptor flag for a donor, donor-or-acceptor for an acceptor
        let (mut radius, mut hydrophobic, mut acceptor, mut either) =
            ([0.0; L], [0.0; L], [0.0; L], [0.0; L]);
        for l in 0..b.m {
            let tb = atoms.ad_type[b.atom[l]];
            radius[l] = vina_radius(tb);
            hydrophobic[l] = flag(tb.is_hydrophobic());
            acceptor[l] = flag(tb.is_acceptor());
            either[l] = flag(tb.is_donor_h() || tb.is_acceptor());
        }
        let zero = [0.0; L];
        for (probe_radius, cols) in self.radii {
            // the Gaussians, the repulsion and the ramps depend on the
            // probe only through its radius
            let (mut d, mut g1, mut g2) = ([0.0; L], [0.0; L], [0.0; L]);
            for l in 0..L {
                d[l] = b.r[l] - (probe_radius + radius[l]);
                [g1[l], g2[l]] = vina_exp_args(d[l]);
            }
            E::exp(&mut g1, b.m);
            E::exp(&mut g2, b.m);
            let radial = VinaRadial::lanes(self.params, &d, [&g1, &g2]);
            for &c in cols {
                let t = self.cols.reps[c];
                let hydrophobic = if t.is_hydrophobic() { &hydrophobic } else { &zero };
                let hbond = match (t.is_acceptor(), t.is_donor_h()) {
                    (true, _) => &either,
                    (false, true) => &acceptor,
                    (false, false) => &zero,
                };
                let term = vina_pair_of_radial(self.params, &b.r, &radial, [hydrophobic, hbond]);
                for v in &term[..b.m] {
                    self.aff[c] += v;
                }
            }
        }
    }

    #[inline(always)]
    fn store(&mut self, maps: &mut [Vec<f64>], off: usize) {
        self.cols.store(&mut self.aff, maps, off);
    }
}

/// The Vina fill: `maps[ti]` is probe type `ti`'s map.
impl Kernel for Slabs<'_, VinaParams> {
    type Out = ();

    #[inline(always)]
    fn run<E: ExpLanes>(mut self) {
        let class = |t: AdType| {
            (vina_radius(t).to_bits(), t.is_hydrophobic(), t.is_donor_h(), t.is_acceptor())
        };
        let cols = Columns::new(self.probe_types, class);
        let mut radii: Vec<(f64, Vec<usize>)> = Vec::new();
        for (c, &t) in cols.reps.iter().enumerate() {
            let r = vina_radius(t);
            match radii.iter_mut().find(|(seen, _)| seen.to_bits() == r.to_bits()) {
                Some((_, of_r)) => of_r.push(c),
                None => radii.push((r, vec![c])),
            }
        }
        let aff = vec![0.0; cols.reps.len()];
        self.fill::<E>(&mut VinaSums { cols: &cols, radii: &radii, params: self.params, aff });
    }
}

/// Build `kind`'s grids for the given probe types with the default
/// parameter set ([`Ad4Params::new`], [`VinaParams::default`]).
pub fn build_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    kind: GridKind,
) -> GridSet {
    let path = ExpPath::selected();
    match kind {
        GridKind::Ad4 => fill(path, kind, receptor, spec, probe_types, &Ad4Params::new()),
        GridKind::Vina => fill(path, kind, receptor, spec, probe_types, &VinaParams::default()),
    }
}

/// Build AD4 grids for the given probe types with `params`.
pub fn build_ad4_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
) -> GridSet {
    fill(ExpPath::selected(), GridKind::Ad4, receptor, spec, probe_types, params)
}

/// Build Vina-style grids for the given probe types with `params`.
pub fn build_vina_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
) -> GridSet {
    fill(ExpPath::selected(), GridKind::Vina, receptor, spec, probe_types, params)
}

/// [`build_ad4_grids`] on a given `exp` path; every path builds the same
/// bits.
#[cfg(test)]
pub(crate) fn build_ad4_grids_via(
    path: ExpPath,
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
) -> GridSet {
    fill(path, GridKind::Ad4, receptor, spec, probe_types, params)
}

/// [`build_vina_grids`] on a given `exp` path; every path builds the same
/// bits.
#[cfg(test)]
pub(crate) fn build_vina_grids_via(
    path: ExpPath,
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
) -> GridSet {
    fill(path, GridKind::Vina, receptor, spec, probe_types, params)
}

/// Fill `kind`'s maps with the cell-list kernel for `params`' physics on
/// `path`: one affinity map per probe type, then AD4's electrostatic and
/// desolvation maps.
fn fill<P>(
    path: ExpPath,
    kind: GridKind,
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &P,
) -> GridSet
where
    for<'a> Slabs<'a, P>: Kernel<Out = ()>,
{
    let nmaps = probe_types.len() + if kind == GridKind::Ad4 { 2 } else { 0 };
    let atoms = ReceptorAtoms::from(receptor);
    let cells = CellList::build(&atoms.pos, CELL_EDGE);
    let mut bufs: Vec<Vec<f64>> = (0..nmaps).map(|_| vec![0.0; spec.len()]).collect();
    vexp::run(
        path,
        Slabs { spec, atoms: &atoms, cells: &cells, probe_types, params, maps: &mut bufs },
    );
    let mut maps = bufs.into_iter().map(|buf| GridMap::from_values(spec, buf));
    let affinity = probe_types.iter().map(|&t| (t, maps.next().expect("affinity map"))).collect();
    GridSet { kind, spec, affinity, electrostatic: maps.next(), desolvation: maps.next() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::scoring::ad4_vdw_hb;
    use molkit::{Atom, Element, Vec3};

    /// A single charged oxygen at the origin.
    fn tiny_receptor() -> Molecule {
        let mut m = Molecule::new("R");
        let mut a = Atom::new(1, "O", Element::O, Vec3::ZERO);
        a.charge = -0.5;
        a.ad_type = AdType::OA;
        m.add_atom(a);
        m
    }

    /// A deterministic ~90-atom cloud spanning more than one cell in every
    /// direction, with mixed types and charges.
    fn cloud_receptor() -> Molecule {
        let mut m = Molecule::new("R");
        let types = [AdType::C, AdType::OA, AdType::N, AdType::HD, AdType::A];
        let mut x = 0.137_f64;
        let mut next = || {
            // xorshift-free deterministic jitter; only spatial spread matters
            x = (x * 7.31 + 0.173).fract();
            x * 22.0 - 11.0
        };
        for idx in 0..90 {
            let p = Vec3::new(next(), next(), next());
            let mut a = Atom::new(idx as u32 + 1, "X", Element::C, p);
            a.ad_type = types[idx % types.len()];
            a.charge = (idx as f64 * 0.07).sin() * 0.6;
            m.add_atom(a);
        }
        m
    }

    fn spec() -> GridSpec {
        GridSpec { center: Vec3::ZERO, npts: 9, spacing: 1.0 }
    }

    fn assert_gridsets_bit_identical(a: &GridSet, b: &GridSet) {
        assert_eq!(a.kind, b.kind);
        let keys: Vec<_> = a.affinity.keys().collect();
        assert_eq!(keys, b.affinity.keys().collect::<Vec<_>>());
        for (t, map) in &a.affinity {
            assert_eq!(map.values(), b.affinity[t].values(), "affinity map {t:?} differs");
        }
        match (&a.electrostatic, &b.electrostatic) {
            (Some(x), Some(y)) => assert_eq!(x.values(), y.values(), "electrostatic differs"),
            (None, None) => {}
            _ => panic!("electrostatic presence differs"),
        }
        match (&a.desolvation, &b.desolvation) {
            (Some(x), Some(y)) => assert_eq!(x.values(), y.values(), "desolvation differs"),
            (None, None) => {}
            _ => panic!("desolvation presence differs"),
        }
    }

    #[test]
    fn ad4_grids_have_all_maps() {
        let r = tiny_receptor();
        let g = build_ad4_grids(&r, spec(), &[AdType::C, AdType::HD], &Ad4Params::new());
        assert_eq!(g.kind, GridKind::Ad4);
        assert_eq!(g.affinity.len(), 2);
        assert!(g.electrostatic.is_some());
        assert!(g.desolvation.is_some());
        let labels: Vec<&str> = g.maps().map(|(l, _)| l).collect();
        assert_eq!(labels, ["C", "HD", "e", "d"]);
    }

    #[test]
    fn electrostatic_map_sign_matches_receptor_charge() {
        let r = tiny_receptor(); // negative charge
        let g = build_ad4_grids(&r, spec(), &[AdType::C], &Ad4Params::new());
        let e = g.electrostatic.as_ref().unwrap();
        // potential near a negative charge is negative (per unit + probe)
        assert!(e.interpolate(Vec3::new(2.0, 0.0, 0.0)) < 0.0);
    }

    #[test]
    fn affinity_map_has_attractive_well() {
        let r = tiny_receptor();
        let g = build_ad4_grids(&r, spec(), &[AdType::C], &Ad4Params::new());
        let map = &g.affinity[&AdType::C];
        // somewhere in the box the probe should feel attraction
        assert!(map.min_value() < 0.0);
        // right on top of the atom it must be repulsive
        assert!(map.interpolate(Vec3::ZERO) > 0.0);
    }

    #[test]
    fn hd_probe_feels_hbond_well_near_acceptor() {
        let r = tiny_receptor();
        let g = build_ad4_grids(&r, spec(), &[AdType::HD, AdType::C], &Ad4Params::new());
        let hd_min = g.affinity[&AdType::HD].min_value();
        let c_min = g.affinity[&AdType::C].min_value();
        assert!(hd_min < c_min, "HD near OA should be deeper: {hd_min} vs {c_min}");
    }

    #[test]
    fn vina_grids_no_estat_maps() {
        let r = tiny_receptor();
        let g = build_vina_grids(&r, spec(), &[AdType::C], &VinaParams::default());
        assert_eq!(g.kind, GridKind::Vina);
        assert!(g.electrostatic.is_none());
        assert!(g.desolvation.is_none());
        assert_eq!(g.maps().map(|(l, _)| l).collect::<Vec<_>>(), ["C"]);
        // attractive somewhere, repulsive at the atom
        let m = &g.affinity[&AdType::C];
        assert!(m.min_value() < 0.0);
        assert!(m.interpolate(Vec3::ZERO) > 0.0);
    }

    #[test]
    fn grid_matches_direct_summation() {
        // interpolate at a lattice point == direct pairwise evaluation
        let r = tiny_receptor();
        let params = Ad4Params::new();
        let g = build_ad4_grids(&r, spec(), &[AdType::C], &params);
        let p = Vec3::new(3.0, 1.0, 0.0); // a lattice point of the 9×9×9/1Å grid
        let direct = ad4_vdw_hb(&params, AdType::C, AdType::OA, p.norm());
        let from_grid = g.affinity[&AdType::C].interpolate(p);
        assert!((direct - from_grid).abs() < 1e-9, "{direct} vs {from_grid}");
    }

    #[test]
    fn desolvation_map_positive_and_decaying() {
        let r = tiny_receptor();
        let g = build_ad4_grids(&r, spec(), &[AdType::C], &Ad4Params::new());
        let d = g.desolvation.as_ref().unwrap();
        let near = d.interpolate(Vec3::new(1.0, 0.0, 0.0));
        let far = d.interpolate(Vec3::new(4.0, 0.0, 0.0));
        assert!(near > far, "desolvation decays: {near} vs {far}");
        assert!(far >= 0.0);
    }

    #[test]
    fn cell_list_ad4_bit_identical_to_reference() {
        let r = cloud_receptor();
        let params = Ad4Params::new();
        let probes = [AdType::C, AdType::OA, AdType::HD];
        let sp = GridSpec { center: Vec3::ZERO, npts: 13, spacing: 1.25 };
        let naive = oracle::build_ad4_grids(&r, sp, &probes, &params);
        assert_gridsets_bit_identical(&naive, &build_grids(&r, sp, &probes, GridKind::Ad4));
    }

    #[test]
    fn cell_list_vina_bit_identical_to_reference() {
        let r = cloud_receptor();
        let params = VinaParams::default();
        let probes = [AdType::C, AdType::N];
        let sp = GridSpec { center: Vec3::ZERO, npts: 11, spacing: 1.5 };
        let naive = oracle::build_vina_grids(&r, sp, &probes, &params);
        assert_gridsets_bit_identical(&naive, &build_grids(&r, sp, &probes, GridKind::Vina));
    }

    #[test]
    fn build_grids_is_each_kinds_build_with_default_parameters() {
        let r = cloud_receptor();
        let probes = [AdType::C, AdType::HD];
        let ad4 = build_ad4_grids(&r, spec(), &probes, &Ad4Params::new());
        let vina = build_vina_grids(&r, spec(), &probes, &VinaParams::default());
        assert_gridsets_bit_identical(&ad4, &build_grids(&r, spec(), &probes, GridKind::Ad4));
        assert_gridsets_bit_identical(&vina, &build_grids(&r, spec(), &probes, GridKind::Vina));
    }

    #[test]
    fn gridset_reports_resident_bytes() {
        let r = tiny_receptor();
        let g = build_ad4_grids(&r, spec(), &[AdType::C], &Ad4Params::new());
        // one affinity + e + d map, 9³ points, 8 bytes each
        assert_eq!(g.bytes(), 3 * 9 * 9 * 9 * 8);
    }
}
