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
//! reach of each lattice point, fanning contiguous z-slabs across scoped
//! threads — the map layout is z-major, so each thread writes a disjoint
//! contiguous chunk of every map.
//!
//! Candidates from the cell list are iterated in ascending atom order and
//! rejected with the same cutoff test as a scan of every atom at every
//! point, so the kernel performs that scan's floating-point operations in
//! the same order: its output is **bit-identical** to the scan, which the
//! crate's tests keep as their oracle. The kernel scores the surviving
//! candidates [`vexp::LANES`] at a time, with one batched `exp` per
//! argument kind ([`crate::vexp`]), and adds the terms to each lattice
//! point's sums in candidate order.

use std::collections::BTreeMap;

use molkit::{AdType, Molecule};

use crate::celllist::CellList;
use crate::grid::{GridMap, GridSpec};
use crate::params::vina_radius;
use crate::params::{type_index, Ad4Params, VinaParams};
use crate::scoring::{
    ad4_vdw_hb_pre, dielectric_exp_arg, dielectric_from_exp, flag, vina_exp_args, vina_hbond_pair,
    vina_pair_lanes, COULOMB, CUTOFF, DESOLV_SIGMA,
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

/// Resolve a `DockConfig::threads`-style knob: `0` means "one thread per
/// available core", anything else is taken literally.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Number of contiguous z-slab chunks a build with this lattice and thread
/// knob fans out (also the number of threads actually spawned).
pub fn planned_slabs(npts: usize, threads: usize) -> usize {
    effective_threads(threads).min(npts).max(1)
}

/// Chunk boundaries: `npts` z-slabs split into `planned_slabs` contiguous
/// runs of near-equal size. `bounds[c]..bounds[c + 1]` is chunk `c`'s
/// k-range.
fn slab_bounds(npts: usize, threads: usize) -> Vec<usize> {
    let t = planned_slabs(npts, threads);
    (0..=t).map(|c| c * npts / t).collect()
}

/// Split each map buffer at the chunk boundaries, transposing into one
/// `Vec<&mut [f64]>` (slice per map) per chunk so threads own disjoint
/// contiguous regions of every map.
fn partition_buffers<'a>(
    bufs: &'a mut [Vec<f64>],
    bounds: &[usize],
    slab: usize,
) -> Vec<Vec<&'a mut [f64]>> {
    let nchunks = bounds.len() - 1;
    let mut per_chunk: Vec<Vec<&'a mut [f64]>> = (0..nchunks).map(|_| Vec::new()).collect();
    for buf in bufs.iter_mut() {
        let mut rest: &mut [f64] = buf;
        for (c, w) in bounds.windows(2).enumerate() {
            let (head, tail) = rest.split_at_mut((w[1] - w[0]) * slab);
            per_chunk[c].push(head);
            rest = tail;
        }
    }
    per_chunk
}

/// One z-slab chunk of a grid build: slabs `k0..k1` of `maps`, each slice
/// covering exactly this chunk's points in z-major layout.
struct Slabs<'a, 'm, P> {
    spec: GridSpec,
    k0: usize,
    k1: usize,
    atoms: &'a ReceptorAtoms,
    cells: &'a CellList,
    probe_types: &'a [AdType],
    params: &'a P,
    maps: &'m mut [&'a mut [f64]],
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
    fn store(&mut self, maps: &mut [&mut [f64]], off: usize);
}

impl<P> Slabs<'_, '_, P> {
    /// Visit every lattice point of the chunk in map order, feeding its
    /// in-cutoff candidates to `sums` batch by batch and storing the sums
    /// once its last batch is in.
    #[inline(always)]
    fn fill<E: ExpLanes>(&mut self, sums: &mut impl PointSums) {
        let (spec, cells, atoms) = (self.spec, self.cells, self.atoms);
        let npts = spec.npts;
        let cutoff_sq = CUTOFF * CUTOFF;
        let reach = cells.reach(CUTOFF);
        let mut cand: Vec<u32> = Vec::new();
        let mut last_cell = [i64::MIN; 3];
        let mut b = CandLanes {
            atom: [0; vexp::LANES],
            d2: [0.0; vexp::LANES],
            r: [0.0; vexp::LANES],
            m: 0,
        };
        for k in self.k0..self.k1 {
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
                    for &a in &cand {
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
                    sums.store(self.maps, ((k - self.k0) * npts + j) * npts + i);
                }
            }
        }
    }
}

/// An AD4 point's sums: electrostatic, desolvation, one per probe type.
struct Ad4Sums<'a> {
    probe_types: &'a [AdType],
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
        let (mut q, mut vol) = ([0.0; L], [0.0; L]);
        for l in 0..b.m {
            q[l] = atoms.charge[b.atom[l]];
            vol[l] = params.volume[type_index(atoms.ad_type[b.atom[l]])];
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
        for (&r, &a) in rc.iter().zip(&b.atom[..b.m]) {
            // one set of distance powers serves every probe type
            let (r6, r10) = (r.powi(6), r.powi(10));
            let tb = atoms.ad_type[a];
            for (ti, &t) in self.probe_types.iter().enumerate() {
                self.aff[ti] += ad4_vdw_hb_pre(params, params.pair(t, tb), r, r6, r10);
            }
        }
    }

    #[inline(always)]
    fn store(&mut self, maps: &mut [&mut [f64]], off: usize) {
        let nprobe = self.aff.len();
        for (slice, v) in maps.iter_mut().zip(&mut self.aff) {
            slice[off] = std::mem::take(v);
        }
        maps[nprobe][off] = std::mem::take(&mut self.e);
        maps[nprobe + 1][off] = std::mem::take(&mut self.d);
    }
}

/// The AD4 fill: `maps` is `[affinity(probe_types[0]), …, electrostatic,
/// desolvation]`.
impl Kernel for Slabs<'_, '_, Ad4Params> {
    type Out = ();

    #[inline(always)]
    fn run<E: ExpLanes>(mut self) {
        let (probe_types, params) = (self.probe_types, self.params);
        let aff = vec![0.0; probe_types.len()];
        self.fill::<E>(&mut Ad4Sums { probe_types, params, e: 0.0, d: 0.0, aff });
    }
}

/// A Vina point's sums, one per probe type.
struct VinaSums<'a> {
    probe_types: &'a [AdType],
    params: &'a VinaParams,
    aff: Vec<f64>,
}

impl PointSums for VinaSums<'_> {
    #[inline(always)]
    fn add<E: ExpLanes>(&mut self, atoms: &ReceptorAtoms, b: &CandLanes) {
        const L: usize = vexp::LANES;
        let mut tb = [AdType::C; L];
        for (t, &a) in tb.iter_mut().zip(&b.atom[..b.m]) {
            *t = atoms.ad_type[a];
        }
        for (ti, &t) in self.probe_types.iter().enumerate() {
            let (mut rsum, mut hydrophobic, mut hbond) = ([0.0; L], [0.0; L], [0.0; L]);
            for l in 0..b.m {
                rsum[l] = vina_radius(t) + vina_radius(tb[l]);
                hydrophobic[l] = flag(t.is_hydrophobic() && tb[l].is_hydrophobic());
                hbond[l] = flag(vina_hbond_pair(t, tb[l]));
            }
            let (mut d, mut g1, mut g2) = ([0.0; L], [0.0; L], [0.0; L]);
            for l in 0..L {
                d[l] = b.r[l] - rsum[l];
                [g1[l], g2[l]] = vina_exp_args(d[l]);
            }
            E::exp(&mut g1, b.m);
            E::exp(&mut g2, b.m);
            let term = vina_pair_lanes(self.params, &b.r, &d, [&g1, &g2], [&hydrophobic, &hbond]);
            for v in &term[..b.m] {
                self.aff[ti] += v;
            }
        }
    }

    #[inline(always)]
    fn store(&mut self, maps: &mut [&mut [f64]], off: usize) {
        for (slice, v) in maps.iter_mut().zip(&mut self.aff) {
            slice[off] = std::mem::take(v);
        }
    }
}

/// The Vina fill: `maps[ti]` is probe type `ti`'s map.
impl Kernel for Slabs<'_, '_, VinaParams> {
    type Out = ();

    #[inline(always)]
    fn run<E: ExpLanes>(mut self) {
        let (probe_types, params) = (self.probe_types, self.params);
        let aff = vec![0.0; probe_types.len()];
        self.fill::<E>(&mut VinaSums { probe_types, params, aff });
    }
}

/// Build `kind`'s grids for the given probe types with the default
/// parameter set ([`Ad4Params::new`], [`VinaParams::default`]), fanning
/// contiguous z-slab chunks across `threads` scoped threads (`0` = one per
/// core).
///
/// The result does not depend on the thread count: every lattice point is
/// computed by exactly one thread with the same candidate order.
pub fn build_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    kind: GridKind,
    threads: usize,
) -> GridSet {
    let path = ExpPath::selected();
    match kind {
        GridKind::Ad4 => fill(path, kind, receptor, spec, probe_types, &Ad4Params::new(), threads),
        GridKind::Vina => {
            fill(path, kind, receptor, spec, probe_types, &VinaParams::default(), threads)
        }
    }
}

/// Build AD4 grids for the given probe types with `params`, on one thread.
pub fn build_ad4_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
) -> GridSet {
    fill(ExpPath::selected(), GridKind::Ad4, receptor, spec, probe_types, params, 1)
}

/// Build Vina-style grids for the given probe types with `params`, on one
/// thread.
pub fn build_vina_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
) -> GridSet {
    fill(ExpPath::selected(), GridKind::Vina, receptor, spec, probe_types, params, 1)
}

/// [`build_ad4_grids`] on a given `exp` path and thread count; every path
/// builds the same bits.
#[cfg(test)]
pub(crate) fn build_ad4_grids_via(
    path: ExpPath,
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
    threads: usize,
) -> GridSet {
    fill(path, GridKind::Ad4, receptor, spec, probe_types, params, threads)
}

/// [`build_vina_grids`] on a given `exp` path and thread count; every path
/// builds the same bits.
#[cfg(test)]
pub(crate) fn build_vina_grids_via(
    path: ExpPath,
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
    threads: usize,
) -> GridSet {
    fill(path, GridKind::Vina, receptor, spec, probe_types, params, threads)
}

/// Fill `kind`'s maps with the cell-list kernel for `params`' physics on
/// `path`, fanning contiguous z-slab chunks across `threads` scoped threads
/// (`0` = one per core): one affinity map per probe type, then AD4's
/// electrostatic and desolvation maps.
fn fill<P: Sync>(
    path: ExpPath,
    kind: GridKind,
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &P,
    threads: usize,
) -> GridSet
where
    for<'a, 'm> Slabs<'a, 'm, P>: Kernel<Out = ()>,
{
    let nmaps = probe_types.len() + if kind == GridKind::Ad4 { 2 } else { 0 };
    let atoms = ReceptorAtoms::from(receptor);
    let cells = CellList::build(&atoms.pos, CELL_EDGE);
    let mut bufs: Vec<Vec<f64>> = (0..nmaps).map(|_| vec![0.0; spec.len()]).collect();
    let bounds = slab_bounds(spec.npts, threads);
    let mut per_chunk = partition_buffers(&mut bufs, &bounds, spec.npts * spec.npts);
    let slabs = |c: usize, maps| Slabs {
        spec,
        k0: bounds[c],
        k1: bounds[c + 1],
        atoms: &atoms,
        cells: &cells,
        probe_types,
        params,
        maps,
    };
    if per_chunk.len() == 1 {
        vexp::run(path, slabs(0, &mut per_chunk[0]));
    } else {
        std::thread::scope(|s| {
            for (c, maps) in per_chunk.iter_mut().enumerate() {
                let slabs = &slabs;
                s.spawn(move || vexp::run(path, slabs(c, maps)));
            }
        });
    }
    drop(per_chunk);
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
    fn cell_list_ad4_bit_identical_to_reference_any_thread_count() {
        let r = cloud_receptor();
        let params = Ad4Params::new();
        let probes = [AdType::C, AdType::OA, AdType::HD];
        let sp = GridSpec { center: Vec3::ZERO, npts: 13, spacing: 1.25 };
        let naive = oracle::build_ad4_grids(&r, sp, &probes, &params);
        for threads in [1, 2, 3, 5] {
            let fast = build_grids(&r, sp, &probes, GridKind::Ad4, threads);
            assert_gridsets_bit_identical(&naive, &fast);
        }
    }

    #[test]
    fn cell_list_vina_bit_identical_to_reference_any_thread_count() {
        let r = cloud_receptor();
        let params = VinaParams::default();
        let probes = [AdType::C, AdType::N];
        let sp = GridSpec { center: Vec3::ZERO, npts: 11, spacing: 1.5 };
        let naive = oracle::build_vina_grids(&r, sp, &probes, &params);
        for threads in [1, 2, 4] {
            let fast = build_grids(&r, sp, &probes, GridKind::Vina, threads);
            assert_gridsets_bit_identical(&naive, &fast);
        }
    }

    #[test]
    fn build_grids_is_each_kinds_build_with_default_parameters() {
        let r = cloud_receptor();
        let probes = [AdType::C, AdType::HD];
        let ad4 = build_ad4_grids(&r, spec(), &probes, &Ad4Params::new());
        let vina = build_vina_grids(&r, spec(), &probes, &VinaParams::default());
        for threads in [0, 1, 3] {
            assert_gridsets_bit_identical(
                &ad4,
                &build_grids(&r, spec(), &probes, GridKind::Ad4, threads),
            );
            assert_gridsets_bit_identical(
                &vina,
                &build_grids(&r, spec(), &probes, GridKind::Vina, threads),
            );
        }
    }

    #[test]
    fn thread_knob_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
        assert_eq!(planned_slabs(9, 4), 4);
        assert_eq!(planned_slabs(2, 8), 2); // never more chunks than slabs
    }

    #[test]
    fn gridset_reports_resident_bytes() {
        let r = tiny_receptor();
        let g = build_ad4_grids(&r, spec(), &[AdType::C], &Ad4Params::new());
        // one affinity + e + d map, 9³ points, 8 bytes each
        assert_eq!(g.bytes(), 3 * 9 * 9 * 9 * 8);
    }
}
