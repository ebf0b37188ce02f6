//! AutoGrid: precompute receptor affinity maps (SciDock activity 5).
//!
//! For every atom type present in the ligand, a [`GridMap`] stores the
//! receptor's interaction energy with a probe atom of that type at each
//! lattice point. AD4 additionally uses an electrostatic map (per unit
//! charge) and a desolvation map. Vina-style grids fold everything a type
//! needs into a single map per type.
//!
//! Two kernels produce each grid set:
//!
//! * the production kernels ([`build_ad4_grids_threads`],
//!   [`build_vina_grids_threads`]) bin receptor atoms into a [`CellList`]
//!   once and visit only the cells within cutoff reach of each lattice
//!   point, optionally fanning contiguous z-slabs across scoped threads —
//!   the map layout is z-major, so each thread writes a disjoint contiguous
//!   chunk of every map;
//! * the naive kernels in [`mod@reference`] scan every atom for every point.
//!
//! Candidates from the cell list are iterated in ascending atom order and
//! rejected with the same cutoff test, so both kernels perform the same
//! floating-point operations in the same order: their outputs are
//! **bit-identical**, which the `kernel_props` property tests assert.

use std::collections::BTreeMap;

use molkit::{AdType, Molecule};

use crate::celllist::CellList;
use crate::grid::{GridMap, GridSpec};
use crate::params::{type_index, Ad4Params, VinaParams};
use crate::scoring::{
    ad4_vdw_hb, ad4_vdw_hb_pre, dielectric, vina_pair, COULOMB, CUTOFF, DESOLV_SIGMA,
};

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

/// Fill z-slabs `k0..k1` of the AD4 maps. `maps` is
/// `[affinity(probe_types[0]), …, electrostatic, desolvation]`, each slice
/// covering exactly this chunk's points in z-major layout.
#[allow(clippy::too_many_arguments)]
fn fill_ad4_chunk(
    spec: GridSpec,
    k0: usize,
    k1: usize,
    atoms: &ReceptorAtoms,
    cells: &CellList,
    probe_types: &[AdType],
    params: &Ad4Params,
    maps: &mut [&mut [f64]],
) {
    let npts = spec.npts;
    let nprobe = probe_types.len();
    let cutoff_sq = CUTOFF * CUTOFF;
    let reach = cells.reach(CUTOFF);
    let mut cand: Vec<u32> = Vec::new();
    let mut last_cell = [i64::MIN; 3];
    let mut aff = vec![0.0f64; nprobe];
    for k in k0..k1 {
        for j in 0..npts {
            for i in 0..npts {
                let p = spec.point(i, j, k);
                // consecutive points along i share a cell for ~cell/spacing
                // steps, so candidate gathering amortizes across points
                let cc = cells.coords(p);
                if cc != last_cell {
                    cells.gather(cc, reach, &mut cand);
                    last_cell = cc;
                }
                let mut e_acc = 0.0;
                let mut d_acc = 0.0;
                aff.iter_mut().for_each(|v| *v = 0.0);
                for &a in &cand {
                    let a = a as usize;
                    let d2 = atoms.pos[a].dist_sq(p);
                    if d2 > cutoff_sq {
                        continue;
                    }
                    let r = d2.sqrt().max(0.35);
                    e_acc += coulomb_term(atoms.charge[a], r);
                    d_acc += params.volume[type_index(atoms.ad_type[a])]
                        * (-d2 / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA)).exp();
                    // one set of distance powers serves every probe type
                    let (r6, r10) = (r.powi(6), r.powi(10));
                    let tb = atoms.ad_type[a];
                    for (ti, &t) in probe_types.iter().enumerate() {
                        aff[ti] += ad4_vdw_hb_pre(params, params.pair(t, tb), r, r6, r10);
                    }
                }
                let off = ((k - k0) * npts + j) * npts + i;
                for (ti, slice) in maps.iter_mut().take(nprobe).enumerate() {
                    slice[off] = aff[ti];
                }
                maps[nprobe][off] = e_acc;
                maps[nprobe + 1][off] = d_acc;
            }
        }
    }
}

/// Fill z-slabs `k0..k1` of the Vina maps (`maps[ti]` = probe type `ti`).
#[allow(clippy::too_many_arguments)]
fn fill_vina_chunk(
    spec: GridSpec,
    k0: usize,
    k1: usize,
    atoms: &ReceptorAtoms,
    cells: &CellList,
    probe_types: &[AdType],
    params: &VinaParams,
    maps: &mut [&mut [f64]],
) {
    let npts = spec.npts;
    let cutoff_sq = CUTOFF * CUTOFF;
    let reach = cells.reach(CUTOFF);
    let mut cand: Vec<u32> = Vec::new();
    let mut last_cell = [i64::MIN; 3];
    let mut aff = vec![0.0f64; probe_types.len()];
    for k in k0..k1 {
        for j in 0..npts {
            for i in 0..npts {
                let p = spec.point(i, j, k);
                let cc = cells.coords(p);
                if cc != last_cell {
                    cells.gather(cc, reach, &mut cand);
                    last_cell = cc;
                }
                aff.iter_mut().for_each(|v| *v = 0.0);
                for &a in &cand {
                    let a = a as usize;
                    let d2 = atoms.pos[a].dist_sq(p);
                    if d2 > cutoff_sq {
                        continue;
                    }
                    let r = d2.sqrt();
                    for (ti, &t) in probe_types.iter().enumerate() {
                        aff[ti] += vina_pair(params, t, atoms.ad_type[a], r);
                    }
                }
                let off = ((k - k0) * npts + j) * npts + i;
                for (ti, slice) in maps.iter_mut().enumerate() {
                    slice[off] = aff[ti];
                }
            }
        }
    }
}

/// Build AD4 grids for the given probe types (single-threaded).
///
/// Cell-list kernel; output is bit-identical to
/// [`reference::build_ad4_grids`]. Use [`build_ad4_grids_threads`] to fan
/// z-slabs across threads.
pub fn build_ad4_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
) -> GridSet {
    build_ad4_grids_threads(receptor, spec, probe_types, params, 1)
}

/// Build AD4 grids with the cell-list kernel, fanning contiguous z-slab
/// chunks across `threads` scoped threads (`0` = one per core).
///
/// The result does not depend on the thread count: every lattice point is
/// computed by exactly one thread with the same candidate order.
pub fn build_ad4_grids_threads(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
    threads: usize,
) -> GridSet {
    let atoms = ReceptorAtoms::from(receptor);
    let cells = CellList::build(&atoms.pos, CELL_EDGE);
    let nmaps = probe_types.len() + 2; // affinities + electrostatic + desolvation
    let mut bufs: Vec<Vec<f64>> = (0..nmaps).map(|_| vec![0.0; spec.len()]).collect();
    let bounds = slab_bounds(spec.npts, threads);
    {
        let mut per_chunk = partition_buffers(&mut bufs, &bounds, spec.npts * spec.npts);
        if per_chunk.len() == 1 {
            fill_ad4_chunk(
                spec,
                bounds[0],
                bounds[1],
                &atoms,
                &cells,
                probe_types,
                params,
                &mut per_chunk[0],
            );
        } else {
            std::thread::scope(|s| {
                for (c, maps) in per_chunk.iter_mut().enumerate() {
                    let (atoms, cells) = (&atoms, &cells);
                    let (k0, k1) = (bounds[c], bounds[c + 1]);
                    s.spawn(move || {
                        fill_ad4_chunk(spec, k0, k1, atoms, cells, probe_types, params, maps)
                    });
                }
            });
        }
    }
    let mut it = bufs.into_iter();
    let affinity: BTreeMap<AdType, GridMap> = probe_types
        .iter()
        .map(|&t| (t, GridMap::from_values(spec, it.next().expect("affinity buffer"))))
        .collect();
    let emap = GridMap::from_values(spec, it.next().expect("electrostatic buffer"));
    let dmap = GridMap::from_values(spec, it.next().expect("desolvation buffer"));
    GridSet {
        kind: GridKind::Ad4,
        spec,
        affinity,
        electrostatic: Some(emap),
        desolvation: Some(dmap),
    }
}

#[inline]
fn coulomb_term(q: f64, r: f64) -> f64 {
    COULOMB * q / (dielectric(r) * r)
}

/// Build Vina-style grids (single-threaded cell-list kernel); bit-identical
/// to [`reference::build_vina_grids`].
pub fn build_vina_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
) -> GridSet {
    build_vina_grids_threads(receptor, spec, probe_types, params, 1)
}

/// Build Vina-style grids with the cell-list kernel across `threads`
/// z-slab threads (`0` = one per core); thread count never changes the
/// output.
pub fn build_vina_grids_threads(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
    threads: usize,
) -> GridSet {
    let atoms = ReceptorAtoms::from(receptor);
    let cells = CellList::build(&atoms.pos, CELL_EDGE);
    let mut bufs: Vec<Vec<f64>> = (0..probe_types.len()).map(|_| vec![0.0; spec.len()]).collect();
    let bounds = slab_bounds(spec.npts, threads);
    {
        let mut per_chunk = partition_buffers(&mut bufs, &bounds, spec.npts * spec.npts);
        if per_chunk.len() == 1 {
            fill_vina_chunk(
                spec,
                bounds[0],
                bounds[1],
                &atoms,
                &cells,
                probe_types,
                params,
                &mut per_chunk[0],
            );
        } else {
            std::thread::scope(|s| {
                for (c, maps) in per_chunk.iter_mut().enumerate() {
                    let (atoms, cells) = (&atoms, &cells);
                    let (k0, k1) = (bounds[c], bounds[c + 1]);
                    s.spawn(move || {
                        fill_vina_chunk(spec, k0, k1, atoms, cells, probe_types, params, maps)
                    });
                }
            });
        }
    }
    let affinity: BTreeMap<AdType, GridMap> = probe_types
        .iter()
        .zip(bufs)
        .map(|(&t, buf)| (t, GridMap::from_values(spec, buf)))
        .collect();
    GridSet { kind: GridKind::Vina, spec, affinity, electrostatic: None, desolvation: None }
}

/// Naive O(points × atoms) grid builders, kept always-compiled as the
/// ground truth the optimized kernels are gated against (the property
/// tests in `kernel_props` assert bit-identical output).
pub mod reference {
    use super::*;

    /// Build AD4 grids by scanning every receptor atom at every lattice
    /// point.
    ///
    /// One pass over (lattice point × receptor atom) fills every map at
    /// once — the distance computation dominates, so sharing it across maps
    /// is the main optimization of real AutoGrid too.
    pub fn build_ad4_grids(
        receptor: &Molecule,
        spec: GridSpec,
        probe_types: &[AdType],
        params: &Ad4Params,
    ) -> GridSet {
        let atoms = ReceptorAtoms::from(receptor);
        let mut affinity: BTreeMap<AdType, GridMap> =
            probe_types.iter().map(|&t| (t, GridMap::zeros(spec))).collect();
        let mut emap = GridMap::zeros(spec);
        let mut dmap = GridMap::zeros(spec);
        let cutoff_sq = CUTOFF * CUTOFF;

        for k in 0..spec.npts {
            for j in 0..spec.npts {
                for i in 0..spec.npts {
                    let p = spec.point(i, j, k);
                    let mut e_acc = 0.0;
                    let mut d_acc = 0.0;
                    // per-probe accumulators, same order as probe_types
                    let mut aff = vec![0.0f64; probe_types.len()];
                    for a in 0..atoms.pos.len() {
                        let d2 = atoms.pos[a].dist_sq(p);
                        if d2 > cutoff_sq {
                            continue;
                        }
                        let r = d2.sqrt().max(0.35);
                        e_acc += coulomb_term(atoms.charge[a], r);
                        d_acc += params.volume[type_index(atoms.ad_type[a])]
                            * (-d2 / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA)).exp();
                        for (ti, &t) in probe_types.iter().enumerate() {
                            aff[ti] += ad4_vdw_hb(params, t, atoms.ad_type[a], r);
                        }
                    }
                    *emap.at_mut(i, j, k) = e_acc;
                    *dmap.at_mut(i, j, k) = d_acc;
                    for (ti, &t) in probe_types.iter().enumerate() {
                        *affinity.get_mut(&t).expect("probe map exists").at_mut(i, j, k) = aff[ti];
                    }
                }
            }
        }
        GridSet {
            kind: GridKind::Ad4,
            spec,
            affinity,
            electrostatic: Some(emap),
            desolvation: Some(dmap),
        }
    }

    /// Build Vina-style grids by scanning every atom at every point: one
    /// folded map per probe type.
    pub fn build_vina_grids(
        receptor: &Molecule,
        spec: GridSpec,
        probe_types: &[AdType],
        params: &VinaParams,
    ) -> GridSet {
        let atoms = ReceptorAtoms::from(receptor);
        let mut affinity: BTreeMap<AdType, GridMap> =
            probe_types.iter().map(|&t| (t, GridMap::zeros(spec))).collect();
        let cutoff_sq = CUTOFF * CUTOFF;

        for k in 0..spec.npts {
            for j in 0..spec.npts {
                for i in 0..spec.npts {
                    let p = spec.point(i, j, k);
                    let mut aff = vec![0.0f64; probe_types.len()];
                    for a in 0..atoms.pos.len() {
                        let d2 = atoms.pos[a].dist_sq(p);
                        if d2 > cutoff_sq {
                            continue;
                        }
                        let r = d2.sqrt();
                        for (ti, &t) in probe_types.iter().enumerate() {
                            aff[ti] += vina_pair(params, t, atoms.ad_type[a], r);
                        }
                    }
                    for (ti, &t) in probe_types.iter().enumerate() {
                        *affinity.get_mut(&t).expect("probe map exists").at_mut(i, j, k) = aff[ti];
                    }
                }
            }
        }
        GridSet { kind: GridKind::Vina, spec, affinity, electrostatic: None, desolvation: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let naive = reference::build_ad4_grids(&r, sp, &probes, &params);
        for threads in [1, 2, 3, 5] {
            let fast = build_ad4_grids_threads(&r, sp, &probes, &params, threads);
            assert_gridsets_bit_identical(&naive, &fast);
        }
    }

    #[test]
    fn cell_list_vina_bit_identical_to_reference_any_thread_count() {
        let r = cloud_receptor();
        let params = VinaParams::default();
        let probes = [AdType::C, AdType::N];
        let sp = GridSpec { center: Vec3::ZERO, npts: 11, spacing: 1.5 };
        let naive = reference::build_vina_grids(&r, sp, &probes, &params);
        for threads in [1, 2, 4] {
            let fast = build_vina_grids_threads(&r, sp, &probes, &params, threads);
            assert_gridsets_bit_identical(&naive, &fast);
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
