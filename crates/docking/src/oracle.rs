//! The naive computations every docking kernel is held to bit for bit,
//! compiled in test builds only, and the property tests that hold the
//! kernels to them:
//!
//! * [`Stencil`], with `GridSpec::stencil` and
//!   `GridMap::{sample, interpolate}`: trilinear interpolation through
//!   lattice indices, the second computation beside the shipped
//!   `FlatStencil`;
//! * [`build_ad4_grids`] and [`build_vina_grids`]: every receptor atom
//!   scanned at every lattice point;
//! * `EnergyModel::{intermolecular, intramolecular, total}_reference`: a
//!   per-atom map lookup through the `BTreeMap`, three interpolations per
//!   atom, and the full pair function per pair;
//! * [`DirectEnergy`]: the grid-free pose energy, the yardstick of the
//!   grids' interpolation error.
//!
//! `kernel_props` holds the cell-list grid build, the evaluation body and
//! the parallel search drivers to them on random receptors, ligands,
//! lattices and seeds; `vexp_props` calls both instantiations of each
//! kernel that runs `exp` in lanes directly.

use std::collections::BTreeMap;

use molkit::formats::pdbqt::PdbqtLigand;
use molkit::synth::{generate_ligand, generate_receptor, LigandParams, ReceptorParams};
use molkit::typer::{assign_ad_types, merge_nonpolar_hydrogens};
use molkit::{AdType, Molecule, Vec3};

use crate::autogrid::{GridKind, GridSet};
use crate::conformation::LigandModel;
use crate::energy::{EnergyModel, QSOLPAR};
use crate::grid::{GridMap, GridSpec, OUT_OF_BOX_PENALTY};
use crate::params::{type_index, Ad4Params, VinaParams};
use crate::scoring::{ad4_pair, ad4_vdw_hb, dielectric, vina_pair, COULOMB, CUTOFF, DESOLV_SIGMA};

mod kernel_props;
mod vexp_props;

/// A resolved interpolation location on a [`GridSpec`] lattice — the
/// map-independent half of a trilinear interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stencil {
    /// The point is outside the box: sampling yields [`OUT_OF_BOX_PENALTY`].
    Outside,
    /// The point sits exactly on an upper-face lattice point.
    Face(usize, usize, usize),
    /// An interior cell: its lower-corner lattice indices and the
    /// fractional offsets into it along each axis, in `[0, 1)`.
    Cell { i0: usize, j0: usize, k0: usize, fx: f64, fy: f64, fz: f64 },
}

impl GridSpec {
    /// The trilinear interpolation stencil for `p`.
    pub(crate) fn stencil(&self, p: Vec3) -> Stencil {
        let o = self.origin();
        let s = self.spacing;
        let n = self.npts;
        let gx = (p.x - o.x) / s;
        let gy = (p.y - o.y) / s;
        let gz = (p.z - o.z) / s;
        if gx < 0.0 || gy < 0.0 || gz < 0.0 {
            return Stencil::Outside;
        }
        let i0 = gx.floor() as usize;
        let j0 = gy.floor() as usize;
        let k0 = gz.floor() as usize;
        if i0 + 1 >= n || j0 + 1 >= n || k0 + 1 >= n {
            // on the upper face is fine only if exactly on the last point
            if i0 + 1 == n && (gx - i0 as f64).abs() < 1e-9
                || j0 + 1 == n && (gy - j0 as f64).abs() < 1e-9
                || k0 + 1 == n && (gz - k0 as f64).abs() < 1e-9
            {
                return Stencil::Face(i0.min(n - 1), j0.min(n - 1), k0.min(n - 1));
            }
            return Stencil::Outside;
        }
        Stencil::Cell { i0, j0, k0, fx: gx - i0 as f64, fy: gy - j0 as f64, fz: gz - k0 as f64 }
    }
}

impl GridMap {
    /// Build a map by evaluating `f` at every lattice point, in map order.
    pub(crate) fn from_fn(spec: GridSpec, mut f: impl FnMut(Vec3) -> f64) -> GridMap {
        let mut values = Vec::with_capacity(spec.len());
        for k in 0..spec.npts {
            for j in 0..spec.npts {
                for i in 0..spec.npts {
                    values.push(f(spec.point(i, j, k)));
                }
            }
        }
        GridMap::from_values(spec, values)
    }

    /// Value at a lattice point.
    pub(crate) fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        let n = self.spec.npts;
        self.values()[(k * n + j) * n + i]
    }

    /// Minimum value over the lattice.
    pub(crate) fn min_value(&self) -> f64 {
        self.values().iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Trilinearly interpolated value at an arbitrary point; points outside
    /// the box return [`OUT_OF_BOX_PENALTY`].
    pub(crate) fn interpolate(&self, p: Vec3) -> f64 {
        self.sample(&self.spec.stencil(p))
    }

    /// Sample the map through a [`Stencil`] of its own spec.
    pub(crate) fn sample(&self, st: &Stencil) -> f64 {
        match *st {
            Stencil::Outside => OUT_OF_BOX_PENALTY,
            Stencil::Face(i, j, k) => self.at(i, j, k),
            Stencil::Cell { i0, j0, k0, fx, fy, fz } => {
                let c000 = self.at(i0, j0, k0);
                let c100 = self.at(i0 + 1, j0, k0);
                let c010 = self.at(i0, j0 + 1, k0);
                let c110 = self.at(i0 + 1, j0 + 1, k0);
                let c001 = self.at(i0, j0, k0 + 1);
                let c101 = self.at(i0 + 1, j0, k0 + 1);
                let c011 = self.at(i0, j0 + 1, k0 + 1);
                let c111 = self.at(i0 + 1, j0 + 1, k0 + 1);
                let c00 = c000 + (c100 - c000) * fx;
                let c10 = c010 + (c110 - c010) * fx;
                let c01 = c001 + (c101 - c001) * fx;
                let c11 = c011 + (c111 - c011) * fx;
                let c0 = c00 + (c10 - c00) * fy;
                let c1 = c01 + (c11 - c01) * fy;
                c0 + (c1 - c0) * fz
            }
        }
    }
}

/// `kind`'s grid set from one value buffer per map: one affinity map per
/// probe type, then AD4's electrostatic and desolvation maps.
fn grid_set(
    kind: GridKind,
    spec: GridSpec,
    probe_types: &[AdType],
    bufs: Vec<Vec<f64>>,
) -> GridSet {
    let mut maps = bufs.into_iter().map(|buf| GridMap::from_values(spec, buf));
    let affinity: BTreeMap<AdType, GridMap> =
        probe_types.iter().map(|&t| (t, maps.next().expect("affinity map"))).collect();
    GridSet { kind, spec, affinity, electrostatic: maps.next(), desolvation: maps.next() }
}

/// AD4 grids built by scanning every receptor atom at every lattice point.
///
/// One pass over (lattice point × receptor atom) fills every map at once —
/// the distance computation dominates, so sharing it across maps is the
/// main optimization of real AutoGrid too.
pub(crate) fn build_ad4_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &Ad4Params,
) -> GridSet {
    let cutoff_sq = CUTOFF * CUTOFF;
    let mut bufs = vec![Vec::with_capacity(spec.len()); probe_types.len() + 2];
    for k in 0..spec.npts {
        for j in 0..spec.npts {
            for i in 0..spec.npts {
                let p = spec.point(i, j, k);
                let mut e_acc = 0.0;
                let mut d_acc = 0.0;
                // per-probe accumulators, same order as probe_types
                let mut aff = vec![0.0f64; probe_types.len()];
                for a in &receptor.atoms {
                    let d2 = a.pos.dist_sq(p);
                    if d2 > cutoff_sq {
                        continue;
                    }
                    let r = d2.sqrt().max(0.35);
                    e_acc += COULOMB * a.charge / (dielectric(r) * r);
                    d_acc += params.volume[type_index(a.ad_type)]
                        * (-d2 / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA)).exp();
                    for (ti, &t) in probe_types.iter().enumerate() {
                        aff[ti] += ad4_vdw_hb(params, t, a.ad_type, r);
                    }
                }
                for (buf, v) in bufs.iter_mut().zip(aff.into_iter().chain([e_acc, d_acc])) {
                    buf.push(v);
                }
            }
        }
    }
    grid_set(GridKind::Ad4, spec, probe_types, bufs)
}

/// Vina-style grids built by scanning every atom at every point: one folded
/// map per probe type.
pub(crate) fn build_vina_grids(
    receptor: &Molecule,
    spec: GridSpec,
    probe_types: &[AdType],
    params: &VinaParams,
) -> GridSet {
    let cutoff_sq = CUTOFF * CUTOFF;
    let mut bufs = vec![Vec::with_capacity(spec.len()); probe_types.len()];
    for k in 0..spec.npts {
        for j in 0..spec.npts {
            for i in 0..spec.npts {
                let p = spec.point(i, j, k);
                let mut aff = vec![0.0f64; probe_types.len()];
                for a in &receptor.atoms {
                    let d2 = a.pos.dist_sq(p);
                    if d2 > cutoff_sq {
                        continue;
                    }
                    let r = d2.sqrt();
                    for (ti, &t) in probe_types.iter().enumerate() {
                        aff[ti] += vina_pair(params, t, a.ad_type, r);
                    }
                }
                for (buf, v) in bufs.iter_mut().zip(aff) {
                    buf.push(v);
                }
            }
        }
    }
    grid_set(GridKind::Vina, spec, probe_types, bufs)
}

impl EnergyModel<'_> {
    /// Naive intermolecular evaluation: per-atom map lookup through the
    /// `BTreeMap` and three independent interpolations, exactly as the
    /// pre-optimization code did it.
    pub(crate) fn intermolecular_reference(&self, coords: &[Vec3]) -> f64 {
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

    /// Naive intramolecular evaluation: the full pair function per pair.
    pub(crate) fn intramolecular_reference(&self, coords: &[Vec3]) -> f64 {
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

    /// Naive total: reference intermolecular + reference intramolecular.
    pub(crate) fn total_reference(&self, coords: &[Vec3]) -> f64 {
        self.intermolecular_reference(coords) + self.intramolecular_reference(coords)
    }
}

/// Grid-free pose evaluation: direct pairwise sums over all
/// (ligand atom × receptor atom) pairs.
///
/// Exact (no interpolation error) but O(ligand × receptor) per evaluation
/// instead of O(ligand): AutoGrid exists because the grid path amortizes
/// the receptor loop across the whole search.
pub(crate) struct DirectEnergy {
    kind: GridKind,
    receptor: Molecule,
    ad4: Ad4Params,
    vina: VinaParams,
}

impl DirectEnergy {
    /// A direct evaluator over a prepared receptor.
    pub(crate) fn new(receptor: &Molecule, kind: GridKind) -> DirectEnergy {
        DirectEnergy {
            kind,
            receptor: receptor.clone(),
            ad4: Ad4Params::new(),
            vina: VinaParams::default(),
        }
    }

    /// Exact receptor–ligand interaction energy of world coordinates.
    pub(crate) fn intermolecular(&self, ligand: &LigandModel, coords: &[Vec3]) -> f64 {
        let cutoff_sq = CUTOFF * CUTOFF;
        let mut e = 0.0;
        for (i, &p) in coords.iter().enumerate() {
            let (lt, lq) = (ligand.types[i], ligand.charges[i]);
            for a in &self.receptor.atoms {
                let d2 = a.pos.dist_sq(p);
                if d2 > cutoff_sq {
                    continue;
                }
                let r = d2.sqrt();
                e += match self.kind {
                    GridKind::Ad4 => ad4_pair(&self.ad4, lt, a.ad_type, lq, a.charge, r),
                    GridKind::Vina => vina_pair(&self.vina, lt, a.ad_type, r),
                };
            }
        }
        e
    }
}

/// A synthetic receptor, typed and charged.
fn prepared_receptor(name: &str) -> Molecule {
    let mut r = generate_receptor(
        name,
        &ReceptorParams { min_residues: 20, max_residues: 35, hg_fraction: 0.0 },
    );
    assign_ad_types(&mut r);
    molkit::charges::assign_gasteiger(&mut r, &Default::default());
    r
}

/// A synthetic ligand, prepared the way activity 2 prepares one.
fn prepared_ligand(name: &str) -> PdbqtLigand {
    let mut l =
        generate_ligand(name, &LigandParams { min_heavy: 8, max_heavy: 14, hang_fraction: 0.0 });
    assign_ad_types(&mut l);
    molkit::charges::assign_gasteiger(&mut l, &Default::default());
    merge_nonpolar_hydrogens(&mut l);
    let tree = molkit::torsion::build_torsion_tree(&l);
    PdbqtLigand { mol: l, tree }
}
