//! Affinity grid maps and trilinear interpolation (AutoGrid's data model).

use molkit::Vec3;

/// Geometry of a grid box: `npts³` lattice points spaced `spacing` Å apart,
/// centered on `center`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Center of the box.
    pub center: Vec3,
    /// Points per axis (AutoGrid convention: an even number of *intervals*,
    /// so npts is odd; we only require npts ≥ 2).
    pub npts: usize,
    /// Lattice spacing in Å.
    pub spacing: f64,
}

impl GridSpec {
    /// A spec centered at `center` whose box edge is at least `edge` Å.
    pub fn with_edge(center: Vec3, edge: f64, spacing: f64) -> GridSpec {
        let npts = (edge / spacing).ceil() as usize + 1;
        GridSpec { center, npts: npts.max(2), spacing }
    }

    /// Minimum (corner) coordinate of the box.
    pub fn origin(&self) -> Vec3 {
        let half = self.spacing * (self.npts - 1) as f64 * 0.5;
        self.center - Vec3::splat(half)
    }

    /// Box edge length in Å.
    pub fn edge(&self) -> f64 {
        self.spacing * (self.npts - 1) as f64
    }

    /// Is `p` inside the box (with a small safety margin)?
    pub fn contains(&self, p: Vec3) -> bool {
        let o = self.origin();
        let e = self.edge();
        p.x >= o.x && p.y >= o.y && p.z >= o.z && p.x <= o.x + e && p.y <= o.y + e && p.z <= o.z + e
    }

    /// Coordinate of lattice point (i, j, k).
    pub fn point(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.origin()
            + Vec3::new(i as f64 * self.spacing, j as f64 * self.spacing, k as f64 * self.spacing)
    }

    /// Total number of lattice points.
    pub fn len(&self) -> usize {
        self.npts * self.npts * self.npts
    }

    /// True when the grid holds no points (never for a valid spec).
    pub fn is_empty(&self) -> bool {
        self.npts == 0
    }

    /// Precompute the trilinear interpolation stencil for `p`.
    ///
    /// Every map sharing this spec can be sampled through the same stencil
    /// ([`GridMap::sample`]), so the cell-base computation is paid once per
    /// point instead of once per map. The arithmetic is identical to
    /// [`GridMap::interpolate`] (which is implemented on top of this), so
    /// sampling through a stencil is bit-identical to direct interpolation.
    pub fn stencil(&self, p: Vec3) -> Stencil {
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

impl GridSpec {
    /// Resolve fractional lattice coordinates (already divided by spacing,
    /// relative to the origin) into a [`FlatStencil`].
    ///
    /// This is the classification half of [`GridSpec::stencil`] operating on
    /// precomputed `g = (p - origin) / spacing` lanes, with the cell base
    /// folded into a single row-major index. The branch structure and
    /// arithmetic are identical to `stencil`, so
    /// `sample_flat(map.values(), &flat, sy, sz)` is bit-identical to
    /// `map.sample(&spec.stencil(p))` for matching inputs — the SoA energy
    /// kernel depends on that.
    #[inline(always)]
    pub(crate) fn flat_stencil(&self, gx: f64, gy: f64, gz: f64) -> FlatStencil {
        let n = self.npts;
        if gx < 0.0 || gy < 0.0 || gz < 0.0 {
            return FlatStencil::Outside;
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
                let (i, j, k) = (i0.min(n - 1), j0.min(n - 1), k0.min(n - 1));
                return FlatStencil::Point((k * n + j) * n + i);
            }
            return FlatStencil::Outside;
        }
        FlatStencil::Cell {
            base: (k0 * n + j0) * n + i0,
            fx: gx - i0 as f64,
            fy: gy - j0 as f64,
            fz: gz - k0 as f64,
        }
    }
}

/// A [`Stencil`] with the lattice indices pre-flattened to row-major offsets,
/// for sampling raw value slices without per-corner index arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FlatStencil {
    /// The point is outside the box: sampling yields [`OUT_OF_BOX_PENALTY`].
    Outside,
    /// Exactly on a lattice point: sampling reads this flat index.
    Point(usize),
    /// An interior cell.
    Cell {
        /// Flat row-major index of the cell's lower corner.
        base: usize,
        /// Fractional offsets into the cell, as in [`Stencil::Cell`].
        fx: f64,
        /// See `fx`.
        fy: f64,
        /// See `fx`.
        fz: f64,
    },
}

/// Sample a raw value slice through a [`FlatStencil`].
///
/// `sy`/`sz` are the row-major strides for +1 in j and k (`npts` and
/// `npts²`). The lerp chain is a verbatim copy of [`GridMap::sample`], so
/// the result is bit-identical to sampling through the map for the same
/// point.
#[inline(always)]
pub(crate) fn sample_flat(v: &[f64], st: &FlatStencil, sy: usize, sz: usize) -> f64 {
    match *st {
        FlatStencil::Outside => OUT_OF_BOX_PENALTY,
        FlatStencil::Point(ix) => v[ix],
        FlatStencil::Cell { base, fx, fy, fz } => {
            let c000 = v[base];
            let c100 = v[base + 1];
            let c010 = v[base + sy];
            let c110 = v[base + sy + 1];
            let c001 = v[base + sz];
            let c101 = v[base + sz + 1];
            let c011 = v[base + sy + sz];
            let c111 = v[base + sy + sz + 1];
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

/// A resolved interpolation location on a [`GridSpec`] lattice — the
/// map-independent half of a trilinear interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stencil {
    /// The point is outside the box: sampling yields [`OUT_OF_BOX_PENALTY`].
    Outside,
    /// The point sits exactly on an upper-face lattice point.
    Face(usize, usize, usize),
    /// An interior cell with fractional offsets into it.
    Cell {
        /// Lower-corner lattice indices of the cell.
        i0: usize,
        /// See `i0`.
        j0: usize,
        /// See `i0`.
        k0: usize,
        /// Fractional offsets into the cell along each axis, in `[0, 1)`.
        fx: f64,
        /// See `fx`.
        fy: f64,
        /// See `fx`.
        fz: f64,
    },
}

/// One scalar field sampled on a [`GridSpec`] lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct GridMap {
    /// Geometry of the lattice.
    pub spec: GridSpec,
    /// Row-major values: index = (k * npts + j) * npts + i.
    values: Vec<f64>,
}

/// Energy returned for points outside the grid box — a large penalty that
/// keeps poses inside during search.
pub const OUT_OF_BOX_PENALTY: f64 = 1.0e6;

impl GridMap {
    /// Allocate a zero-filled map.
    pub fn zeros(spec: GridSpec) -> GridMap {
        GridMap { spec, values: vec![0.0; spec.len()] }
    }

    /// Wrap a pre-filled value buffer (row-major, `spec.len()` entries).
    ///
    /// Used by the parallel grid builders, which fill per-slab chunks of a
    /// plain buffer across threads and only then assemble the map.
    pub fn from_values(spec: GridSpec, values: Vec<f64>) -> GridMap {
        assert_eq!(values.len(), spec.len(), "value buffer does not match the lattice");
        GridMap { spec, values }
    }

    /// Build a map by evaluating `f` at every lattice point.
    pub fn from_fn(spec: GridSpec, mut f: impl FnMut(Vec3) -> f64) -> GridMap {
        let mut values = Vec::with_capacity(spec.len());
        for k in 0..spec.npts {
            for j in 0..spec.npts {
                for i in 0..spec.npts {
                    values.push(f(spec.point(i, j, k)));
                }
            }
        }
        GridMap { spec, values }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.spec.npts + j) * self.spec.npts + i
    }

    /// Value at a lattice point.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.values[self.idx(i, j, k)]
    }

    /// Mutable value at a lattice point.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut f64 {
        let ix = self.idx(i, j, k);
        &mut self.values[ix]
    }

    /// Trilinearly interpolated value at an arbitrary point.
    ///
    /// Points outside the box return [`OUT_OF_BOX_PENALTY`].
    pub fn interpolate(&self, p: Vec3) -> f64 {
        self.sample(&self.spec.stencil(p))
    }

    /// Sample the map through a precomputed [`Stencil`].
    ///
    /// The stencil must come from this map's own spec (or an identical one).
    /// `sample(&spec.stencil(p))` is bit-identical to `interpolate(p)`; the
    /// split lets the energy loop evaluate several co-located maps while
    /// computing the cell base and fractional weights only once.
    #[inline]
    pub fn sample(&self, st: &Stencil) -> f64 {
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

    /// Minimum value over the lattice.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Raw value storage (for serialization into map files).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec { center: Vec3::ZERO, npts: 5, spacing: 1.0 }
    }

    #[test]
    fn spec_geometry() {
        let s = spec();
        assert_eq!(s.edge(), 4.0);
        assert_eq!(s.origin(), Vec3::new(-2.0, -2.0, -2.0));
        assert_eq!(s.point(0, 0, 0), s.origin());
        assert_eq!(s.point(4, 4, 4), Vec3::new(2.0, 2.0, 2.0));
        assert_eq!(s.len(), 125);
        assert!(!s.is_empty());
    }

    #[test]
    fn with_edge_covers_requested_size() {
        let s = GridSpec::with_edge(Vec3::ZERO, 10.0, 0.375);
        assert!(s.edge() >= 10.0);
        assert!(s.edge() < 10.0 + 2.0 * 0.375);
    }

    #[test]
    fn contains_checks_bounds() {
        let s = spec();
        assert!(s.contains(Vec3::ZERO));
        assert!(s.contains(Vec3::new(2.0, 2.0, 2.0)));
        assert!(!s.contains(Vec3::new(2.1, 0.0, 0.0)));
        assert!(!s.contains(Vec3::new(0.0, -2.1, 0.0)));
    }

    #[test]
    fn interpolation_exact_at_lattice_points() {
        let g = GridMap::from_fn(spec(), |p| p.x + 2.0 * p.y - p.z);
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    let p = g.spec.point(i, j, k);
                    let want = p.x + 2.0 * p.y - p.z;
                    assert!((g.interpolate(p) - want).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn interpolation_linear_functions_exact_everywhere() {
        // trilinear interpolation reproduces affine functions exactly
        let g = GridMap::from_fn(spec(), |p| 3.0 * p.x - p.y + 0.5 * p.z + 7.0);
        for p in [Vec3::new(0.25, -0.75, 1.3), Vec3::new(-1.9, 1.9, 0.0), Vec3::new(0.1, 0.2, 0.3)]
        {
            let want = 3.0 * p.x - p.y + 0.5 * p.z + 7.0;
            assert!((g.interpolate(p) - want).abs() < 1e-9, "at {p}");
        }
    }

    #[test]
    fn out_of_box_penalized() {
        let g = GridMap::zeros(spec());
        assert_eq!(g.interpolate(Vec3::new(5.0, 0.0, 0.0)), OUT_OF_BOX_PENALTY);
        assert_eq!(g.interpolate(Vec3::new(0.0, 0.0, -9.0)), OUT_OF_BOX_PENALTY);
    }

    #[test]
    fn interpolation_bounded_by_cell_corners() {
        let g = GridMap::from_fn(spec(), |p| (p.x * 1.7).sin() + (p.y - p.z).cos());
        // any interior point's interpolated value lies within [min, max] of the map
        let lo = g.values().iter().copied().fold(f64::INFINITY, f64::min);
        let hi = g.values().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in [Vec3::new(0.33, 0.77, -1.2), Vec3::new(-0.5, 1.99, 1.99)] {
            let v = g.interpolate(p);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }

    #[test]
    fn flat_stencil_sampling_bit_identical_to_stencil() {
        let g = GridMap::from_fn(spec(), |p| (p.x * 1.7).sin() + (p.y - p.z).cos());
        let s = g.spec;
        let o = s.origin();
        let (sy, sz) = (s.npts, s.npts * s.npts);
        for p in [
            Vec3::new(0.33, 0.77, -1.2),
            Vec3::new(2.0, 2.0, 2.0),    // exact upper corner
            Vec3::new(-2.0, -2.0, -2.0), // exact lower corner
            Vec3::new(5.0, 0.0, 0.0),    // outside
            Vec3::new(0.0, 0.0, -9.0),   // outside (negative)
            Vec3::new(1.9999999999, -0.3, 0.4),
        ] {
            let via_stencil = g.sample(&s.stencil(p));
            let fs = s.flat_stencil(
                (p.x - o.x) / s.spacing,
                (p.y - o.y) / s.spacing,
                (p.z - o.z) / s.spacing,
            );
            let via_flat = sample_flat(g.values(), &fs, sy, sz);
            assert_eq!(via_stencil.to_bits(), via_flat.to_bits(), "at {p}");
        }
    }

    #[test]
    fn min_value_and_mutation() {
        let mut g = GridMap::zeros(spec());
        *g.at_mut(2, 2, 2) = -5.0;
        assert_eq!(g.min_value(), -5.0);
        assert_eq!(g.at(2, 2, 2), -5.0);
        assert_eq!(g.at(0, 0, 0), 0.0);
    }
}
