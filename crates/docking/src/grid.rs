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

    /// Resolve fractional lattice coordinates (already divided by spacing,
    /// relative to the origin) into a [`FlatStencil`]: the map-independent
    /// half of a trilinear interpolation, with the cell base folded into a
    /// single row-major index, so every map on this lattice is sampled
    /// through the one stencil ([`sample_flat`]).
    ///
    /// A point below the origin on any axis is outside. A point whose cell
    /// would reach past the last lattice point on some axis is outside,
    /// unless it lies within `1e-9` of the upper face on an axis that
    /// reached it: then it reads one lattice point.
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

/// A resolved interpolation location on a [`GridSpec`] lattice, its
/// lattice indices flattened to row-major offsets, for sampling raw value
/// slices without per-corner index arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FlatStencil {
    /// The point is outside the box: sampling yields [`OUT_OF_BOX_PENALTY`].
    Outside,
    /// On an upper-face lattice point: sampling reads this flat index.
    Point(usize),
    /// An interior cell.
    Cell {
        /// Flat row-major index of the cell's lower corner.
        base: usize,
        /// Fractional offsets into the cell along each axis, in `[0, 1)`.
        fx: f64,
        /// See `fx`.
        fy: f64,
        /// See `fx`.
        fz: f64,
    },
}

/// Sample a raw value slice through a [`FlatStencil`]: the trilinear
/// interpolation, as a chain of lerps along x, then y, then z.
///
/// `sy`/`sz` are the row-major strides for +1 in j and k (`npts` and
/// `npts²`).
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
    /// Wrap a pre-filled value buffer (row-major, `spec.len()` entries).
    ///
    /// Used by the parallel grid builders, which fill per-slab chunks of a
    /// plain buffer across threads and only then assemble the map.
    pub fn from_values(spec: GridSpec, values: Vec<f64>) -> GridMap {
        assert_eq!(values.len(), spec.len(), "value buffer does not match the lattice");
        GridMap { spec, values }
    }

    /// Raw value storage (for serialization into map files).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> GridSpec {
        GridSpec { center: Vec3::ZERO, npts: 5, spacing: 1.0 }
    }

    /// `g` at `p` through the shipped path: the energy kernel's lattice
    /// coordinates, one [`FlatStencil`], [`sample_flat`].
    fn sample(g: &GridMap, p: Vec3) -> f64 {
        let s = g.spec;
        let o = s.origin();
        let st = s.flat_stencil(
            (p.x - o.x) / s.spacing,
            (p.y - o.y) / s.spacing,
            (p.z - o.z) / s.spacing,
        );
        sample_flat(g.values(), &st, s.npts, s.npts * s.npts)
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
                    assert!((sample(&g, p) - want).abs() < 1e-9);
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
            assert!((sample(&g, p) - want).abs() < 1e-9, "at {p}");
        }
    }

    #[test]
    fn out_of_box_penalized() {
        let g = GridMap::from_fn(spec(), |_| 0.0);
        assert_eq!(sample(&g, Vec3::new(5.0, 0.0, 0.0)), OUT_OF_BOX_PENALTY);
        assert_eq!(sample(&g, Vec3::new(0.0, 0.0, -9.0)), OUT_OF_BOX_PENALTY);
    }

    #[test]
    fn interpolation_bounded_by_cell_corners() {
        let g = GridMap::from_fn(spec(), |p| (p.x * 1.7).sin() + (p.y - p.z).cos());
        // any interior point's interpolated value lies within [min, max] of the map
        let lo = g.values().iter().copied().fold(f64::INFINITY, f64::min);
        let hi = g.values().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in [Vec3::new(0.33, 0.77, -1.2), Vec3::new(-0.5, 1.99, 1.99)] {
            let v = sample(&g, p);
            assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }

    #[test]
    fn the_upper_face_reads_its_lattice_point_and_past_it_is_outside() {
        let g = GridMap::from_fn(spec(), |p| 100.0 * p.x + 10.0 * p.y + p.z);
        assert_eq!(sample(&g, Vec3::splat(2.0)), g.at(4, 4, 4));
        // (0.5, -0.25, 1.0) lies in the cell with lower corner (2, 1, 3)
        let inside = [0.5, -0.25, 1.0];
        for axis in 0..3 {
            let at = |d: f64| {
                let mut p = inside;
                p[axis] = 2.0 + d;
                sample(&g, Vec3::new(p[0], p[1], p[2]))
            };
            // on the face or within 1e-9 past it: the lattice point on the
            // face that the other two axes' floors select, not interpolated
            let mut ijk = [2, 1, 3];
            ijk[axis] = 4;
            for d in [0.0, 5e-10] {
                assert_eq!(at(d), g.at(ijk[0], ijk[1], ijk[2]), "axis {axis} at {d}");
            }
            // just inside it: the last cell; further past it: outside
            assert_ne!(at(-5e-10), OUT_OF_BOX_PENALTY, "axis {axis}");
            for d in [1e-6, 0.5] {
                assert_eq!(at(d), OUT_OF_BOX_PENALTY, "axis {axis} at {d}");
            }
        }
        assert_eq!(sample(&g, Vec3::new(-2.0 - 1e-12, 0.0, 0.0)), OUT_OF_BOX_PENALTY);
    }

    #[test]
    fn from_values_is_row_major() {
        let s = spec();
        let g = GridMap::from_values(s, (0..s.len()).map(|v| v as f64).collect());
        assert_eq!(g.at(1, 2, 3), ((3 * 5 + 2) * 5 + 1) as f64);
        assert_eq!(g.min_value(), 0.0);
        assert_eq!(sample(&g, s.point(4, 0, 1)), g.at(4, 0, 1));
    }

    #[test]
    #[should_panic(expected = "value buffer does not match the lattice")]
    fn from_values_refuses_a_buffer_of_the_wrong_length() {
        GridMap::from_values(spec(), vec![0.0; 124]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn grid_interpolation_within_data_bounds(values in prop::collection::vec(-10.0..10.0f64, 27),
                                                 px in -0.99..0.99f64,
                                                 py in -0.99..0.99f64,
                                                 pz in -0.99..0.99f64) {
            // 3×3×3 grid over [-1,1]^3
            let spec = GridSpec { center: Vec3::ZERO, npts: 3, spacing: 1.0 };
            let g = GridMap::from_values(spec, values.clone());
            let v = g.interpolate(Vec3::new(px, py, pz));
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo},{hi}]");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shipped interpolation against the test-only `Stencil`
        /// oracle, bit for bit, on a random lattice of random values, at
        /// random points of every kind on each axis: inside the box, on
        /// the lower or the upper face, within 1e-9 of the upper face, and
        /// just outside either face.
        #[test]
        fn flat_stencil_sampling_bit_identical_to_stencil(npts in 2usize..9,
                                                          spacing in 0.2..2.0f64,
                                                          c in -40.0..40.0f64,
                                                          seed in 0u64..1 << 32) {
            let spec = GridSpec { center: Vec3::new(c, -0.5 * c, 0.25 * c), npts, spacing };
            let mut x = seed;
            let mut unit = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let g = GridMap::from_fn(spec, |_| unit() * 20.0 - 10.0);
            let (o, edge) = (spec.origin(), spec.edge());
            let mut on_axis = |kind: usize, lo: f64| {
                let (u, hi) = (unit(), lo + edge);
                match kind {
                    0 => lo + u * edge,
                    1 => lo,
                    2 => hi,
                    3 => hi + (u - 0.5) * 1.98e-9,
                    4 => hi + (1e-9 + u * 0.5) * spacing,
                    _ => lo - (1e-9 + u * 0.5) * spacing,
                }
            };
            for kinds in 0..6 * 6 * 6 {
                let (kx, ky, kz) = (kinds % 6, kinds / 6 % 6, kinds / 36);
                let p = Vec3::new(on_axis(kx, o.x), on_axis(ky, o.y), on_axis(kz, o.z));
                let want = g.sample(&spec.stencil(p));
                prop_assert_eq!(want.to_bits(), sample(&g, p).to_bits(), "at {}", p);
            }
        }
    }
}
