//! Uniform spatial binning (cell lists) for the grid-build inner loop.
//!
//! [`build_ad4_grids`](crate::autogrid::build_ad4_grids) has to answer the
//! same question at every lattice point: *which receptor atoms are within
//! [`CUTOFF`](crate::scoring::CUTOFF) of this point?* Scanning every atom
//! for every point is O(npts³ × atoms). A [`CellList`] bins the
//! atoms once into cubic cells and answers the question by visiting only the
//! cells that can intersect the cutoff sphere, turning the per-point cost
//! into O(local density).
//!
//! The list is stored in CSR (compressed sparse row) form: one flat `atoms`
//! array of atom indices grouped by cell, plus a `starts` offset table. Atom
//! indices inside each cell are **ascending**, and [`CellList::gather`]
//! marks the atoms of the cells it visits in a bitset over atom indices
//! and reads them back in bit order, so the candidate sequence it returns
//! is ascending by atom index — exactly the order a
//! scan of every atom visits them in. Downstream accumulation over
//! candidates is therefore bit-identical to that scan, the crate's test
//! oracle (the cutoff test rejects the same atoms, and floating-point
//! summation order is preserved).

use molkit::Vec3;

/// What [`CellList::gather`] returns, and the bitset it orders them with.
#[derive(Debug, Clone, Default)]
pub struct Gather {
    /// The gathered atom indices, ascending.
    pub atoms: Vec<u32>,
    /// One bit per atom index; all clear between calls.
    marks: Vec<u64>,
}

/// Atoms binned into a uniform grid of cubic cells, CSR layout.
#[derive(Debug, Clone)]
pub struct CellList {
    /// Lower corner of cell (0, 0, 0).
    origin: Vec3,
    /// Cell edge length in Å.
    cell: f64,
    /// Number of cells along x, y, z.
    dims: [usize; 3],
    /// CSR offsets: atoms of cell `c` are `atoms[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Atom indices grouped by cell, ascending within each cell.
    atoms: Vec<u32>,
}

impl CellList {
    /// Bin `pos` into cubic cells of edge `cell` (Å).
    ///
    /// The cell grid tightly covers the bounding box of the positions; query
    /// points may lie anywhere (outside coordinates simply intersect fewer —
    /// possibly zero — cells).
    pub fn build(pos: &[Vec3], cell: f64) -> CellList {
        assert!(cell > 0.0, "cell edge must be positive");
        if pos.is_empty() {
            return CellList {
                origin: Vec3::ZERO,
                cell,
                dims: [1, 1, 1],
                starts: vec![0, 0],
                atoms: Vec::new(),
            };
        }
        let mut lo = pos[0];
        let mut hi = pos[0];
        for p in &pos[1..] {
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            lo.z = lo.z.min(p.z);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
            hi.z = hi.z.max(p.z);
        }
        let dim = |l: f64, h: f64| (((h - l) / cell).floor() as usize) + 1;
        let dims = [dim(lo.x, hi.x), dim(lo.y, hi.y), dim(lo.z, hi.z)];
        let ncells = dims[0] * dims[1] * dims[2];

        let index_of = |p: &Vec3| -> usize {
            let cx = (((p.x - lo.x) / cell).floor() as usize).min(dims[0] - 1);
            let cy = (((p.y - lo.y) / cell).floor() as usize).min(dims[1] - 1);
            let cz = (((p.z - lo.z) / cell).floor() as usize).min(dims[2] - 1);
            (cz * dims[1] + cy) * dims[0] + cx
        };

        // counting sort: a first pass counts, a second (in atom-index order)
        // places — which leaves each cell's slice ascending by construction
        let mut starts = vec![0u32; ncells + 1];
        for p in pos {
            starts[index_of(p) + 1] += 1;
        }
        for c in 0..ncells {
            starts[c + 1] += starts[c];
        }
        let mut cursor: Vec<u32> = starts[..ncells].to_vec();
        let mut atoms = vec![0u32; pos.len()];
        for (a, p) in pos.iter().enumerate() {
            let c = index_of(p);
            atoms[cursor[c] as usize] = a as u32;
            cursor[c] += 1;
        }
        CellList { origin: lo, cell, dims, starts, atoms }
    }

    /// Cell coordinates of an arbitrary point (unclamped; may be negative or
    /// past `dims` for points outside the atom bounding box).
    #[inline]
    pub fn coords(&self, p: Vec3) -> [i64; 3] {
        [
            ((p.x - self.origin.x) / self.cell).floor() as i64,
            ((p.y - self.origin.y) / self.cell).floor() as i64,
            ((p.z - self.origin.z) / self.cell).floor() as i64,
        ]
    }

    /// Number of whole cells a sphere of radius `cutoff` can reach past the
    /// query point's own cell in each direction.
    #[inline]
    pub fn reach(&self, cutoff: f64) -> i64 {
        (cutoff / self.cell).ceil() as i64
    }

    /// Collect into `out.atoms` (cleared first) every atom index whose cell
    /// lies within `reach` cells of `c` in each dimension, ascending.
    ///
    /// This is a superset of the atoms within `reach × cell` of any point in
    /// cell `c`; callers apply their exact cutoff test per atom.
    pub fn gather(&self, c: [i64; 3], reach: i64, out: &mut Gather) {
        out.atoms.clear();
        out.marks.resize(self.atoms.len().div_ceil(64), 0);
        let clamp = |lo: i64, d: usize| -> (usize, usize) {
            let a = (lo).clamp(0, d as i64) as usize;
            let b = (lo + 2 * reach + 1).clamp(0, d as i64) as usize;
            (a, b)
        };
        let (x0, x1) = clamp(c[0] - reach, self.dims[0]);
        let (y0, y1) = clamp(c[1] - reach, self.dims[1]);
        let (z0, z1) = clamp(c[2] - reach, self.dims[2]);
        // cells are visited z-major, so their concatenation is not in
        // order; ascending order is what makes downstream summation
        // bit-identical to the naive 0..natoms scan, so the atoms are
        // marked in a bitset and read back word by word
        let (mut first, mut last) = (usize::MAX, 0);
        for cz in z0..z1 {
            for cy in y0..y1 {
                let row = (cz * self.dims[1] + cy) * self.dims[0];
                let lo = self.starts[row + x0] as usize;
                let hi = self.starts[row + x1] as usize;
                for &a in &self.atoms[lo..hi] {
                    let w = a as usize / 64;
                    out.marks[w] |= 1 << (a % 64);
                    (first, last) = (first.min(w), last.max(w));
                }
            }
        }
        for w in first..last.wrapping_add(1) {
            let mut bits = std::mem::take(&mut out.marks[w]);
            while bits != 0 {
                out.atoms.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Number of binned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when no atoms were binned.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cloud(n: usize, seed: u64, edge: f64) -> Vec<Vec3> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-edge..edge),
                    rng.gen_range(-edge..edge),
                    rng.gen_range(-edge..edge),
                )
            })
            .collect()
    }

    /// Brute-force the within-cutoff set and check gather returns a sorted
    /// superset that, after the exact cutoff filter, matches it.
    #[test]
    fn gather_is_sorted_superset_of_cutoff_sphere() {
        let pos = cloud(200, 7, 15.0);
        let cutoff = 8.0;
        let cl = CellList::build(&pos, cutoff / 2.0);
        let reach = cl.reach(cutoff);
        let mut out = Gather::default();
        for probe in cloud(40, 8, 18.0) {
            cl.gather(cl.coords(probe), reach, &mut out);
            assert!(out.atoms.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
            assert!(out.marks.iter().all(|&w| w == 0), "the bitset is left clear");
            let filtered: Vec<u32> = out
                .atoms
                .iter()
                .copied()
                .filter(|&a| pos[a as usize].dist_sq(probe) <= cutoff * cutoff)
                .collect();
            let brute: Vec<u32> = (0..pos.len() as u32)
                .filter(|&a| pos[a as usize].dist_sq(probe) <= cutoff * cutoff)
                .collect();
            assert_eq!(filtered, brute);
        }
    }

    #[test]
    fn every_atom_lands_in_exactly_one_cell() {
        let pos = cloud(120, 3, 10.0);
        let cl = CellList::build(&pos, 4.0);
        assert_eq!(cl.len(), pos.len());
        let mut all: Vec<u32> = cl.atoms.clone();
        all.sort_unstable();
        assert_eq!(all, (0..pos.len() as u32).collect::<Vec<_>>());
        assert_eq!(*cl.starts.last().unwrap() as usize, pos.len());
    }

    #[test]
    fn empty_input_gathers_nothing() {
        let cl = CellList::build(&[], 4.0);
        assert!(cl.is_empty());
        let mut out = Gather { atoms: vec![1, 2, 3], marks: Vec::new() };
        cl.gather(cl.coords(Vec3::new(5.0, -2.0, 0.1)), cl.reach(8.0), &mut out);
        assert!(out.atoms.is_empty());
    }

    #[test]
    fn far_away_point_gathers_nothing() {
        let pos = cloud(50, 11, 5.0);
        let cl = CellList::build(&pos, 4.0);
        let mut out = Gather::default();
        cl.gather(cl.coords(Vec3::new(1e4, 1e4, 1e4)), cl.reach(8.0), &mut out);
        assert!(out.atoms.is_empty());
    }
}
