//! Geometric analysis: RMSD, superposition-free comparisons, pocket search.

use std::collections::HashMap;
use std::ops::Range;

use crate::molecule::Molecule;
use crate::vec3::Vec3;

/// Root-mean-square deviation between two conformations of the same atoms.
///
/// Positions are compared index-to-index with **no** superposition — this is
/// what docking programs report (the pose is in the receptor frame).
///
/// # Panics
/// Panics when the slices differ in length (a caller bug).
pub fn rmsd(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmsd: conformations differ in atom count");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(p, q)| p.dist_sq(*q)).sum();
    (sum / a.len() as f64).sqrt()
}

/// A detected binding pocket: a sphere centered at `center`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pocket {
    /// Center of the pocket sphere.
    pub center: Vec3,
    /// Probe radius used during detection.
    pub radius: f64,
    /// Number of receptor atoms lining the pocket (within 2×radius of center).
    pub lining_atoms: usize,
}

/// Spacing of the probe lattice (Å).
const STEP: f64 = 1.5;
/// A probe closer than this to any atom (Å) clashes and is no pocket.
const CLASH: f64 = 2.4;
/// Shell atoms a clash-free probe needs to be a pocket at all.
const MIN_LINING: u32 = 8;
/// Edge, in probes, of the lattice blocks the search allocates: only blocks
/// within a shell of some atom exist, so memory follows the atoms, not the
/// bounding box.
const BLOCK: usize = 16;
/// Edge, in probes, of the cells whose atoms a score sums over: a block
/// holds whole cells.
const CELL: usize = 4;
/// Longest lattice axis searched (2²⁰ probes: a box ≈ 157 µm long, which no
/// molecule is): past it the search answers `None` instead of allocating
/// the axis.
const MAX_AXIS: usize = 1 << 20;

/// Find the receptor's binding pocket.
///
/// Simplified pocket detection: scan a coarse grid over the receptor's
/// bounding box and score each point by *burial* — the number of receptor
/// atoms within a probe shell, plus the sum of their inverse distances,
/// requiring the point itself to be clash-free. The first best-buried
/// clash-free point in scan order (x, then y, then z) wins. Real receptors
/// from our generator have an explicit concave site, which this reliably
/// finds.
///
/// The search is exact but pruned: it returns the bits a probe × atom scan
/// returns (DESIGN.md §14, "The pocket search"). Shell counts are integers,
/// so they are taken per atom over the probes around it, in any order, one
/// contiguous z-span per probe row; only the probes whose count could
/// still reach the best score are scored in floating point, each summing
/// over the atoms near its cell in file order like the scan.
pub fn find_pocket(receptor: &Molecule, probe_radius: f64) -> Option<Pocket> {
    let (lo, hi) = receptor.bounding_box()?;
    let clash_sq = CLASH * CLASH;
    let shell_sq = probe_radius * probe_radius;
    if shell_sq.is_nan() || shell_sq <= clash_sq {
        // every shell atom would clash: no probe has a lining
        return None;
    }
    let axes = [axis(lo.x, hi.x)?, axis(lo.y, hi.y)?, axis(lo.z, hi.z)?];
    let probe = |at: [usize; 3]| Vec3::new(axes[0][at[0]], axes[1][at[1]], axes[2][at[2]]);

    // Each probe's shell and clash counts: each atom visits the probe rows
    // of its shell window, with d² computed as `Vec3::dist_sq` computes
    // it, and counts each row's z-spans
    let reach = shell_sq.sqrt();
    let mut lattice = Lattice::default();
    let mut column: Vec<usize> = Vec::new();
    let mut z = Column { dz2: Vec::new(), mid: 0, range: 0..0 };
    for (index, a) in receptor.atoms.iter().enumerate() {
        let p = a.pos;
        if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
            continue; // its d² is never below a bound
        }
        let [xr, yr, zr] = [
            window(&axes[0], p.x, reach),
            window(&axes[1], p.y, reach),
            window(&axes[2], p.z, reach),
        ];
        if xr.is_empty() || yr.is_empty() || zr.is_empty() {
            continue;
        }
        z.fill(&axes[2], p.z, zr);
        let bz0 = z.range.start / BLOCK;
        for bx in xr.start / BLOCK..=(xr.end - 1) / BLOCK {
            for by in yr.start / BLOCK..=(yr.end - 1) / BLOCK {
                column.clear();
                for bz in bz0..=(z.range.end - 1) / BLOCK {
                    column.push(lattice.block([bx, by, bz], index));
                }
                for i in clip(&xr, bx) {
                    let dx = p.x - axes[0][i];
                    let dx2 = dx * dx;
                    for j in clip(&yr, by) {
                        let dy = p.y - axes[1][j];
                        let dxy = dx2 + dy * dy;
                        if dxy >= shell_sq {
                            continue; // adding dz² never lowers it
                        }
                        lattice.mark(z.span(dxy, shell_sq), &column, bz0, [i, j], Shell::Near);
                        if dxy < clash_sq {
                            lattice.mark(z.span(dxy, clash_sq), &column, bz0, [i, j], Shell::Clash);
                        }
                    }
                }
            }
        }
    }
    for block in &mut lattice.blocks {
        block.settle();
    }

    // The scan's score: the count plus 1/d over the shell atoms, summed in
    // atom order; a probe's cell gather lists, ascending, every atom whose
    // window reaches the cell, so the others add nothing
    let mut cells = HashMap::new();
    let mut shell: Vec<f64> = Vec::new();
    let mut score = |at: [usize; 3], near: u32, b: usize| {
        let atoms = cell_atoms(&mut cells, at, &lattice.blocks[b].atoms, receptor, &axes, reach);
        let p = probe(at);
        // the shell atoms' d², in order, kept without a branch per atom
        shell.resize(atoms.len(), 0.0);
        let mut n = 0;
        for &a in atoms {
            let d2 = receptor.atoms[a as usize].pos.dist_sq(p);
            shell[n] = d2;
            n += (d2 < shell_sq) as usize;
        }
        let mut inv_dist_sum = 0.0f64;
        for d2 in &shell[..n] {
            inv_dist_sum += 1.0 / d2.sqrt();
        }
        near as f64 + inv_dist_sum
    };
    // Each of `near` terms is 1/d with d ≥ 2.4, so a score is at most
    // near·(1 + 1/2.4). Floating point exceeds that by a relative
    // (near + 5)·2⁻⁵³ at most (each term's square root and division, the
    // running sum, the final add); the margin (near + 8)·2⁻⁵² covers it
    // twice over, rounding of the bound's own arithmetic included.
    let bound = |near: u32| {
        let near = near as f64;
        near * (1.0 + 1.0 / CLASH) * (1.0 + (near + 8.0) * f64::EPSILON)
    };
    // The first probe with the highest count scores a floor under the
    // maximum; a probe whose bound is below it cannot be the maximum
    let mut first: Option<(u32, [usize; 3], usize)> = None;
    for (b, block) in lattice.blocks.iter().enumerate() {
        for (cell, &near) in block.near.iter().enumerate() {
            if near < MIN_LINING || block.clash[cell] > 0 {
                continue;
            }
            let before = |(m, f, _): (u32, [usize; 3], usize)| {
                near > m || near == m && block.probe(cell) < f
            };
            if first.is_none_or(before) {
                first = Some((near, block.probe(cell), b));
            }
        }
    }
    let (most, at, b) = first?;
    let floor = score(at, most, b);
    let mut survivors: Vec<([usize; 3], u32, usize)> = Vec::new();
    for (b, block) in lattice.blocks.iter().enumerate() {
        for (cell, &near) in block.near.iter().enumerate() {
            if near >= MIN_LINING && block.clash[cell] == 0 && bound(near) >= floor {
                survivors.push((block.probe(cell), near, b));
            }
        }
    }
    survivors.sort_unstable_by_key(|&(at, _, _)| at); // scan order

    let mut best: Option<(f64, [usize; 3], u32)> = None;
    for (at, near, b) in survivors {
        let s = score(at, near, b);
        if best.is_none_or(|(b, _, _)| s > b) {
            best = Some((s, at, near));
        }
    }
    best.map(|(_, at, near)| Pocket {
        center: probe(at),
        radius: probe_radius,
        lining_atoms: near as usize,
    })
}

/// A lattice axis from `lo` while `≤ hi`, each probe coordinate accumulated
/// by `+= STEP` as the scan walks it.
fn axis(lo: f64, hi: f64) -> Option<Vec<f64>> {
    if !(lo.is_finite() && hi.is_finite()) {
        return None;
    }
    let mut out = Vec::new();
    let mut c = lo;
    while c <= hi {
        if out.len() == MAX_AXIS {
            return None;
        }
        out.push(c);
        c += STEP;
    }
    Some(out)
}

/// The probes of `axis` within `reach` of `c`, widened by a relative 10⁻⁹:
/// a superset of every probe whose rounded squared difference is below
/// `reach²`, which the exact test then decides.
fn window(axis: &[f64], c: f64, reach: f64) -> Range<usize> {
    let reach = reach + 1e-9 * (reach + c.abs());
    axis.partition_point(|&x| x < c - reach)..axis.partition_point(|&x| x <= c + reach)
}

/// The part of `range` inside block `b` of its axis.
fn clip(range: &Range<usize>, b: usize) -> Range<usize> {
    range.start.max(b * BLOCK)..range.end.min((b + 1) * BLOCK)
}

/// The atoms of `block_atoms` (ascending) whose windows reach the cell of
/// `CELL³` probes around lattice index `at`, gathered into `cells` on the
/// first call for that cell: ascending, and a superset of the atoms within
/// `reach` of any of its probes. The test is [`window`]'s, asked whether
/// the window holds a probe of the cell's index range on every axis.
fn cell_atoms<'c>(
    cells: &'c mut HashMap<[usize; 3], Vec<u32>>,
    at: [usize; 3],
    block_atoms: &[u32],
    receptor: &Molecule,
    axes: &[Vec<f64>; 3],
    reach: f64,
) -> &'c [u32] {
    let key = at.map(|c| c / CELL);
    cells.entry(key).or_insert_with(|| {
        let reaches = |axis: &[f64], cell: usize, c: f64| {
            let (first, last) = (cell * CELL, ((cell + 1) * CELL).min(axis.len()) - 1);
            let reach = reach + 1e-9 * (reach + c.abs());
            axis[last] >= c - reach && axis[first] <= c + reach
        };
        let near = |&a: &u32| {
            let p = receptor.atoms[a as usize].pos;
            reaches(&axes[0], key[0], p.x)
                && reaches(&axes[1], key[1], p.y)
                && reaches(&axes[2], key[2], p.z)
        };
        block_atoms.iter().copied().filter(near).collect()
    })
}

/// The z-probes of one atom's window, with each probe's `dz²` to the atom:
/// `mid` is the first at or above the atom, so `dz²` falls (weakly) over
/// the probes below `mid` and rises over the rest — rounding is monotone —
/// and along any row the probes whose `d² = dxy + dz²` is under a bound
/// form one span.
struct Column {
    dz2: Vec<f64>,
    mid: usize,
    range: Range<usize>,
}

impl Column {
    /// Fill in the window `range` of axis `z` for an atom at height `c`.
    fn fill(&mut self, z: &[f64], c: f64, range: Range<usize>) {
        self.dz2.clear();
        self.dz2.extend(z[range.clone()].iter().map(|&z| {
            let dz = c - z;
            dz * dz
        }));
        self.mid = range.start + z[range.clone()].partition_point(|&z| z < c);
        self.range = range;
    }

    /// The probes of a row at `dxy` whose `d²` is below `bound`: as many
    /// below `mid` as pass the exact test there, and as many from `mid` on.
    #[inline]
    fn span(&self, dxy: f64, bound: f64) -> Range<usize> {
        let (below, above) = self.dz2.split_at(self.mid - self.range.start);
        let passes =
            |side: &[f64]| side.iter().map(|&dz2| (dxy + dz2 < bound) as usize).sum::<usize>();
        self.mid - passes(below)..self.mid + passes(above)
    }
}

/// The blocks of probes within a shell of some atom.
#[derive(Default)]
struct Lattice {
    blocks: Vec<Box<Block>>,
    index: HashMap<[usize; 3], usize>,
}

impl Lattice {
    /// The block at block coordinates `at`, made if new, with atom `atom`
    /// added to its list.
    fn block(&mut self, at: [usize; 3], atom: usize) -> usize {
        let blocks = &mut self.blocks;
        let b = *self.index.entry(at).or_insert_with(|| {
            blocks.push(Block::new(at));
            blocks.len() - 1
        });
        self.blocks[b].atoms.push(atom as u32);
        b
    }

    /// Count one more atom at the probes `span` of row `(i, j)`, whose
    /// z-blocks are `column` from block `bz0` on: in each block, `+1` at
    /// the span's first probe and `−1` past its last, which
    /// [`Block::settle`] sums along the row.
    #[inline]
    fn mark(
        &mut self,
        span: Range<usize>,
        column: &[usize],
        bz0: usize,
        [i, j]: [usize; 2],
        shell: Shell,
    ) {
        if span.is_empty() {
            return;
        }
        for bz in span.start / BLOCK..=(span.end - 1) / BLOCK {
            let block = &mut self.blocks[column[bz - bz0]];
            let counts = match shell {
                Shell::Near => &mut block.near,
                Shell::Clash => &mut block.clash,
            };
            let first = span.start.max(bz * BLOCK);
            let c = &mut counts[Block::cell(i, j, first)];
            *c = c.wrapping_add(1);
            if span.end < (bz + 1) * BLOCK {
                let c = &mut counts[Block::cell(i, j, span.end)];
                *c = c.wrapping_sub(1);
            }
        }
    }
}

/// Which count of a probe an atom's span adds to.
#[derive(Clone, Copy)]
enum Shell {
    /// Atoms within the probe shell.
    Near,
    /// Atoms within clash distance.
    Clash,
}

/// One block of lattice probes: each probe's shell count, how many atoms
/// clash with it, and the atoms whose windows reach it, ascending. While
/// atoms are counted the two counts hold differences along z.
struct Block {
    at: [usize; 3],
    near: [u32; BLOCK * BLOCK * BLOCK],
    clash: [u32; BLOCK * BLOCK * BLOCK],
    atoms: Vec<u32>,
}

impl Block {
    fn new(at: [usize; 3]) -> Box<Block> {
        Box::new(Block {
            at,
            near: [0; BLOCK * BLOCK * BLOCK],
            clash: [0; BLOCK * BLOCK * BLOCK],
            atoms: Vec::new(),
        })
    }

    /// Turn the differences along z into counts.
    fn settle(&mut self) {
        for counts in [&mut self.near, &mut self.clash] {
            for row in counts.chunks_exact_mut(BLOCK) {
                let mut sum = 0u32;
                for c in row {
                    sum = sum.wrapping_add(*c);
                    *c = sum;
                }
            }
        }
    }

    /// The offset of probe `(i, j, k)` in its block: consecutive along k.
    fn cell(i: usize, j: usize, k: usize) -> usize {
        (i % BLOCK * BLOCK + j % BLOCK) * BLOCK + k % BLOCK
    }

    /// The lattice indices of the probe at offset `cell`.
    fn probe(&self, cell: usize) -> [usize; 3] {
        let [bx, by, bz] = self.at;
        [
            bx * BLOCK + cell / (BLOCK * BLOCK),
            by * BLOCK + cell / BLOCK % BLOCK,
            bz * BLOCK + cell % BLOCK,
        ]
    }
}

/// The probe × atom scan [`find_pocket`] prunes, kept as its oracle: every
/// lattice probe against every atom, in scan order.
#[cfg(any(test, feature = "oracle"))]
pub fn find_pocket_reference(receptor: &Molecule, probe_radius: f64) -> Option<Pocket> {
    let (lo, hi) = receptor.bounding_box()?;
    let step = STEP;
    let clash_sq = CLASH * CLASH;
    let shell_sq = probe_radius * probe_radius;

    let mut best: Option<(f64, Vec3, usize)> = None;
    let mut p = lo;
    while p.x <= hi.x {
        p.y = lo.y;
        while p.y <= hi.y {
            p.z = lo.z;
            while p.z <= hi.z {
                let mut clash = false;
                let mut near = 0usize;
                let mut inv_dist_sum = 0.0f64;
                for a in &receptor.atoms {
                    let d2 = a.pos.dist_sq(p);
                    if d2 < clash_sq {
                        clash = true;
                        break;
                    }
                    if d2 < shell_sq {
                        near += 1;
                        inv_dist_sum += 1.0 / d2.sqrt();
                    }
                }
                if !clash && near >= MIN_LINING as usize {
                    let score = near as f64 + inv_dist_sum;
                    if best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, p, near));
                    }
                }
                p.z += step;
            }
            p.y += step;
        }
        p.x += step;
    }
    best.map(|(_, center, lining)| Pocket { center, radius: probe_radius, lining_atoms: lining })
}

/// Maximum pairwise distance between atoms ("diameter" of the molecule).
/// O(n²); intended for ligand-sized inputs.
pub fn diameter(mol: &Molecule) -> f64 {
    let mut best = 0.0f64;
    for i in 0..mol.atoms.len() {
        for j in (i + 1)..mol.atoms.len() {
            best = best.max(mol.atoms[i].pos.dist_sq(mol.atoms[j].pos));
        }
    }
    best.sqrt()
}

/// RMSD over heavy atoms only (hydrogens excluded), comparing `mol` against
/// an alternative coordinate set of the same atom order.
#[cfg(test)]
fn heavy_atom_rmsd(mol: &Molecule, other_pos: &[Vec3]) -> f64 {
    assert_eq!(other_pos.len(), mol.atoms.len(), "heavy_atom_rmsd: length mismatch");
    let pairs: Vec<(Vec3, Vec3)> = mol
        .atoms
        .iter()
        .zip(other_pos)
        .filter(|(a, _)| !a.is_hydrogen())
        .map(|(a, &p)| (a.pos, p))
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let sum: f64 = pairs.iter().map(|(p, q)| p.dist_sq(*q)).sum();
    (sum / pairs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::element::Element;

    #[test]
    fn rmsd_identity_is_zero() {
        let a = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        assert_eq!(rmsd(&a, &a), 0.0);
        assert_eq!(rmsd(&[], &[]), 0.0);
    }

    #[test]
    fn rmsd_uniform_translation() {
        let a = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let b: Vec<Vec3> = a.iter().map(|p| *p + Vec3::new(0.0, 3.0, 4.0)).collect();
        assert!((rmsd(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rmsd_symmetric() {
        let a = vec![Vec3::new(1.0, 1.0, 0.0), Vec3::new(2.0, 0.0, 1.0)];
        let b = vec![Vec3::new(0.0, 0.5, 0.0), Vec3::new(2.5, 1.0, 1.0)];
        assert!((rmsd(&a, &b) - rmsd(&b, &a)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "differ in atom count")]
    fn rmsd_length_mismatch_panics() {
        rmsd(&[Vec3::ZERO], &[]);
    }

    #[test]
    fn heavy_rmsd_ignores_hydrogens() {
        let mut m = Molecule::new("X");
        m.add_atom(Atom::new(1, "C", Element::C, Vec3::ZERO));
        m.add_atom(Atom::new(2, "H", Element::H, Vec3::new(1.0, 0.0, 0.0)));
        // hydrogen moved wildly, carbon unchanged -> heavy RMSD 0
        let other = vec![Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)];
        assert_eq!(heavy_atom_rmsd(&m, &other), 0.0);
    }

    #[test]
    fn diameter_of_segment() {
        let mut m = Molecule::new("D");
        m.add_atom(Atom::new(1, "C", Element::C, Vec3::ZERO));
        m.add_atom(Atom::new(2, "C", Element::C, Vec3::new(3.0, 4.0, 0.0)));
        assert!((diameter(&m) - 5.0).abs() < 1e-12);
        assert_eq!(diameter(&Molecule::new("E")), 0.0);
    }

    /// Hollow shell of atoms around an empty center: pocket must be inside.
    #[test]
    fn pocket_found_in_hollow_shell() {
        let mut m = Molecule::new("SHELL");
        let mut serial = 1;
        let n = 24;
        for i in 0..n {
            let theta = std::f64::consts::PI * (i as f64 + 0.5) / n as f64;
            for j in 0..n {
                let phi = std::f64::consts::TAU * j as f64 / n as f64;
                let r = 8.0;
                let p = Vec3::new(
                    r * theta.sin() * phi.cos(),
                    r * theta.sin() * phi.sin(),
                    r * theta.cos(),
                );
                m.add_atom(Atom::new(serial, "C", Element::C, p));
                serial += 1;
            }
        }
        let pocket = find_pocket(&m, 10.0).expect("pocket should exist");
        assert!(pocket.center.norm() < 4.0, "pocket near shell center, got {}", pocket.center);
        assert!(pocket.lining_atoms >= 8);
    }

    #[test]
    fn pocket_none_for_empty_receptor() {
        assert!(find_pocket(&Molecule::new("E"), 8.0).is_none());
        assert!(find_pocket_reference(&Molecule::new("E"), 8.0).is_none());
    }

    fn molecule(points: impl IntoIterator<Item = Vec3>) -> Molecule {
        let mut m = Molecule::new("M");
        for (i, p) in points.into_iter().enumerate() {
            m.add_atom(Atom::new(i as u32 + 1, "C", Element::C, p));
        }
        m
    }

    /// The pruned search returns the scan's pocket bit for bit.
    fn assert_matches_the_scan(m: &Molecule, probe_radius: f64) -> Option<Pocket> {
        let (got, want) = (find_pocket(m, probe_radius), find_pocket_reference(m, probe_radius));
        let bits = |p: Option<Pocket>| {
            p.map(|p| ([p.center.x, p.center.y, p.center.z].map(f64::to_bits), p.lining_atoms))
        };
        assert_eq!(bits(got), bits(want), "{} atoms, probe {probe_radius}", m.atoms.len());
        got
    }

    /// Whether some atom sits exactly at squared distance `bound` from some
    /// lattice probe of `m`'s box.
    fn has_a_tie_at(m: &Molecule, bound: f64) -> bool {
        let (lo, hi) = m.bounding_box().unwrap();
        let axes =
            [axis(lo.x, hi.x).unwrap(), axis(lo.y, hi.y).unwrap(), axis(lo.z, hi.z).unwrap()];
        axes[0].iter().any(|&x| {
            axes[1].iter().any(|&y| {
                axes[2]
                    .iter()
                    .any(|&z| m.atoms.iter().any(|a| a.pos.dist_sq(Vec3::new(x, y, z)) == bound))
            })
        })
    }

    #[test]
    fn atoms_exactly_at_the_shell_and_the_clash_distance_count_as_the_scan_counts() {
        // the cube's faces are 9 Å apart on lattice points, so probes on one
        // face see the atoms across it at d² = 81 exactly; three atoms
        // 2.4 Å from the centre probe along each axis sit at the clash
        // bound exactly (d² = 2.4² is the bound's own rounding), and on x
        // the row is at it before z is added
        let m = molecule(cube_shell(Vec3::ZERO).chain([
            Vec3::new(2.4, 0.0, 0.0),
            Vec3::new(0.0, 2.4, 0.0),
            Vec3::new(0.0, 0.0, 2.4),
        ]));
        assert!(has_a_tie_at(&m, 9.0 * 9.0) && has_a_tie_at(&m, CLASH * CLASH));
        let p = assert_matches_the_scan(&m, 9.0).expect("a pocket");
        assert_eq!(p.center, Vec3::ZERO, "a probe at the clash bound does not clash");
        // one more atom a hair inside the clash bound takes the centre away
        let mut closer = m.clone();
        let z = 2.4f64.next_down();
        closer.add_atom(Atom::new(999, "C", Element::C, Vec3::new(0.0, -z, 0.0)));
        assert_ne!(assert_matches_the_scan(&closer, 9.0).expect("a pocket").center, Vec3::ZERO);
        // radii whose shells pass exactly through lattice atoms
        for radius in [4.5, 6.0, 7.5, 9.0] {
            assert!(has_a_tie_at(&m, radius * radius), "{radius}");
            assert_matches_the_scan(&m, radius);
        }
    }

    #[test]
    fn probes_on_block_boundaries_match_the_scan() {
        // an anchor atom puts the lattice origin so that the site's centre
        // lands on lattice index `at` on every axis, and its best probe
        // beside it: the last probe of a block, the first of the next, and
        // ones inside
        let alone = assert_matches_the_scan(&molecule(cube_shell(Vec3::ZERO)), 9.0).unwrap();
        for at in [15usize, 16, 17, 32, 33] {
            let centre = Vec3::splat(1.5 * at as f64);
            let m = molecule(std::iter::once(Vec3::ZERO).chain(cube_shell(centre)));
            let p = assert_matches_the_scan(&m, 9.0).expect("a pocket");
            assert_eq!(p.center, alone.center + centre, "index {at}");
        }
        // a long cloud: z-spans cross the blocks at 16 and 32 in every row
        let m = molecule((0..400).map(|i| {
            let t = i as f64;
            Vec3::new((t * 0.37).sin() * 7.0, (t * 0.23).cos() * 7.0, t * 0.15)
        }));
        for radius in [6.5, 9.0, 12.0] {
            assert_matches_the_scan(&m, radius);
        }
    }

    #[test]
    fn a_cells_gather_holds_every_shell_atom_of_its_probes_in_file_order() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(45);
        for case in 0..12 {
            let spread: f64 = rng.gen_range(3.0..12.0);
            let m = molecule((0..rng.gen_range(20..120)).map(|_| {
                Vec3::new(
                    rng.gen_range(-spread..spread),
                    rng.gen_range(-spread..spread),
                    rng.gen_range(-spread..spread) - 7.0,
                )
            }));
            let reach = [4.0, 6.5, 9.0][case % 3];
            let (lo, hi) = m.bounding_box().unwrap();
            let axes =
                [axis(lo.x, hi.x).unwrap(), axis(lo.y, hi.y).unwrap(), axis(lo.z, hi.z).unwrap()];
            let all: Vec<u32> = (0..m.atoms.len() as u32).collect();
            let mut cells = HashMap::new();
            for (i, &x) in axes[0].iter().enumerate() {
                for (j, &y) in axes[1].iter().enumerate() {
                    for (k, &z) in axes[2].iter().enumerate() {
                        let p = Vec3::new(x, y, z);
                        let got =
                            cell_atoms(&mut cells, [i, j, k], &all, &m, &axes, reach).to_vec();
                        assert!(got.windows(2).all(|w| w[0] < w[1]));
                        for (a, atom) in m.atoms.iter().enumerate() {
                            if atom.pos.dist_sq(p) < reach * reach {
                                assert!(got.contains(&(a as u32)), "case {case}: atom {a} at {p}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pocket_none_when_no_probe_has_eight_shell_atoms() {
        // seven atoms spread along a line: no clash-free probe sees eight
        let m = molecule((0..7).map(|i| Vec3::new(3.1 * i as f64, 0.4, -0.2)));
        assert!(assert_matches_the_scan(&m, 9.0).is_none());
        // … and a radius whose shell lies inside the clash sphere has none
        let shell = molecule((0..24).map(|i| {
            let t = std::f64::consts::TAU * i as f64 / 24.0;
            Vec3::new(6.0 * t.cos(), 6.0 * t.sin(), 0.0)
        }));
        assert!(assert_matches_the_scan(&shell, 9.0).is_some());
        assert!(assert_matches_the_scan(&shell, 2.0).is_none());
    }

    #[test]
    fn pocket_none_when_every_probe_clashes() {
        // atoms on every integer point of a cube: each probe is < 0.9 Å
        // from one
        let m = molecule(
            (0..343).map(|i| Vec3::new((i / 49) as f64, (i / 7 % 7) as f64, (i % 7) as f64)),
        );
        assert!(assert_matches_the_scan(&m, 9.0).is_none());
    }

    /// Atoms on the lattice points (multiples of 1.5 Å) of a cube's surface,
    /// centred at `center`: every distance to a probe is exact.
    fn cube_shell(center: Vec3) -> impl Iterator<Item = Vec3> {
        (0..7 * 7 * 7).filter_map(move |i| {
            let (x, y, z) = (i / 49, i / 7 % 7, i % 7);
            let surface = [x, y, z].iter().any(|&c| c == 0 || c == 6);
            surface
                .then(|| center + Vec3::new(x as f64 - 3.0, y as f64 - 3.0, z as f64 - 3.0) * 1.5)
        })
    }

    #[test]
    fn of_two_equal_best_scores_the_first_probe_wins() {
        // two identical sites 30 Å apart on x, the second listed after the
        // first: their best probes score the same bits
        let far = Vec3::new(30.0, 0.0, 0.0);
        let both = molecule(cube_shell(Vec3::ZERO).chain(cube_shell(far)));
        let first = assert_matches_the_scan(&both, 9.0).expect("a pocket");
        let second = assert_matches_the_scan(&molecule(cube_shell(far)), 9.0).expect("a pocket");
        let alone = assert_matches_the_scan(&molecule(cube_shell(Vec3::ZERO)), 9.0).unwrap();
        assert_eq!(second.center, alone.center + far, "the sites tie");
        assert_eq!(first.center, alone.center, "the first in scan order wins");
        assert_eq!(first.lining_atoms, 218);
    }

    #[test]
    fn pruned_search_matches_the_scan_on_generated_receptors() {
        use crate::synth::{generate_receptor, ReceptorParams};
        let p = ReceptorParams { min_residues: 30, max_residues: 90, hg_fraction: 0.0 };
        for id in ["1AEC", "2ACT", "3BC3", "9PAP", "1HUC", "2HHN"] {
            let m = generate_receptor(id, &p);
            for radius in [8.0, 9.0, 10.0] {
                assert!(assert_matches_the_scan(&m, radius).is_some(), "{id} at {radius}");
            }
        }
    }

    #[test]
    fn pruned_search_matches_the_scan_on_random_clouds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let mut found = 0;
        for case in 0..40 {
            let n = rng.gen_range(1..160);
            let spread: f64 = rng.gen_range(2.0..14.0);
            let m = molecule((0..n).map(|_| {
                Vec3::new(
                    rng.gen_range(-spread..spread),
                    rng.gen_range(-spread..spread),
                    rng.gen_range(-spread..spread) + 40.0,
                )
            }));
            let radius = [4.0, 6.5, 9.0][case % 3];
            found += assert_matches_the_scan(&m, radius).is_some() as usize;
        }
        assert!((10..40).contains(&found), "{found} of 40 clouds have a pocket");
    }

    #[test]
    fn pocket_none_for_a_box_with_no_end() {
        let m = molecule([Vec3::ZERO, Vec3::new(f64::INFINITY, 0.0, 0.0)]);
        assert!(find_pocket(&m, 9.0).is_none());
        // … or one longer than the longest axis searched, at once
        let m = molecule([Vec3::ZERO, Vec3::new(1.5 * MAX_AXIS as f64, 0.0, 0.0)]);
        assert!(find_pocket(&m, 9.0).is_none());
    }
}
