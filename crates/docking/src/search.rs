//! Search algorithms: Solis–Wets local search, the Lamarckian genetic
//! algorithm (AutoDock 4), and Monte-Carlo iterated local search (Vina).
//!
//! All searches are deterministic given their RNG and count every energy
//! evaluation, so experiments can report reproducible work done.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use molkit::{Quat, Vec3};

use crate::conformation::{LigandModel, Pose};
use crate::energy::{EnergyModel, Scratch};
use crate::grid::GridSpec;

/// A pose with its evaluated energy.
#[derive(Debug, Clone)]
pub struct ScoredPose {
    /// The pose.
    pub pose: Pose,
    /// Its total (inter + intra) energy.
    pub energy: f64,
}

/// Shared evaluation context: counts energy evaluations.
///
/// It owns the scratch one evaluation works in (the posed coordinates and
/// the pair lanes), sized for its model once, so [`Evaluator::energy`] and
/// `Evaluator::energy_batch` allocate nothing. One per search run: the
/// model is shared, the scratch is not.
pub struct Evaluator<'a> {
    /// The energy model being evaluated.
    pub model: &'a EnergyModel<'a>,
    /// Energy evaluations performed so far.
    pub evals: u64,
    scratch: Scratch,
}

impl<'a> Evaluator<'a> {
    /// Wrap an energy model with a zeroed evaluation counter.
    pub fn new(model: &'a EnergyModel<'a>) -> Evaluator<'a> {
        Evaluator { model, evals: 0, scratch: model.scratch() }
    }

    /// Energy of a pose (counts one evaluation): one kernel dispatch that
    /// applies the pose and scores it.
    pub fn energy(&mut self, pose: &Pose) -> f64 {
        let mut out = [0.0];
        self.score(std::slice::from_ref(pose), &mut out);
        out[0]
    }

    /// Score a whole batch of poses in one kernel dispatch (counts one
    /// evaluation per pose), writing per-pose totals into `out`.
    ///
    /// Each `out[i]` is bit-identical to [`energy`](Evaluator::energy) of
    /// `poses[i]` for every batch size.
    pub(crate) fn energy_batch(&mut self, poses: &[Pose], out: &mut Vec<f64>) {
        out.clear();
        out.resize(poses.len(), 0.0);
        self.score(poses, out);
    }

    fn score(&mut self, poses: &[Pose], out: &mut [f64]) {
        self.evals += poses.len() as u64;
        self.model.score_poses(poses, &mut self.scratch, out)
    }
}

/// Perturb `pose` by a gene-space delta — 3 translation components, a
/// 3-component rotation vector (axis×angle), then torsion deltas — into
/// `out`, which must have as many torsions as `pose`.
fn apply_delta(pose: &Pose, delta: &[f64], out: &mut Pose) {
    debug_assert_eq!(delta.len(), 6 + pose.torsions.len());
    debug_assert_eq!(out.torsions.len(), pose.torsions.len());
    out.translation = pose.translation + Vec3::new(delta[0], delta[1], delta[2]);
    let rv = Vec3::new(delta[3], delta[4], delta[5]);
    let angle = rv.norm();
    out.orientation = if angle > 1e-12 {
        (Quat::from_axis_angle(rv, angle) * pose.orientation).normalized()
    } else {
        pose.orientation
    };
    for ((t, a), d) in out.torsions.iter_mut().zip(&pose.torsions).zip(&delta[6..]) {
        *t = a + d;
    }
}

/// A uniformly random pose inside the grid box (with margin).
pub(crate) fn random_pose(spec: &GridSpec, n_torsions: usize, rng: &mut ChaCha8Rng) -> Pose {
    let margin = 2.0;
    let half = (spec.edge() * 0.5 - margin).max(0.5);
    let t = spec.center
        + Vec3::new(
            rng.gen_range(-half..half),
            rng.gen_range(-half..half),
            rng.gen_range(-half..half),
        );
    let orientation = Quat::from_uniform_samples(rng.gen(), rng.gen(), rng.gen());
    let torsions = (0..n_torsions)
        .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
        .collect();
    Pose { translation: t, orientation, torsions }
}

/// Solis–Wets configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolisWetsConfig {
    /// Maximum iterations.
    pub max_iters: usize,
    /// Initial step scale (Å for translation; radians for angles).
    pub rho: f64,
    /// Lower bound on the step scale — search stops below it.
    pub rho_min: f64,
    /// Successes in a row before expanding rho.
    pub expand_after: usize,
    /// Failures in a row before contracting rho.
    pub contract_after: usize,
}

impl Default for SolisWetsConfig {
    fn default() -> Self {
        SolisWetsConfig {
            max_iters: 60,
            rho: 1.0,
            rho_min: 0.01,
            expand_after: 4,
            contract_after: 4,
        }
    }
}

/// Solis–Wets adaptive random local search.
///
/// Classic scheme: sample a Gaussian step plus a momentum bias; on success
/// keep it and reinforce the bias, on failure try the opposite direction;
/// adapt the step size by recent success rate.
pub fn solis_wets(
    ev: &mut Evaluator<'_>,
    start: ScoredPose,
    cfg: &SolisWetsConfig,
    rng: &mut ChaCha8Rng,
) -> ScoredPose {
    let dim = 6 + start.pose.torsions.len();
    let mut best = start;
    let mut bias = vec![0.0f64; dim];
    // one step, negated in place for the reflected try, and one candidate
    // that trades places with `best` on a success
    let mut step = vec![0.0f64; dim];
    let mut cand = best.pose.clone();
    let mut rho = cfg.rho;
    let mut successes = 0usize;
    let mut failures = 0usize;

    for _ in 0..cfg.max_iters {
        if rho < cfg.rho_min {
            break;
        }
        for (s, b) in step.iter_mut().zip(&bias) {
            *s = b + rho * gauss(rng);
        }
        apply_delta(&best.pose, &step, &mut cand);
        let e = ev.energy(&cand);
        if e < best.energy {
            std::mem::swap(&mut best.pose, &mut cand);
            best.energy = e;
            for (b, s) in bias.iter_mut().zip(&step) {
                *b = 0.4 * *b + 0.2 * s;
            }
            successes += 1;
            failures = 0;
        } else {
            // try the reflected step
            for s in &mut step {
                *s = -*s;
            }
            apply_delta(&best.pose, &step, &mut cand);
            let e2 = ev.energy(&cand);
            if e2 < best.energy {
                std::mem::swap(&mut best.pose, &mut cand);
                best.energy = e2;
                for (b, s) in bias.iter_mut().zip(&step) {
                    *b -= 0.4 * s;
                }
                successes += 1;
                failures = 0;
            } else {
                bias.iter_mut().for_each(|b| *b *= 0.5);
                failures += 1;
                successes = 0;
            }
        }
        if successes >= cfg.expand_after {
            rho *= 2.0;
            successes = 0;
        } else if failures >= cfg.contract_after {
            rho *= 0.5;
            failures = 0;
        }
    }
    best
}

#[inline]
fn gauss(rng: &mut ChaCha8Rng) -> f64 {
    // Box–Muller; two uniforms per call (simple and deterministic)
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Lamarckian GA configuration (AutoDock 4's global search).
#[derive(Debug, Clone, Copy)]
pub struct LgaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-individual probability of local search each generation.
    pub local_search_rate: f64,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Crossover probability per mating.
    pub crossover_rate: f64,
    /// Elitism: best `elite` individuals survive unchanged.
    pub elite: usize,
    /// Local-search parameters for the Lamarckian refinement.
    pub solis_wets: SolisWetsConfig,
}

impl Default for LgaConfig {
    fn default() -> Self {
        LgaConfig {
            population: 24,
            generations: 30,
            local_search_rate: 0.25,
            mutation_rate: 0.15,
            crossover_rate: 0.8,
            elite: 1,
            solis_wets: SolisWetsConfig { max_iters: 30, ..Default::default() },
        }
    }
}

/// Run the Lamarckian genetic algorithm; returns the best pose found.
///
/// Scoring goes through [`Evaluator::energy_batch`]: the initial population
/// is generated first and scored in one call, and within each generation
/// children accumulate in a pending batch that is flushed whenever a child
/// wins the local-search draw (its Solis–Wets refinement must run before the
/// next child's selection draws) and at generation end. Energy evaluation
/// consumes no RNG, so deferring the scores leaves the RNG stream — and
/// therefore every pose and energy — bit-identical to the pose-at-a-time
/// loop, for every batch size the draws happen to produce.
fn run_lga(
    ev: &mut Evaluator<'_>,
    spec: &GridSpec,
    ligand: &LigandModel,
    cfg: &LgaConfig,
    rng: &mut ChaCha8Rng,
) -> ScoredPose {
    let n_tors = ligand.torsdof();
    let init: Vec<Pose> = (0..cfg.population).map(|_| random_pose(spec, n_tors, rng)).collect();
    let mut energies: Vec<f64> = Vec::with_capacity(cfg.population);
    ev.energy_batch(&init, &mut energies);
    let mut pop: Vec<ScoredPose> = init
        .into_iter()
        .zip(energies.iter().copied())
        .map(|(pose, energy)| ScoredPose { pose, energy })
        .collect();
    pop.sort_by(|a, b| a.energy.total_cmp(&b.energy));

    let mut pending: Vec<Pose> = Vec::with_capacity(cfg.population);
    let mut pending_ls: Vec<bool> = Vec::with_capacity(cfg.population);
    for _gen in 0..cfg.generations {
        let mut next: Vec<ScoredPose> = pop.iter().take(cfg.elite).cloned().collect();
        while next.len() + pending.len() < cfg.population {
            let pa = tournament(&pop, rng);
            let pb = tournament(&pop, rng);
            let mut child_pose = if rng.gen_bool(cfg.crossover_rate) {
                crossover(&pop[pa].pose, &pop[pb].pose, rng)
            } else {
                pop[pa].pose.clone()
            };
            mutate(&mut child_pose, cfg.mutation_rate, spec, rng);
            let ls = rng.gen_bool(cfg.local_search_rate);
            pending.push(child_pose);
            pending_ls.push(ls);
            if ls {
                // Lamarckian: the refined genotype replaces the child, and
                // its local search draws from the RNG — flush the batch so
                // the refinement starts from this child's scored energy at
                // the same stream position as the unbatched loop.
                flush_pending(
                    ev,
                    cfg,
                    &mut pending,
                    &mut pending_ls,
                    &mut energies,
                    &mut next,
                    rng,
                );
            }
        }
        flush_pending(ev, cfg, &mut pending, &mut pending_ls, &mut energies, &mut next, rng);
        next.sort_by(|a, b| a.energy.total_cmp(&b.energy));
        pop = next;
    }
    pop.into_iter().next().expect("population is never empty")
}

/// Batch-score the pending children and append them to `next`, running the
/// Lamarckian local search on the (at most one, final) child that drew it.
fn flush_pending(
    ev: &mut Evaluator<'_>,
    cfg: &LgaConfig,
    pending: &mut Vec<Pose>,
    pending_ls: &mut Vec<bool>,
    energies: &mut Vec<f64>,
    next: &mut Vec<ScoredPose>,
    rng: &mut ChaCha8Rng,
) {
    if pending.is_empty() {
        return;
    }
    ev.energy_batch(pending, energies);
    for (i, pose) in pending.drain(..).enumerate() {
        let mut child = ScoredPose { pose, energy: energies[i] };
        if pending_ls[i] {
            child = solis_wets(ev, child, &cfg.solis_wets, rng);
        }
        next.push(child);
    }
    pending_ls.clear();
}

fn tournament(pop: &[ScoredPose], rng: &mut ChaCha8Rng) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    if pop[a].energy <= pop[b].energy {
        a
    } else {
        b
    }
}

fn crossover(a: &Pose, b: &Pose, rng: &mut ChaCha8Rng) -> Pose {
    // gene-group crossover: translation from one parent, orientation from
    // the other, torsions gene-by-gene
    let (t, o) = if rng.gen_bool(0.5) {
        (a.translation, b.orientation)
    } else {
        (b.translation, a.orientation)
    };
    let torsions = a
        .torsions
        .iter()
        .zip(&b.torsions)
        .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
        .collect();
    Pose { translation: t, orientation: o, torsions }
}

fn mutate(pose: &mut Pose, rate: f64, spec: &GridSpec, rng: &mut ChaCha8Rng) {
    if rng.gen_bool(rate) {
        pose.translation += Vec3::new(gauss(rng), gauss(rng), gauss(rng)) * (spec.edge() * 0.05);
    }
    if rng.gen_bool(rate) {
        let axis = Vec3::new(gauss(rng), gauss(rng), gauss(rng));
        pose.orientation =
            (Quat::from_axis_angle(axis, gauss(rng) * 0.5) * pose.orientation).normalized();
    }
    for t in pose.torsions.iter_mut() {
        if rng.gen_bool(rate) {
            *t += gauss(rng) * 0.5;
        }
    }
}

/// Monte-Carlo iterated-local-search configuration (Vina's global search).
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Independent restarts ("exhaustiveness").
    pub restarts: usize,
    /// MC steps per restart.
    pub steps: usize,
    /// Metropolis temperature (kcal/mol).
    pub temperature: f64,
    /// Local-search parameters used after each perturbation.
    pub solis_wets: SolisWetsConfig,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            restarts: 6,
            steps: 25,
            temperature: 1.2,
            solis_wets: SolisWetsConfig { max_iters: 25, ..Default::default() },
        }
    }
}

/// One MC restart: random start, local refinement, then `steps` rounds of
/// perturbation + refinement with Metropolis acceptance.
///
/// Every score feeds the next proposal (Metropolis), so the chain is
/// inherently sequential: it evaluates through [`Evaluator::energy`], which
/// is the batch kernel at width 1, bit-identical.
fn mc_restart(
    ev: &mut Evaluator<'_>,
    spec: &GridSpec,
    ligand: &LigandModel,
    cfg: &McConfig,
    rng: &mut ChaCha8Rng,
) -> ScoredPose {
    let n_tors = ligand.torsdof();
    let pose = random_pose(spec, n_tors, rng);
    let energy = ev.energy(&pose);
    let mut current = solis_wets(ev, ScoredPose { pose, energy }, &cfg.solis_wets, rng);
    let mut best = current.clone();
    for _ in 0..cfg.steps {
        // large perturbation then local refinement
        let dim = 6 + n_tors;
        let step: Vec<f64> = (0..dim).map(|_| gauss(rng) * 1.5).collect();
        let mut cand_pose = current.pose.clone();
        apply_delta(&current.pose, &step, &mut cand_pose);
        let e = ev.energy(&cand_pose);
        let cand = solis_wets(ev, ScoredPose { pose: cand_pose, energy: e }, &cfg.solis_wets, rng);
        let accept = cand.energy < current.energy
            || rng.gen_bool(
                (-(cand.energy - current.energy) / cfg.temperature).exp().clamp(0.0, 1.0),
            );
        if accept {
            current = cand;
        }
        if current.energy < best.energy {
            best = current.clone();
        }
    }
    best
}

/// Run `n` independently seeded work items in order and return their
/// results plus the summed evaluation count.
///
/// Item `i` gets its own `ChaCha8Rng::seed_from_u64(seed + i)` stream and
/// its own [`Evaluator`]: no RNG state is shared between items.
fn run_indexed<F>(em: &EnergyModel<'_>, seed: u64, n: usize, f: F) -> (Vec<ScoredPose>, u64)
where
    F: Fn(&mut Evaluator<'_>, &mut ChaCha8Rng) -> ScoredPose,
{
    use rand::SeedableRng;
    let mut evals = 0u64;
    let out = (0..n)
        .map(|i| {
            let mut ev = Evaluator::new(em);
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
            let sp = f(&mut ev, &mut rng);
            evals += ev.evals;
            sp
        })
        .collect();
    (out, evals)
}

/// Run `runs` independent LGA runs, run `i` seeded `seed + i`.
///
/// Returns the per-run best poses **in run order** (unsorted) plus the total
/// evaluation count.
pub fn run_lga_seeded(
    em: &EnergyModel<'_>,
    spec: &GridSpec,
    ligand: &LigandModel,
    cfg: &LgaConfig,
    seed: u64,
    runs: usize,
) -> (Vec<ScoredPose>, u64) {
    run_indexed(em, seed, runs, |ev, rng| run_lga(ev, spec, ligand, cfg, rng))
}

/// Run `cfg.restarts` MC restarts, restart `r` seeded `seed + r`.
///
/// Returns the per-restart best poses sorted best-first (Vina's "modes")
/// plus the total evaluation count.
pub fn run_mc_seeded(
    em: &EnergyModel<'_>,
    spec: &GridSpec,
    ligand: &LigandModel,
    cfg: &McConfig,
    seed: u64,
) -> (Vec<ScoredPose>, u64) {
    let (mut modes, evals) =
        run_indexed(em, seed, cfg.restarts, |ev, rng| mc_restart(ev, spec, ligand, cfg, rng));
    modes.sort_by(|a, b| a.energy.total_cmp(&b.energy));
    (modes, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autogrid::{build_ad4_grids, build_vina_grids};
    use crate::params::{Ad4Params, VinaParams};
    use molkit::atom::Atom;
    use molkit::formats::pdbqt::PdbqtLigand;
    use molkit::molecule::{BondOrder, Molecule};
    use molkit::torsion::build_torsion_tree;
    use molkit::{AdType, Element};
    use rand::SeedableRng;

    fn receptor() -> Molecule {
        let mut m = Molecule::new("R");
        for (i, p) in [
            Vec3::new(-3.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
            Vec3::new(0.0, -3.0, 0.0),
        ]
        .iter()
        .enumerate()
        {
            let mut a = Atom::new(i as u32 + 1, "C", Element::C, *p);
            a.charge = 0.05;
            a.ad_type = AdType::C;
            m.add_atom(a);
        }
        m
    }

    fn ligand() -> PdbqtLigand {
        let mut m = Molecule::new("L");
        for k in 0..3 {
            let mut a = Atom::new(
                k as u32 + 1,
                format!("C{k}"),
                Element::C,
                Vec3::new(k as f64 * 1.5, 0.0, 0.0),
            );
            a.charge = 0.0;
            m.add_atom(a);
        }
        m.add_bond(0, 1, BondOrder::Single);
        m.add_bond(1, 2, BondOrder::Single);
        let tree = build_torsion_tree(&m);
        PdbqtLigand { mol: m, tree }
    }

    fn spec() -> GridSpec {
        GridSpec { center: Vec3::ZERO, npts: 17, spacing: 1.0 }
    }

    #[test]
    fn apply_delta_zero_is_identity() {
        let p = Pose::at(Vec3::new(1.0, 2.0, 3.0), 2);
        let mut q = Pose::at(Vec3::ZERO, 2);
        apply_delta(&p, &[0.0; 8], &mut q);
        assert_eq!(p, q);
    }

    #[test]
    fn apply_delta_translates() {
        let p = Pose::at(Vec3::ZERO, 0);
        let mut q = p.clone();
        apply_delta(&p, &[1.0, -2.0, 0.5, 0.0, 0.0, 0.0], &mut q);
        assert_eq!(q.translation, Vec3::new(1.0, -2.0, 0.5));
    }

    #[test]
    fn random_pose_inside_box() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let s = spec();
        for _ in 0..100 {
            let p = random_pose(&s, 3, &mut rng);
            assert!(s.contains(p.translation), "{} outside box", p.translation);
            assert_eq!(p.torsions.len(), 3);
        }
    }

    #[test]
    fn solis_wets_never_worsens() {
        let r = receptor();
        let lig = ligand();
        let lm = crate::conformation::LigandModel::new(&lig);
        let g = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let em = crate::energy::EnergyModel::new(&g, &lm).unwrap();
        let mut ev = Evaluator::new(&em);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let start_pose = Pose::at(Vec3::new(0.0, 1.0, 2.0), lm.torsdof());
        let e0 = ev.energy(&start_pose);
        let out = solis_wets(
            &mut ev,
            ScoredPose { pose: start_pose, energy: e0 },
            &SolisWetsConfig::default(),
            &mut rng,
        );
        assert!(out.energy <= e0, "local search must not worsen: {e0} -> {}", out.energy);
        assert!(ev.evals > 0);
    }

    #[test]
    fn lga_improves_over_random_start() {
        let r = receptor();
        let lig = ligand();
        let lm = crate::conformation::LigandModel::new(&lig);
        let g = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let em = crate::energy::EnergyModel::new(&g, &lm).unwrap();
        let mut ev = Evaluator::new(&em);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let cfg = LgaConfig { population: 10, generations: 8, ..Default::default() };
        let best = run_lga(&mut ev, &spec(), &lm, &cfg, &mut rng);
        // a random reference pose for comparison
        let mut rng2 = ChaCha8Rng::seed_from_u64(43);
        let rand_e = ev.energy(&random_pose(&spec(), lm.torsdof(), &mut rng2));
        assert!(best.energy <= rand_e, "GA best {} vs random {rand_e}", best.energy);
        assert!(best.energy < 0.0, "should find an attractive pose, got {}", best.energy);
    }

    #[test]
    fn lga_deterministic_per_seed() {
        let r = receptor();
        let lig = ligand();
        let lm = crate::conformation::LigandModel::new(&lig);
        let g = build_ad4_grids(&r, spec(), &lig.mol.ad_types(), &Ad4Params::new());
        let em = crate::energy::EnergyModel::new(&g, &lm).unwrap();
        let cfg = LgaConfig { population: 8, generations: 5, ..Default::default() };
        let run = |seed| {
            let mut ev = Evaluator::new(&em);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            run_lga(&mut ev, &spec(), &lm, &cfg, &mut rng).energy
        };
        assert_eq!(run(5), run(5));
        // different seeds generally explore differently (not a hard guarantee,
        // but with this landscape distinct seeds converge to distinct energies
        // or at least don't crash)
        let _ = run(6);
    }

    #[test]
    fn mc_returns_sorted_modes() {
        let r = receptor();
        let lig = ligand();
        let lm = crate::conformation::LigandModel::new(&lig);
        let g = build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default());
        let em = crate::energy::EnergyModel::new(&g, &lm).unwrap();
        let cfg = McConfig { restarts: 4, steps: 5, ..Default::default() };
        let (modes, _) = run_mc_seeded(&em, &spec(), &lm, &cfg, 9);
        assert_eq!(modes.len(), 4);
        for w in modes.windows(2) {
            assert!(w[0].energy <= w[1].energy, "modes must be sorted");
        }
    }

    #[test]
    fn energy_batch_bit_identical_and_counts_evals() {
        let r = receptor();
        let lig = ligand();
        let lm = crate::conformation::LigandModel::new(&lig);
        let types = lig.mol.ad_types();
        for g in [
            build_ad4_grids(&r, spec(), &types, &Ad4Params::new()),
            build_vina_grids(&r, spec(), &types, &VinaParams::default()),
        ] {
            let em = crate::energy::EnergyModel::new(&g, &lm).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            let poses: Vec<Pose> =
                (0..5).map(|_| random_pose(&spec(), lm.torsdof(), &mut rng)).collect();
            let mut ev = Evaluator::new(&em);
            let singles: Vec<f64> = poses.iter().map(|p| ev.energy(p)).collect();
            let n_single = ev.evals;
            let mut out = Vec::new();
            ev.energy_batch(&poses, &mut out);
            assert_eq!(ev.evals, n_single + poses.len() as u64);
            for (a, b) in singles.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "{:?}", g.kind);
            }
            // and both are the oracle's bits
            for (pose, e) in poses.iter().zip(&out) {
                let want = em.total_reference(&lm.coords(pose));
                assert_eq!(e.to_bits(), want.to_bits(), "{:?}", g.kind);
            }
        }
    }

    #[test]
    fn evaluation_counter_monotonic() {
        let r = receptor();
        let lig = ligand();
        let lm = crate::conformation::LigandModel::new(&lig);
        let g = build_vina_grids(&r, spec(), &lig.mol.ad_types(), &VinaParams::default());
        let em = crate::energy::EnergyModel::new(&g, &lm).unwrap();
        let mut ev = Evaluator::new(&em);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cfg = McConfig { restarts: 2, steps: 3, ..Default::default() };
        let _ = mc_restart(&mut ev, &spec(), &lm, &cfg, &mut rng);
        let first = ev.evals;
        assert!(first > 0);
        let _ = mc_restart(&mut ev, &spec(), &lm, &cfg, &mut rng);
        assert!(ev.evals > first);
    }
}
