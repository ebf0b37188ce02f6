//! Top-level docking API: dock one receptor–ligand pair with AD4 or Vina.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use telemetry::Telemetry;

use molkit::align::aligned_rmsd;
use molkit::formats::pdbqt::PdbqtLigand;
use molkit::geometry::{diameter, find_pocket, rmsd};
use molkit::{Molecule, Vec3};

use crate::autogrid::{build_grids, GridKind, GridSet};
use crate::cluster::cluster_poses;
use crate::conformation::LigandModel;
use crate::conformation::Pose;
use crate::energy::EnergyModel;
use crate::grid::GridSpec;
use crate::search::{
    run_lga_seeded, run_mc_seeded, solis_wets, Evaluator, LgaConfig, McConfig, ScoredPose,
    SolisWetsConfig,
};

/// Which docking program SciDock activity 8 invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// AutoDock 4-style Lamarckian GA (activity 8a).
    Ad4,
    /// AutoDock Vina-style Monte Carlo (activity 8b).
    Vina,
}

impl EngineKind {
    /// The program name as it appears in logs and provenance.
    pub fn program_name(self) -> &'static str {
        match self {
            EngineKind::Ad4 => "autodock4",
            EngineKind::Vina => "vina",
        }
    }
}

/// The grids an engine docks against.
impl From<EngineKind> for GridKind {
    fn from(engine: EngineKind) -> GridKind {
        match engine {
            EngineKind::Ad4 => GridKind::Ad4,
            EngineKind::Vina => GridKind::Vina,
        }
    }
}

/// Docking configuration (program defaults are paper-scale shapes at
/// millisecond cost; see DESIGN.md §1).
#[derive(Debug, Clone)]
pub struct DockConfig {
    /// Master seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Number of independent LGA runs for AD4 (AutoDock's `ga_run`).
    pub ad4_runs: usize,
    /// LGA parameters.
    pub lga: LgaConfig,
    /// MC parameters (restarts ≙ Vina's exhaustiveness).
    pub mc: McConfig,
    /// Grid lattice spacing in Å.
    pub grid_spacing: f64,
    /// Minimum grid box edge in Å.
    pub box_edge: f64,
    /// Probe radius used for pocket detection.
    pub pocket_probe: f64,
    /// Telemetry sink: per-phase spans (pocket, grids, search, analysis)
    /// when attached, near-free when disabled (the default).
    pub telemetry: Telemetry,
}

impl Default for DockConfig {
    fn default() -> Self {
        DockConfig {
            seed: 0,
            ad4_runs: 4,
            lga: LgaConfig::default(),
            mc: McConfig::default(),
            grid_spacing: 0.75,
            box_edge: 16.0,
            pocket_probe: 9.0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One reported binding mode.
#[derive(Debug, Clone)]
pub struct Mode {
    /// Rank (1 = best).
    pub rank: usize,
    /// Search energy (inter + intra) of the pose.
    pub energy: f64,
    /// Estimated free energy of binding, kcal/mol.
    pub feb: f64,
    /// RMSD in Å. AD4 semantics: vs the ligand's *input* coordinates
    /// (crystal frame). Vina semantics: vs the best mode ("rmsd u.b.").
    pub rmsd: f64,
    /// Lower-bound RMSD: the same comparison after optimal superposition
    /// (Vina's "rmsd l.b." uses symmetry minimization; superposition plays
    /// the analogous role here). Always ≤ `rmsd`.
    pub rmsd_lb: f64,
}

/// Summary of one conformational cluster (AutoDock's analysis step).
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Number of runs/modes in the cluster.
    pub size: usize,
    /// FEB of the cluster representative, kcal/mol.
    pub best_feb: f64,
    /// Mean FEB over members.
    pub mean_feb: f64,
}

/// Result of docking one pair.
#[derive(Debug, Clone)]
pub struct DockResult {
    /// Engine that produced this result.
    pub engine: EngineKind,
    /// Receptor identifier.
    pub receptor: String,
    /// Ligand identifier.
    pub ligand: String,
    /// FEB of the best mode, kcal/mol.
    pub feb: f64,
    /// All modes, best first.
    pub modes: Vec<Mode>,
    /// World coordinates of the best pose.
    pub best_coords: Vec<Vec3>,
    /// Energy evaluations performed (work measure).
    pub evaluations: u64,
    /// Where the grid box was centered.
    pub pocket_center: Vec3,
    /// Number of torsional degrees of freedom of the ligand.
    pub torsdof: usize,
    /// Conformational clusters of the runs/modes (2 Å tolerance), best
    /// cluster first.
    pub clusters: Vec<ClusterInfo>,
    /// The best pose itself (for redocking / refinement).
    pub best_pose: Pose,
}

/// Docking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DockError {
    /// No binding pocket could be detected on the receptor.
    NoPocket,
    /// The ligand has no atoms.
    EmptyLigand,
    /// The grid set lacks an affinity map for a ligand atom type (the
    /// label); AutoGrid was run with the wrong probe set.
    MissingAffinityMap(String),
}

impl std::fmt::Display for DockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DockError::NoPocket => write!(f, "no binding pocket detected on receptor"),
            DockError::EmptyLigand => write!(f, "ligand has no atoms"),
            DockError::MissingAffinityMap(t) => {
                write!(f, "grid set missing affinity map for ligand atom type {t}")
            }
        }
    }
}

impl std::error::Error for DockError {}

/// Compute the grid box for a receptor–ligand pair.
pub fn make_grid_spec(
    receptor: &Molecule,
    ligand: &PdbqtLigand,
    cfg: &DockConfig,
) -> Result<GridSpec, DockError> {
    let pocket = find_pocket(receptor, cfg.pocket_probe).ok_or(DockError::NoPocket)?;
    let edge = cfg.box_edge.max(diameter(&ligand.mol) + 6.0);
    Ok(GridSpec::with_edge(pocket.center, edge, cfg.grid_spacing))
}

/// Precompute the grid maps for a pair (SciDock activity 5 for AD4; Vina
/// builds the analogous maps internally).
pub fn make_grids(
    receptor: &Molecule,
    ligand: &PdbqtLigand,
    engine: EngineKind,
    cfg: &DockConfig,
) -> Result<GridSet, DockError> {
    let spec = {
        let _phase = cfg.telemetry.span("dock", "pocket");
        make_grid_spec(receptor, ligand, cfg)?
    };
    let _phase =
        cfg.telemetry.span_detail("dock", "grids", || format!("spacing={} Å", cfg.grid_spacing));
    Ok(build_grids(receptor, spec, &ligand.mol.ad_types(), engine.into()))
}

/// Dock a prepared pair using precomputed grids.
pub fn dock_with_grids(
    grids: &GridSet,
    receptor_name: &str,
    ligand: &PdbqtLigand,
    engine: EngineKind,
    cfg: &DockConfig,
) -> Result<DockResult, DockError> {
    if ligand.mol.atoms.is_empty() {
        return Err(DockError::EmptyLigand);
    }
    let lm = LigandModel::new(ligand);
    let em = EnergyModel::new(grids, &lm)?;
    let reference: Vec<Vec3> = ligand.mol.positions();

    let (poses, rmsd_vs_best, evaluations): (Vec<ScoredPose>, bool, u64) = {
        let mut phase = cfg.telemetry.span("dock", "search");
        let out = match engine {
            EngineKind::Ad4 => {
                let (mut runs, evals) =
                    run_lga_seeded(&em, &grids.spec, &lm, &cfg.lga, cfg.seed, cfg.ad4_runs);
                runs.sort_by(|a, b| a.energy.total_cmp(&b.energy));
                (runs, false, evals)
            }
            EngineKind::Vina => {
                let (out, evals) = run_mc_seeded(&em, &grids.spec, &lm, &cfg.mc, cfg.seed);
                (out.modes, true, evals)
            }
        };
        phase.set_detail(|| format!("{} evals={}", engine.program_name(), out.2));
        out
    };

    let _phase = cfg.telemetry.span("dock", "analysis");
    let best_pose = poses[0].pose.clone();
    // pose application is deterministic, so the coordinate/FEB arrays built
    // for clustering serve the per-mode report too — no recomputation
    let all_coords: Vec<Vec<Vec3>> = poses.iter().map(|sp| lm.coords(&sp.pose)).collect();
    let all_febs: Vec<f64> = all_coords.iter().map(|c| em.free_energy_of_binding(c)).collect();
    let best_coords = all_coords[0].clone();
    let clusters = cluster_poses(&all_coords, &all_febs, 2.0)
        .into_iter()
        .map(|c| ClusterInfo { size: c.size(), best_feb: c.best_energy, mean_feb: c.mean_energy })
        .collect();
    let modes: Vec<Mode> = poses
        .iter()
        .enumerate()
        .map(|(k, sp)| {
            let coords = &all_coords[k];
            let feb = all_febs[k];
            let (r, r_lb) = if rmsd_vs_best {
                (rmsd(coords, &best_coords), aligned_rmsd(coords, &best_coords))
            } else {
                (rmsd(coords, &reference), aligned_rmsd(coords, &reference))
            };
            Mode { rank: k + 1, energy: sp.energy, feb, rmsd: r, rmsd_lb: r_lb }
        })
        .collect();

    cfg.telemetry.count("dock.evaluations", evaluations);
    if crate::vexp::ExpPath::selected() == crate::vexp::ExpPath::Lanes {
        cfg.telemetry.count("dock.exp_simd", 1);
    }
    Ok(DockResult {
        engine,
        receptor: receptor_name.to_string(),
        ligand: ligand.mol.name.clone(),
        feb: modes[0].feb,
        modes,
        best_coords,
        evaluations,
        pocket_center: grids.spec.center,
        torsdof: lm.torsdof(),
        clusters,
        best_pose,
    })
}

/// Outcome of a local refinement (redocking) run.
#[derive(Debug, Clone)]
pub struct Refinement {
    /// The refined pose.
    pub pose: Pose,
    /// Refined world coordinates.
    pub coords: Vec<Vec3>,
    /// FEB of the refined pose.
    pub feb: f64,
    /// Energy evaluations spent.
    pub evaluations: u64,
}

/// Locally refine a pose with Solis–Wets (the "redocking" of §V.D: restart
/// the search from a known pose rather than from scratch).
pub fn refine_pose(
    grids: &GridSet,
    ligand: &PdbqtLigand,
    start: &Pose,
    seed: u64,
    sw: &SolisWetsConfig,
) -> Result<Refinement, DockError> {
    let lm = LigandModel::new(ligand);
    let em = EnergyModel::new(grids, &lm)?;
    let mut ev = Evaluator::new(&em);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x8ED0_C4E1);
    let e0 = ev.energy(start);
    let refined = solis_wets(&mut ev, ScoredPose { pose: start.clone(), energy: e0 }, sw, &mut rng);
    let coords = lm.coords(&refined.pose);
    let feb = em.free_energy_of_binding(&coords);
    Ok(Refinement { pose: refined.pose, coords, feb, evaluations: ev.evals })
}

/// Dock one receptor–ligand pair end to end (pocket → grids → search).
pub fn dock(
    receptor: &Molecule,
    ligand: &PdbqtLigand,
    engine: EngineKind,
    cfg: &DockConfig,
) -> Result<DockResult, DockError> {
    let _pair_span = cfg
        .telemetry
        .span_detail("dock", "pair", || format!("{}:{}", receptor.name, ligand.mol.name));
    let grids = make_grids(receptor, ligand, engine, cfg)?;
    dock_with_grids(&grids, &receptor.name, ligand, engine, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use molkit::synth::{generate_ligand, generate_receptor, LigandParams, ReceptorParams};
    use molkit::torsion::build_torsion_tree;
    use molkit::typer::{assign_ad_types, merge_nonpolar_hydrogens};

    fn prepared_pair() -> (Molecule, PdbqtLigand) {
        let rp = ReceptorParams { min_residues: 40, max_residues: 50, hg_fraction: 0.0 };
        let mut receptor = generate_receptor("1HUC", &rp);
        assign_ad_types(&mut receptor);
        molkit::charges::assign_gasteiger(&mut receptor, &Default::default());

        let lp = LigandParams { min_heavy: 8, max_heavy: 12, hang_fraction: 0.0 };
        let mut lig = generate_ligand("0D6", &lp);
        assign_ad_types(&mut lig);
        molkit::charges::assign_gasteiger(&mut lig, &Default::default());
        merge_nonpolar_hydrogens(&mut lig);
        let tree = build_torsion_tree(&lig);
        (receptor, PdbqtLigand { mol: lig, tree })
    }

    fn fast_cfg() -> DockConfig {
        DockConfig {
            ad4_runs: 2,
            lga: LgaConfig { population: 8, generations: 5, ..Default::default() },
            mc: McConfig { restarts: 3, steps: 4, ..Default::default() },
            grid_spacing: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn ad4_docking_end_to_end() {
        let (receptor, lig) = prepared_pair();
        let res = dock(&receptor, &lig, EngineKind::Ad4, &fast_cfg()).unwrap();
        assert_eq!(res.engine, EngineKind::Ad4);
        assert_eq!(res.modes.len(), 2);
        assert!(res.feb.is_finite());
        assert!(res.evaluations > 0);
        assert_eq!(res.best_coords.len(), lig.mol.atoms.len());
        // modes are sorted best-first by search energy
        assert!(res.modes[0].energy <= res.modes[1].energy);
        assert_eq!(res.modes[0].rank, 1);
        // clustering partitions the runs
        let total: usize = res.clusters.iter().map(|c| c.size).sum();
        assert_eq!(total, res.modes.len());
        assert!(res.clusters.windows(2).all(|w| w[0].best_feb <= w[1].best_feb));
    }

    #[test]
    fn vina_docking_end_to_end() {
        let (receptor, lig) = prepared_pair();
        let res = dock(&receptor, &lig, EngineKind::Vina, &fast_cfg()).unwrap();
        assert_eq!(res.modes.len(), 3);
        // best mode's RMSD vs itself is zero
        assert!(res.modes[0].rmsd < 1e-9);
        // other modes have nonzero RMSD unless the search converged identically
        assert!(res.modes.iter().all(|m| m.rmsd.is_finite()));
        // the aligned lower bound never exceeds the plain RMSD
        assert!(res.modes.iter().all(|m| m.rmsd_lb <= m.rmsd + 1e-9));
    }

    #[test]
    fn ad4_rmsd_reference_semantics() {
        // AD4 reports RMSD vs the input frame; our ligand starts near the
        // origin while the pocket sits on the receptor, so RMSD is large.
        let (receptor, lig) = prepared_pair();
        let res = dock(&receptor, &lig, EngineKind::Ad4, &fast_cfg()).unwrap();
        assert!(
            res.modes[0].rmsd > 2.0,
            "AD4 rmsd vs input frame should be large, got {}",
            res.modes[0].rmsd
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (receptor, lig) = prepared_pair();
        let cfg = fast_cfg();
        let a = dock(&receptor, &lig, EngineKind::Vina, &cfg).unwrap();
        let b = dock(&receptor, &lig, EngineKind::Vina, &cfg).unwrap();
        assert_eq!(a.feb, b.feb);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn empty_ligand_rejected() {
        let (receptor, _) = prepared_pair();
        let empty = PdbqtLigand { mol: Molecule::new("E"), tree: molkit::TorsionTree::rigid(0) };
        // grid creation works off the receptor; docking must reject the ligand
        let cfg = fast_cfg();
        let err = dock(&receptor, &empty, EngineKind::Ad4, &cfg).unwrap_err();
        assert_eq!(err, DockError::EmptyLigand);
    }

    #[test]
    fn grid_box_covers_ligand() {
        let (receptor, lig) = prepared_pair();
        let cfg = fast_cfg();
        let spec = make_grid_spec(&receptor, &lig, &cfg).unwrap();
        assert!(spec.edge() >= diameter(&lig.mol) + 6.0 - 1e-9);
    }

    #[test]
    fn per_phase_spans_recorded_under_pair_span() {
        let (receptor, lig) = prepared_pair();
        let tel = Telemetry::attached();
        let cfg = DockConfig { telemetry: tel.clone(), ..fast_cfg() };
        let res = dock(&receptor, &lig, EngineKind::Ad4, &cfg).unwrap();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("dock.evaluations"), Some(res.evaluations));
        let lanes = crate::vexp::ExpPath::selected() == crate::vexp::ExpPath::Lanes;
        assert_eq!(snap.counter("dock.exp_simd"), lanes.then_some(1));
        let trace = tel.export_chrome_trace().unwrap();
        for phase in ["\"pair\"", "\"pocket\"", "\"grids\"", "\"search\"", "\"analysis\""] {
            assert!(trace.contains(phase), "missing phase {phase}");
        }
        assert!(trace.contains("autodock4 evals="), "search detail carries eval count");
        // all four phases nest under the pair span
        assert_eq!(trace.matches("\"parent\":").count(), 4);
    }

    /// A docking result's bits for each engine on `prepared_pair()`: a
    /// change to the grid fill, the search driver or the analysis must leave
    /// every reported number as it was.
    #[test]
    fn dock_results_are_pinned() {
        let pin = |engine| {
            let (receptor, lig) = prepared_pair();
            let res = dock(&receptor, &lig, engine, &fast_cfg()).unwrap();
            let mut bytes = Vec::new();
            for c in &res.best_coords {
                for v in [c.x, c.y, c.z] {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            for m in &res.modes {
                for v in [m.energy, m.feb, m.rmsd, m.rmsd_lb] {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            (res.feb.to_bits(), res.evaluations, crate::gridio::fnv1a64(&bytes))
        };
        let got = [pin(EngineKind::Ad4), pin(EngineKind::Vina)];
        assert_eq!(
            got,
            [
                (4610906049306262088, 827, 6216533688644418429),
                (4608737743465610056, 705, 18085672644375812074),
            ]
        );
    }

    #[test]
    fn make_grids_builds_each_engines_kind() {
        let (receptor, lig) = prepared_pair();
        let ad4 = make_grids(&receptor, &lig, EngineKind::Ad4, &fast_cfg()).unwrap();
        assert_eq!(ad4.kind, GridKind::Ad4);
        assert!(ad4.electrostatic.is_some() && ad4.desolvation.is_some());
        let vina = make_grids(&receptor, &lig, EngineKind::Vina, &fast_cfg()).unwrap();
        assert_eq!(vina.kind, GridKind::Vina);
        assert!(vina.electrostatic.is_none() && vina.desolvation.is_none());
        let types = lig.mol.ad_types();
        assert!(types
            .iter()
            .all(|t| ad4.affinity.contains_key(t) && vina.affinity.contains_key(t)));
    }

    #[test]
    fn program_names() {
        assert_eq!(EngineKind::Ad4.program_name(), "autodock4");
        assert_eq!(EngineKind::Vina.program_name(), "vina");
    }
}
