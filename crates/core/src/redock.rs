//! Redocking — the first refinement §V.D suggests for promising
//! interactions: re-run the search from a known pose and check whether the
//! pose is stable (small aligned RMSD, FEB not worse).

use docking::engine::{dock, refine_pose, DockConfig, DockError, EngineKind};
use docking::search::SolisWetsConfig;
use molkit::align::aligned_rmsd;
use molkit::formats::pdbqt::PdbqtLigand;
use molkit::geometry::rmsd;
use molkit::synth::name_seed;
use molkit::torsion::build_torsion_tree;
use molkit::typer::{assign_ad_types, merge_nonpolar_hydrogens};
use molkit::Molecule;

use crate::dataset::{make_ligand, make_receptor, DatasetParams};

/// Outcome of a redocking experiment on one pair.
#[derive(Debug, Clone)]
pub struct RedockOutcome {
    /// Receptor id.
    pub receptor: String,
    /// Ligand code.
    pub ligand: String,
    /// FEB of the original docking, kcal/mol.
    pub original_feb: f64,
    /// FEB after local refinement.
    pub refined_feb: f64,
    /// Unaligned RMSD between original and refined poses, Å.
    pub pose_shift_rmsd: f64,
    /// RMSD after optimal superposition — isolates conformational change
    /// from rigid drift, Å.
    pub aligned_shift_rmsd: f64,
    /// Energy evaluations spent on refinement.
    pub refine_evaluations: u64,
}

impl RedockOutcome {
    /// A pose is "stable" when refinement keeps it in place (small shift)
    /// and does not worsen the FEB by more than `feb_slack`.
    pub fn is_stable(&self, shift_tolerance: f64, feb_slack: f64) -> bool {
        self.pose_shift_rmsd <= shift_tolerance && self.refined_feb <= self.original_feb + feb_slack
    }
}

/// Prepare a (receptor, ligand) pair exactly as the workflow does.
fn prepare_pair(
    receptor_id: &str,
    ligand_code: &str,
    params: &DatasetParams,
) -> (Molecule, PdbqtLigand) {
    let mut receptor = make_receptor(receptor_id, params).structure;
    assign_ad_types(&mut receptor);
    molkit::charges::assign_gasteiger(&mut receptor, &Default::default());
    let mut lig = make_ligand(ligand_code, params).structure;
    assign_ad_types(&mut lig);
    molkit::charges::assign_gasteiger(&mut lig, &Default::default());
    merge_nonpolar_hydrogens(&mut lig);
    let tree = build_torsion_tree(&lig);
    (receptor, PdbqtLigand { mol: lig, tree })
}

/// Dock one pair, then redock from the best pose with a local search.
pub fn redock_pair(
    receptor_id: &str,
    ligand_code: &str,
    engine: EngineKind,
    cfg: &DockConfig,
) -> Result<RedockOutcome, DockError> {
    let (receptor, ligand) = prepare_pair(receptor_id, ligand_code, &DatasetParams::default());
    let grids = docking::engine::make_grids(&receptor, &ligand, engine, cfg)?;
    let result = docking::engine::dock_with_grids(&grids, receptor_id, &ligand, engine, cfg)?;
    let sw = SolisWetsConfig { max_iters: 120, rho: 0.4, ..Default::default() };
    let seed = name_seed(&format!("redock:{receptor_id}:{ligand_code}"));
    let refined = refine_pose(&grids, &ligand, &result.best_pose, seed, &sw)?;
    Ok(RedockOutcome {
        receptor: receptor_id.to_string(),
        ligand: ligand_code.to_string(),
        original_feb: result.feb,
        refined_feb: refined.feb,
        pose_shift_rmsd: rmsd(&result.best_coords, &refined.coords),
        aligned_shift_rmsd: aligned_rmsd(&result.best_coords, &refined.coords),
        refine_evaluations: refined.evaluations,
    })
}

/// Cross-engine agreement check (Chang et al.'s AD4-vs-Vina comparison,
/// which the paper leans on): dock the same pair with both engines and
/// report the FEB difference and the best-pose RMSD between engines.
#[derive(Debug, Clone)]
pub struct EngineAgreement {
    /// AD4's best FEB.
    pub ad4_feb: f64,
    /// Vina's best FEB.
    pub vina_feb: f64,
    /// Unaligned RMSD between the two engines' best poses, Å.
    pub pose_rmsd: f64,
    /// RMSD after superposition, Å.
    pub aligned_pose_rmsd: f64,
}

/// Compare the two engines on one pair.
pub fn compare_engines(
    receptor_id: &str,
    ligand_code: &str,
    cfg: &DockConfig,
) -> Result<EngineAgreement, DockError> {
    let (receptor, ligand) = prepare_pair(receptor_id, ligand_code, &DatasetParams::default());
    let ad4 = dock(&receptor, &ligand, EngineKind::Ad4, cfg)?;
    let vina = dock(&receptor, &ligand, EngineKind::Vina, cfg)?;
    Ok(EngineAgreement {
        ad4_feb: ad4.feb,
        vina_feb: vina.feb,
        pose_rmsd: rmsd(&ad4.best_coords, &vina.best_coords),
        aligned_pose_rmsd: aligned_rmsd(&ad4.best_coords, &vina.best_coords),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use docking::search::{LgaConfig, McConfig};

    fn fast_cfg() -> DockConfig {
        DockConfig {
            ad4_runs: 1,
            lga: LgaConfig { population: 8, generations: 5, ..Default::default() },
            mc: McConfig { restarts: 3, steps: 4, ..Default::default() },
            grid_spacing: 1.25,
            box_edge: 16.0,
            ..Default::default()
        }
    }

    #[test]
    fn redock_never_worsens_feb() {
        // local refinement minimizes the same energy, so the refined pose's
        // search energy is ≤ the original; FEB (an affine transform of the
        // intermolecular part) may wiggle, but not explode
        let out = redock_pair("1HUC", "0D6", EngineKind::Vina, &fast_cfg()).unwrap();
        assert!(
            out.refined_feb <= out.original_feb + 1.0,
            "refined {} vs original {}",
            out.refined_feb,
            out.original_feb
        );
        assert!(out.refine_evaluations > 0);
        assert!(out.pose_shift_rmsd.is_finite());
        assert!(out.aligned_shift_rmsd <= out.pose_shift_rmsd + 1e-9);
    }

    #[test]
    fn redock_deterministic() {
        let cfg = fast_cfg();
        let a = redock_pair("2HHN", "042", EngineKind::Ad4, &cfg).unwrap();
        let b = redock_pair("2HHN", "042", EngineKind::Ad4, &cfg).unwrap();
        assert_eq!(a.refined_feb, b.refined_feb);
        assert_eq!(a.pose_shift_rmsd, b.pose_shift_rmsd);
    }

    #[test]
    fn stability_classifier() {
        let out = RedockOutcome {
            receptor: "X".into(),
            ligand: "Y".into(),
            original_feb: -6.0,
            refined_feb: -6.2,
            pose_shift_rmsd: 0.8,
            aligned_shift_rmsd: 0.5,
            refine_evaluations: 10,
        };
        assert!(out.is_stable(2.0, 0.5));
        assert!(!out.is_stable(0.5, 0.5), "shift beyond tolerance");
        let worse = RedockOutcome { refined_feb: -4.0, ..out };
        assert!(!worse.is_stable(2.0, 0.5), "FEB got much worse");
    }

    #[test]
    fn engine_comparison_runs() {
        let a = compare_engines("1S4V", "0E6", &fast_cfg()).unwrap();
        assert!(a.ad4_feb.is_finite());
        assert!(a.vina_feb.is_finite());
        assert!(a.aligned_pose_rmsd <= a.pose_rmsd + 1e-9);
        // both engines target the same pocket: the two best poses are in the
        // same box, so unaligned RMSD is bounded by the box diagonal
        assert!(a.pose_rmsd < 40.0, "poses in the same pocket: {}", a.pose_rmsd);
    }
}
