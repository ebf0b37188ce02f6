//! Experiment drivers: every table and figure of the paper's evaluation
//! section is regenerated through these functions (the `figures` binary in
//! the bench crate prints them).

use std::sync::Arc;

use cloudsim::{fleet_for_cores, FailureModel};
use cumulus::simbackend::{simulate_tasks, SimConfig, SimReport};
use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, RunConfig, RunReport, Workflow};
use provenance::ProvenanceStore;

use crate::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
use crate::analysis::{results_from_relation, PairResult};
use crate::cost::{build_sim_tasks, CostModel};
use crate::dataset::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};

/// Outcome of a real (local-backend) screening run.
pub struct ScreeningOutcome {
    /// The run's report.
    pub report: RunReport,
    /// Provenance database of the run (query it!).
    pub prov: Arc<ProvenanceStore>,
    /// The shared file store with every produced artifact.
    pub files: Arc<FileStore>,
    /// Extracted docking results.
    pub results: Vec<PairResult>,
}

/// Run a real screening of `receptor_ids × ligand_codes` with one engine.
///
/// This is the Table 3 workload when called with 238 receptors × the four
/// detail ligands; tests call it with much smaller slices. The run shares
/// `cfg.receptors` with every other workflow built from `cfg`.
pub fn run_screening(
    receptor_ids: &[&str],
    ligand_codes: &[&str],
    mode: EngineMode,
    threads: usize,
    cfg: &SciDockConfig,
) -> ScreeningOutcome {
    let ds = Dataset::subset(receptor_ids, ligand_codes, DatasetParams::default());
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(mode, cfg, Arc::clone(&files));
    let backend = LocalBackend::new(
        RunConfig::new()
            .with_workers(threads)
            .with_failures(FailureModel::none())
            .with_max_retries(3),
    );
    let report = backend
        .run(&Workflow::new(wf, input).with_files(Arc::clone(&files)), &prov)
        .expect("workflow validated");
    let mut results = Vec::new();
    // docking activities are the trailing ones; collect from all that carry
    // the dock output schema
    for rel in &report.outputs {
        if rel.columns.len() == 6 && rel.columns[3] == "feb" {
            results.extend(results_from_relation(rel));
        }
    }
    ScreeningOutcome { report, prov, files, results }
}

/// One point of the scaling study (Figures 7–9).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Total virtual cores of the fleet.
    pub cores: u32,
    /// Total execution time, simulated seconds.
    pub tet_s: f64,
    /// Speedup vs the 1-core baseline.
    pub speedup: f64,
    /// Efficiency = speedup / cores.
    pub efficiency: f64,
    /// Cloud bill in USD.
    pub cost_usd: f64,
    /// The full simulator report.
    pub report: SimReport,
}

/// Simulation parameters for the scaling sweep: the simulator's own
/// configuration and the slice of the dataset it screens.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The simulator's configuration for every point; [`simulate_at`]
    /// replaces only its `fleet`, with the fleet for the point's cores.
    /// Without a `scheduler` the fleet stays fixed, the paper's setup for
    /// Figs 7–9.
    pub sim: SimConfig,
    /// Receptor ids to screen (default: the full Table 2 set).
    pub receptor_ids: Vec<String>,
    /// Ligand codes to screen.
    pub ligand_codes: Vec<String>,
}

impl Default for SweepConfig {
    /// The paper's setup: seed 2014, ~10% of activations fail (8% fail,
    /// 1.5% hang), the Hg rule on, telemetry off, every Table 2 pair.
    fn default() -> Self {
        SweepConfig {
            sim: SimConfig {
                seed: 2014,
                failures: FailureModel {
                    fail_rate: 0.08,
                    hang_rate: 0.015,
                    fail_at_fraction: 0.6,
                    seed: 2014,
                },
                ..Default::default()
            },
            receptor_ids: RECEPTOR_IDS.iter().map(|s| s.to_string()).collect(),
            ligand_codes: LIGAND_CODES.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Simulate one engine mode at one core count.
pub fn simulate_at(
    cores: u32,
    mode: EngineMode,
    sweep: &SweepConfig,
    prov: Option<&ProvenanceStore>,
) -> SimReport {
    let ids: Vec<&str> = sweep.receptor_ids.iter().map(|s| s.as_str()).collect();
    let codes: Vec<&str> = sweep.ligand_codes.iter().map(|s| s.as_str()).collect();
    let ds = Dataset::subset(&ids, &codes, DatasetParams::default());
    let wf = build_sim_tasks(&ds, mode, &CostModel::default());
    let cfg = SimConfig { fleet: fleet_for_cores(cores), ..sweep.sim.clone() };
    simulate_tasks(&wf, &cfg, prov)
}

/// Run the Figure 7–9 sweep: TET/speedup/efficiency at each core count.
///
/// The 1-core point is simulated as the speedup baseline (the paper
/// normalizes against "the best-performing workflow execution on a single
/// core").
pub fn scaling_sweep(
    core_counts: &[u32],
    mode: EngineMode,
    sweep: &SweepConfig,
) -> Vec<ScalePoint> {
    let baseline = simulate_at(1, mode, sweep, None).tet_s;
    core_counts
        .iter()
        .map(|&cores| {
            let report = simulate_at(cores, mode, sweep, None);
            let speedup = baseline / report.tet_s;
            ScalePoint {
                cores,
                tet_s: report.tet_s,
                speedup,
                efficiency: speedup / cores as f64,
                cost_usd: report.cost_usd,
                report,
            }
        })
        .collect()
}

/// The paper's headline numbers derived from a sweep (§I, §V.C, §VI).
#[derive(Debug, Clone)]
pub struct Headline {
    /// TET at the smallest core count, in days.
    pub tet_low_days: f64,
    /// TET at the largest core count, in hours.
    pub tet_high_hours: f64,
    /// Percent improvement of the 32-core point over the smallest.
    pub improvement_at_32: Option<f64>,
    /// Speedup at 16 cores.
    pub speedup_at_16: Option<f64>,
}

/// Extract headline numbers from a sweep (expects ascending core counts).
pub fn headline(points: &[ScalePoint]) -> Headline {
    let first = points.first().expect("non-empty sweep");
    let last = points.last().expect("non-empty sweep");
    let at = |c: u32| points.iter().find(|p| p.cores == c);
    Headline {
        tet_low_days: first.tet_s / 86_400.0,
        tet_high_hours: last.tet_s / 3_600.0,
        improvement_at_32: at(32).map(|p| 100.0 * (1.0 - p.tet_s / first.tet_s)),
        speedup_at_16: at(16).map(|p| p.speedup),
    }
}

/// The paper's core-count axis for Figures 7–9.
pub const PAPER_CORE_COUNTS: [u32; 7] = [2, 4, 8, 16, 32, 64, 128];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{table3, total_feb_negative};
    use cloudsim::NoiseModel;
    use cumulus::SchedulerFactory;
    use docking::engine::DockConfig;
    use docking::search::{LgaConfig, McConfig};

    fn fast_scidock_cfg() -> SciDockConfig {
        SciDockConfig {
            dock: DockConfig {
                ad4_runs: 1,
                lga: LgaConfig { population: 6, generations: 3, ..Default::default() },
                mc: McConfig { restarts: 2, steps: 2, ..Default::default() },
                grid_spacing: 1.5,
                box_edge: 14.0,
                ..Default::default()
            },
            hg_rule: false,
            ..Default::default()
        }
    }

    /// A sweep over a small slice of the dataset to keep tests quick.
    fn small_sweep() -> SweepConfig {
        let mut sweep = SweepConfig {
            receptor_ids: RECEPTOR_IDS[..10].iter().map(|s| s.to_string()).collect(),
            ligand_codes: LIGAND_CODES[..4].iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        };
        sweep.sim.failures = FailureModel::none();
        sweep.sim.noise = NoiseModel { amplitude: 0.0 };
        sweep
    }

    /// [`small_sweep`] with equal weights for every activity: the greedy
    /// queue pops first-in first-out.
    fn equal_weights_sweep() -> SweepConfig {
        let mut sweep = small_sweep();
        sweep.sim.weight_profile = Some(std::collections::HashMap::new());
        sweep
    }

    /// [`small_sweep`] on a fleet a queue-depth policy grows to 4 VMs.
    fn elastic_sweep() -> SweepConfig {
        let mut sweep = small_sweep();
        sweep.sim.scheduler = Some(SchedulerFactory::new(|| {
            Box::new(cumulus::QueueDepthScheduler::new(cumulus::QueueDepthConfig {
                max_workers: 4,
                ..Default::default()
            }))
        }));
        sweep
    }

    /// [`small_sweep`] with failed and hanging attempts.
    fn failing_sweep() -> SweepConfig {
        let mut sweep = small_sweep();
        sweep.sim.failures =
            FailureModel { fail_rate: 0.10, hang_rate: 0.02, fail_at_fraction: 0.6, seed: 11 };
        sweep
    }

    /// The simulator's outputs over the small sweep, bit for bit: a change
    /// to how a run is configured must leave every simulated figure as it
    /// was.
    #[test]
    fn simulated_outputs_are_pinned() {
        let pin = |cores, mode, sweep: &SweepConfig| {
            let r = simulate_at(cores, mode, sweep, None);
            (
                r.tet_s.to_bits(),
                r.finished,
                r.failed_attempts,
                r.aborted,
                r.blacklisted,
                r.cancelled,
                r.cost_usd.to_bits(),
            )
        };
        let got = [
            pin(2, EngineMode::VinaOnly, &small_sweep()),
            pin(8, EngineMode::Ad4Only, &small_sweep()),
            pin(8, EngineMode::Ad4Only, &equal_weights_sweep()),
            pin(2, EngineMode::Adaptive, &elastic_sweep()),
            pin(4, EngineMode::VinaOnly, &failing_sweep()),
        ];
        assert_eq!(
            got,
            [
                (4659691214261126897, 280, 0, 0, 0, 0, 4597274499619802317),
                (4652932729820474505, 280, 0, 0, 0, 0, 4606281698874543309),
                (4654426753432406270, 280, 0, 0, 0, 0, 4606281698874543309),
                (4650314411663801646, 280, 0, 0, 0, 0, 4609771988585755443),
                (4656383300548134093, 272, 23, 2, 0, 6, 4601778099247172813),
            ]
        );
    }

    #[test]
    fn screening_produces_results() {
        let out = run_screening(
            &["1HUC", "2HHN"],
            &["042"],
            EngineMode::VinaOnly,
            2,
            &fast_scidock_cfg(),
        );
        assert_eq!(out.results.len(), 2);
        assert!(out.results.iter().all(|r| r.engine == "vina"));
        assert!(out.results.iter().all(|r| r.feb.is_finite()));
        // files were produced and recorded
        assert!(out.files.len() > 6);
        let q = out
            .prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'", &[])
            .unwrap();
        assert!(q.cell(0, 0).as_f64().unwrap() >= 16.0);
    }

    #[test]
    fn screening_feeds_table3() {
        let out = run_screening(
            &["1HUC", "2HHN", "1S4V"],
            &["0D6"],
            EngineMode::Ad4Only,
            2,
            &fast_scidock_cfg(),
        );
        let rows = table3(&out.results, "autodock4", &["0D6"]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].feb_neg_count <= 3);
        let _ = total_feb_negative(&out.results, "autodock4");
    }

    #[test]
    fn sweep_tet_decreases_with_cores() {
        let sweep = small_sweep();
        let points = scaling_sweep(&[2, 8, 32], EngineMode::VinaOnly, &sweep);
        assert_eq!(points.len(), 3);
        assert!(points[0].tet_s > points[1].tet_s);
        assert!(points[1].tet_s > points[2].tet_s);
        // speedup grows, efficiency ≤ ~1
        assert!(points[2].speedup > points[0].speedup);
        for p in &points {
            assert!(p.efficiency <= 1.3, "efficiency {} at {} cores", p.efficiency, p.cores);
            assert!(p.efficiency > 0.0);
        }
    }

    #[test]
    fn sweep_deterministic() {
        let sweep = small_sweep();
        let a = scaling_sweep(&[4], EngineMode::Ad4Only, &sweep);
        let b = scaling_sweep(&[4], EngineMode::Ad4Only, &sweep);
        assert_eq!(a[0].tet_s, b[0].tet_s);
        assert_eq!(a[0].cost_usd, b[0].cost_usd);
    }

    #[test]
    fn vina_beats_ad4_in_simulation() {
        let sweep = small_sweep();
        let ad4 = simulate_at(8, EngineMode::Ad4Only, &sweep, None);
        let vina = simulate_at(8, EngineMode::VinaOnly, &sweep, None);
        assert!(vina.tet_s < ad4.tet_s, "{} vs {}", vina.tet_s, ad4.tet_s);
    }

    #[test]
    fn headline_extraction() {
        let sweep = small_sweep();
        let points = scaling_sweep(&[2, 16, 32], EngineMode::VinaOnly, &sweep);
        let h = headline(&points);
        assert!(h.tet_low_days > 0.0);
        assert!(h.tet_high_hours > 0.0);
        assert!(h.improvement_at_32.unwrap() > 50.0, "32 cores must be a big win over 2");
        assert!(h.speedup_at_16.unwrap() > 2.0);
    }

    #[test]
    fn simulation_records_provenance_when_asked() {
        let sweep = small_sweep();
        let prov = ProvenanceStore::new();
        let r = simulate_at(4, EngineMode::VinaOnly, &sweep, Some(&prov));
        assert!(r.finished > 0);
        let q = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'", &[])
            .unwrap();
        assert_eq!(q.cell(0, 0).as_f64().unwrap() as usize, r.finished);
        // the seven simulated activity tags are registered
        let tags = prov.query_rows("SELECT count(*) FROM hactivity", &[]).unwrap();
        assert_eq!(tags.cell(0, 0), &provenance::Value::Int(7));
    }

    #[test]
    fn failures_visible_in_sweep() {
        let mut sweep = small_sweep();
        sweep.sim.failures =
            FailureModel { fail_rate: 0.10, hang_rate: 0.0, fail_at_fraction: 0.6, seed: 1 };
        let r = simulate_at(8, EngineMode::VinaOnly, &sweep, None);
        let n_tasks = 10 * 4 * 7;
        assert!(r.failed_attempts > n_tasks / 50, "~10% failures expected");
        assert!(r.finished > n_tasks / 2);
    }
}
