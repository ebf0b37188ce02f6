//! Shape assertions against the paper's evaluation: every qualitative claim
//! of §V must hold in the reproduction (who wins, directions of effects,
//! where knees fall). Runs on a reduced dataset to stay test-sized; the
//! `figures` binary produces the full-scale numbers recorded in
//! EXPERIMENTS.md.

use cloudsim::FailureModel;
use cloudsim::NoiseModel;
use provenance::ProvenanceStore;
use scidock::activities::EngineMode;
use scidock::cost::CostModel;
use scidock::dataset::{LIGAND_CODES, RECEPTOR_IDS};
use scidock::experiments::{headline, scaling_sweep, simulate_at, SweepConfig};

fn sweep() -> SweepConfig {
    SweepConfig {
        receptor_ids: RECEPTOR_IDS[..30].iter().map(|s| s.to_string()).collect(),
        ligand_codes: LIGAND_CODES[..6].iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    }
}

/// Figure 7's shape: TET decreases monotonically with cores and Vina beats
/// AD4 at every point. Uses the full 10,000-pair dataset: at test-sized
/// inputs the per-pair chain latency dominates 128-core runs and the
/// contrast disappears (as it would in the real system).
#[test]
fn fig7_shape_tet_monotonic_and_vina_faster() {
    let s = SweepConfig::default();
    let cores = [2u32, 8, 32, 128];
    let ad4 = scaling_sweep(&cores, EngineMode::Ad4Only, &s);
    let vina = scaling_sweep(&cores, EngineMode::VinaOnly, &s);
    for w in ad4.windows(2) {
        assert!(w[0].tet_s > w[1].tet_s, "AD4 TET must fall with cores");
    }
    for w in vina.windows(2) {
        assert!(w[0].tet_s > w[1].tet_s, "Vina TET must fall with cores");
    }
    for (a, v) in ad4.iter().zip(&vina) {
        assert!(v.tet_s < a.tet_s, "Vina faster at {} cores", a.cores);
    }
}

/// Figure 8's shape: speedup grows with cores, near-linear to 32, sublinear
/// at 128 ("small degradation … but always a gain").
#[test]
fn fig8_shape_speedup() {
    let s = SweepConfig::default();
    let points = scaling_sweep(&[2, 8, 32, 128], EngineMode::VinaOnly, &s);
    for w in points.windows(2) {
        assert!(w[1].speedup > w[0].speedup, "always a gain from more cores");
    }
    let at = |c: u32| points.iter().find(|p| p.cores == c).unwrap();
    // near-linear at 32
    assert!(at(32).speedup > 0.8 * 32.0, "near-linear at 32: {}", at(32).speedup);
    // clearly sublinear at 128
    assert!(at(128).speedup < 0.9 * 128.0, "degraded at 128: {}", at(128).speedup);
}

/// Figure 9's shape: efficiency declines from 32 to 128 cores.
#[test]
fn fig9_shape_efficiency_declines_past_32() {
    let s = SweepConfig::default();
    let points = scaling_sweep(&[32, 64, 128], EngineMode::Ad4Only, &s);
    assert!(points[0].efficiency > points[1].efficiency, "32 → 64 decline");
    assert!(points[1].efficiency > points[2].efficiency, "64 → 128 decline");
    assert!(points[0].efficiency > 0.8, "still near-linear at 32");
}

/// §I / §V.C headline structure: large improvement at 32 cores; the 2-core
/// run takes days, the 128-core run takes hours.
#[test]
fn headline_shape() {
    let s = SweepConfig::default();
    let points = scaling_sweep(&[2, 16, 32, 64, 128], EngineMode::Ad4Only, &s);
    let h = headline(&points);
    assert!(h.improvement_at_32.unwrap() > 85.0, "paper: 95.4%");
    let s16 = h.speedup_at_16.unwrap();
    assert!((8.0..20.0).contains(&s16), "paper: ~13×, got {s16}");
}

/// The paper's full-scale calibration: per-pair activity means sum to the
/// 2-core TETs of 12.5 days (AD4) and ~9 days (Vina) over 10,000 pairs.
#[test]
fn cost_model_matches_paper_tets() {
    let c = CostModel::default();
    let ad4_days = c.per_pair_mean(EngineMode::Ad4Only) * 10_000.0 / 2.0 / 86_400.0;
    let vina_days = c.per_pair_mean(EngineMode::VinaOnly) * 10_000.0 / 2.0 / 86_400.0;
    assert!((10.5..14.0).contains(&ad4_days), "AD4 ≈ 12.5 days, got {ad4_days:.1}");
    assert!((7.5..10.5).contains(&vina_days), "Vina ≈ 9 days, got {vina_days:.1}");
}

/// §V.C fault tolerance: ~10% failures are injected, retried, and all
/// visible in provenance; hangs are aborted; Hg receptors blacklisted.
#[test]
fn fault_tolerance_story() {
    let s = SweepConfig {
        failures: FailureModel {
            fail_rate: 0.10,
            hang_rate: 0.02,
            fail_at_fraction: 0.6,
            seed: 11,
        },
        ..sweep()
    };
    let prov = ProvenanceStore::new();
    let r = simulate_at(16, EngineMode::VinaOnly, &s, Some(&prov));
    let total_attempts = r.finished + r.failed_attempts + r.aborted;
    let fail_frac = r.failed_attempts as f64 / total_attempts as f64;
    assert!((0.04..0.20).contains(&fail_frac), "≈10% failures, got {fail_frac:.2}");
    assert!(r.aborted > 0, "some activations hang and are aborted");
    // blacklisted Hg receptors appear whenever the reduced set contains one
    let statuses = prov
        .query_rows("SELECT status, count(*) FROM hactivation GROUP BY status ORDER BY status", &[])
        .unwrap();
    assert!(statuses.len() >= 2, "FINISHED plus at least one failure status");
}

/// The Hg rule's value, quantified (the paper's anecdote as an experiment):
/// with the rule, poison receptors cost nothing; without it, they burn
/// hang-timeout compute.
#[test]
fn hg_rule_saves_compute() {
    let mut with_rule = sweep();
    with_rule.hg_rule = true;
    with_rule.failures = FailureModel::none();
    with_rule.noise = NoiseModel { amplitude: 0.0 };
    let mut without_rule = with_rule.clone();
    without_rule.hg_rule = false;

    let a = simulate_at(16, EngineMode::VinaOnly, &with_rule, None);
    let b = simulate_at(16, EngineMode::VinaOnly, &without_rule, None);
    // the reduced receptor set may or may not contain Hg; only assert when
    // poison inputs exist
    if a.blacklisted > 0 {
        assert_eq!(b.blacklisted, 0);
        assert!(b.aborted >= a.blacklisted, "without the rule they hang instead");
        assert!(
            b.busy_core_seconds > a.busy_core_seconds,
            "hanging burns compute: {} vs {}",
            b.busy_core_seconds,
            a.busy_core_seconds
        );
    } else {
        // full dataset always has them
        let full = SweepConfig { hg_rule: true, ..Default::default() };
        let tasks_have_poison = scidock::cost::build_sim_tasks(
            &scidock::dataset::Dataset::full(Default::default()),
            EngineMode::VinaOnly,
            &CostModel::default(),
        )
        .iter()
        .any(|t| t.poison);
        assert!(tasks_have_poison, "full Table 2 set must contain Hg receptors");
        let _ = full;
    }
}

/// §VI's data-volume claim: a full execution produces ≈600 GB. Measured
/// through the provenance `hfile` records of a simulated run, scaled from a
/// slice to the full 9,996 pairs.
#[test]
fn data_volume_bookkeeping_near_600gb() {
    let s = SweepConfig { failures: FailureModel::none(), ..sweep() };
    let prov = ProvenanceStore::new();
    let r = simulate_at(16, EngineMode::VinaOnly, &s, Some(&prov));
    let pairs_run = 30 * 6;
    let bytes = provenance::steering::data_volume_bytes(&prov).unwrap();
    // scale the slice volume to the full campaign
    let docked_fraction = r.finished as f64 / (pairs_run * 7) as f64;
    let full_gb = bytes / 1e9 / (pairs_run as f64 * docked_fraction) * 9996.0;
    assert!(
        (400.0..800.0).contains(&full_gb),
        "full-campaign volume ≈600 GB, extrapolated {full_gb:.0} GB"
    );
    // and Query 2 works against the simulated provenance
    let q2 = prov
        .query_rows(
            "SELECT a.tag, f.fname, f.fsize FROM hactivity a, hactivation t, hfile f \
             WHERE a.actid = t.actid AND t.taskid = f.taskid AND f.fname LIKE '%.dlg' LIMIT 5",
            &[],
        )
        .unwrap();
    assert!(!q2.is_empty(), "simulated runs must expose .dlg files to Query 2");
}

/// Scheduler ablation (DESIGN.md): greedy-weighted must not lose badly to
/// round-robin on the heterogeneous SciDock mix.
#[test]
fn greedy_scheduling_competitive() {
    let greedy = SweepConfig { policy: cumulus::Policy::GreedyWeighted, ..sweep() };
    let rr = SweepConfig { policy: cumulus::Policy::RoundRobin, ..sweep() };
    let g = simulate_at(32, EngineMode::Ad4Only, &greedy, None);
    let r = simulate_at(32, EngineMode::Ad4Only, &rr, None);
    assert!(
        g.tet_s <= r.tet_s * 1.10,
        "greedy {} should be within 10% of round-robin {}",
        g.tet_s,
        r.tet_s
    );
}

/// Ablation: scheduling with *profiled* weights (the cost model the real
/// SciCumulus mines from provenance) must come close to oracle weights.
#[test]
fn profile_weights_track_oracle_weights() {
    // run 1: oracle weights, record provenance (full-scale: per-activity
    // means only make sense when each activity has many activations, and
    // at small scale straggler tails dominate the makespan)
    let base = SweepConfig::default();
    let prov = ProvenanceStore::new();
    let oracle = simulate_at(32, EngineMode::Ad4Only, &base, Some(&prov));
    // mine per-activity means and re-run with profile weights
    let profile = cumulus::sched::activity_profiles(&prov);
    assert!(profile.len() >= 6, "all activities profiled: {profile:?}");
    let profiled_sweep = SweepConfig { weight_profile: Some(profile), ..SweepConfig::default() };
    let profiled = simulate_at(32, EngineMode::Ad4Only, &profiled_sweep, None);
    assert!(
        profiled.tet_s <= oracle.tet_s * 1.10,
        "profile-weighted TET {} must be within 10% of oracle {} at full scale",
        profiled.tet_s,
        oracle.tet_s
    );
    // and clearly no worse than scheduling blind (random policy)
    let random_sweep = SweepConfig { policy: cumulus::Policy::Random, ..SweepConfig::default() };
    let random = simulate_at(32, EngineMode::Ad4Only, &random_sweep, None);
    assert!(
        profiled.tet_s <= random.tet_s * 1.05,
        "profiled greedy {} should not lose to random {}",
        profiled.tet_s,
        random.tet_s
    );
}

/// Elasticity ablation: an elastic fleet starting small must beat the same
/// small fixed fleet on a backlogged workload.
#[test]
fn elasticity_beats_fixed_small_fleet() {
    let fixed = sweep();
    let elastic = SweepConfig {
        scheduler: Some(cumulus::SchedulerFactory::new(|| {
            Box::new(cumulus::QueueDepthScheduler::new(cumulus::QueueDepthConfig {
                max_workers: 16,
                ..Default::default()
            }))
        })),
        ..sweep()
    };
    let f = simulate_at(4, EngineMode::Ad4Only, &fixed, None);
    let e = simulate_at(4, EngineMode::Ad4Only, &elastic, None);
    assert!(e.peak_vms > 1, "the fleet must actually grow");
    assert!(e.tet_s < f.tet_s, "elastic {} vs fixed {}", e.tet_s, f.tet_s);
    assert!(e.cost_usd > 0.0 && f.cost_usd > 0.0);
}
