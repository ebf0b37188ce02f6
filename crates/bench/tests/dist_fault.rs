//! Fault injection against real worker processes: SIGKILL a
//! `scidock-worker` mid-activation and prove the run completes with exactly
//! one reassignment and the same results as a fault-free run.

use std::sync::Arc;

use cumulus::distbackend::{run_dist, KillPlan};
use cumulus::workflow::FileStore;
use cumulus::{RunConfig, RunReport};
use provenance::ProvenanceStore;
use scidock_bench::distspec;

const SPEC: &str = "unit:sleep:6:100";

fn run(kill: Option<KillPlan>) -> (RunReport, Arc<ProvenanceStore>) {
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let def = distspec::resolve_with(SPEC, &files).expect("known spec");
    let input = distspec::prepare(SPEC, &files).expect("known spec");
    let mut cfg = RunConfig::new()
        .with_workers(2)
        .with_worker_command(env!("CARGO_BIN_EXE_scidock-worker"), Vec::new())
        .with_spec(SPEC);
    cfg.max_in_flight = 1;
    cfg.kill_plan = kill;
    let report = run_dist(&def, input, files, Arc::clone(&prov), &cfg).expect("run completes");
    (report, prov)
}

fn sorted_output(report: &RunReport) -> Vec<String> {
    let mut rows: Vec<String> = report
        .outputs
        .last()
        .expect("one activity")
        .tuples
        .iter()
        .map(|t| t.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    rows
}

#[test]
fn sigkilled_worker_mid_activation_does_not_lose_work() {
    let (clean, _) = run(None);
    assert_eq!(clean.finished, 6);
    assert_eq!(clean.failed_attempts, 0);

    // SIGKILL worker 0 right after its first activation is dispatched —
    // the activation dies mid-sleep inside the worker process
    let (faulted, prov) = run(Some(KillPlan { worker: 0, after_runs: 1 }));
    assert_eq!(faulted.finished, 6, "the lost activation is reassigned and completes");
    assert_eq!(faulted.failed_attempts, 1, "exactly one attempt died with the worker");
    assert_eq!(faulted.blacklisted, 0, "one crash stays within the reassign budget");
    assert_eq!(sorted_output(&faulted), sorted_output(&clean), "results are fault-invariant");

    // provenance shows the crash: one FAILED attempt, and the reassigned
    // activation's FINISHED row carries the bumped attempt counter
    let failed =
        prov.query_rows("SELECT pairkey FROM hactivation WHERE status = 'FAILED'", &[]).unwrap();
    assert_eq!(failed.rows.len(), 1, "exactly one extra FAILED attempt recorded");
    let retried = prov
        .query_rows(
            "SELECT count(*) FROM hactivation WHERE status = 'FINISHED' AND retries >= 1",
            &[],
        )
        .unwrap();
    assert_eq!(retried.rows[0][0].as_f64().unwrap() as i64, 1);
}
