//! Cross-backend parity: the same workflow run through `LocalBackend` and
//! through `run_dist` (one real `scidock-worker` OS process) must leave
//! byte-identical canonical PROV-N provenance and answer the steering
//! queries identically.

use std::sync::Arc;

use cumulus::workflow::FileStore;
use cumulus::{activity_timings, run_dist, Backend, LocalBackend, RunConfig, RunReport, Workflow};
use provenance::steering::{failures_by_activity, problematic_pairs, status_summary};
use provenance::{export_provn_canonical, ProvenanceStore};
use scidock_bench::distspec;

const SPEC: &str = "scidock:adaptive:2x2";

fn workflow() -> Workflow {
    let files = Arc::new(FileStore::new());
    let def = distspec::resolve_with(SPEC, &files).expect("known spec");
    let input = distspec::prepare(SPEC, &files).expect("known spec");
    Workflow::new(def, input).with_files(files)
}

fn run(backend: &dyn Backend) -> (RunReport, Arc<ProvenanceStore>) {
    let store = Arc::new(ProvenanceStore::new());
    let outcome = backend.run(&workflow(), &store).expect("run succeeds");
    (outcome, store)
}

fn sorted_rows(rel: &cumulus::Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel
        .tuples
        .iter()
        .map(|t| t.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|"))
        .collect();
    rows.sort();
    rows
}

#[test]
fn local_and_dist_runs_are_provenance_identical() {
    let local: Box<dyn Backend> = Box::new(LocalBackend::new(RunConfig::new().with_workers(2)));
    let dist = RunConfig::new()
        .with_workers(1)
        .with_worker_command(env!("CARGO_BIN_EXE_scidock-worker"), Vec::new())
        .with_spec(SPEC);

    let (lout, lstore) = run(local.as_ref());
    let (dout, dstore) = {
        let (wf, store) = (workflow(), Arc::new(ProvenanceStore::new()));
        let out =
            run_dist(&wf.def, wf.input, wf.files, Arc::clone(&store), &dist).expect("run succeeds");
        (out, store)
    };

    assert_eq!(lout.finished, dout.finished);
    assert_eq!(lout.failed_attempts, dout.failed_attempts);
    assert_eq!(lout.blacklisted, dout.blacklisted);
    assert!(lout.finished > 0);

    // the docked results are the same data (order is schedule-dependent)
    assert_eq!(
        sorted_rows(lout.final_output()),
        sorted_rows(dout.final_output()),
        "local and distributed outputs must carry identical tuples"
    );

    // canonical provenance is bitwise identical across backends
    assert_eq!(
        export_provn_canonical(&lstore),
        export_provn_canonical(&dstore),
        "canonical PROV-N must not depend on the execution substrate"
    );

    // the steering queries see the same world
    assert_eq!(status_summary(&lstore).unwrap(), status_summary(&dstore).unwrap());
    assert_eq!(failures_by_activity(&lstore).unwrap(), failures_by_activity(&dstore).unwrap());
    assert_eq!(problematic_pairs(&lstore, 1).unwrap(), problematic_pairs(&dstore, 1).unwrap());

    // per-activity timing folds cover the same activities in both worlds
    let tags = |o: &RunReport, store: &ProvenanceStore| {
        activity_timings(store, o.workflow).into_iter().map(|t| t.tag).collect::<Vec<_>>()
    };
    assert_eq!(tags(&lout, &lstore), tags(&dout, &dstore));
}
