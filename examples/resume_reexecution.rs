//! SciCumulus' re-execution mechanism: a long-running campaign is hit by
//! failures, drops some activations, and a second run *resumes* from the
//! provenance database — only the missing work executes.
//!
//! ```sh
//! cargo run --release --example resume_reexecution
//! ```

use std::sync::Arc;

use cloudsim::FailureModel;
use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, RunConfig, Workflow};
use provenance::ProvenanceStore;
use scidock::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
use scidock::dataset::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};

fn main() {
    let ds = Dataset::subset(&RECEPTOR_IDS[..8], &LIGAND_CODES[..2], DatasetParams::default());
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let cfg = SciDockConfig { hg_rule: false, ..Default::default() };
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));

    println!("== run 1: {} pairs with heavy failure injection, no retries ==", ds.pair_count());
    let workflow = Workflow::new(wf, input).with_files(Arc::clone(&files));
    let run1 = LocalBackend::new(
        RunConfig::new()
            .with_workers(4)
            .with_failures(FailureModel {
                fail_rate: 0.30,
                hang_rate: 0.0,
                fail_at_fraction: 0.5,
                seed: 99,
            })
            .with_max_retries(0),
    )
    .run(&workflow, &prov)
    .expect("valid workflow");
    println!(
        "  finished {} activations, {} failed attempts → only {}/{} pairs docked",
        run1.finished,
        run1.failed_attempts,
        run1.final_output().len(),
        ds.pair_count()
    );

    println!("\n== run 2: resume from run 1's provenance (workflow id {}) ==", run1.workflow.0);
    let run2 = LocalBackend::new(
        RunConfig::new()
            .with_workers(4)
            .with_failures(FailureModel::none())
            .with_max_retries(3)
            .with_resume_from(run1.workflow),
    )
    .run(&workflow, &prov)
    .expect("valid workflow");
    println!(
        "  resumed {} finished activations from provenance, executed only {} new ones",
        run2.resumed, run2.finished
    );
    println!(
        "  final relation now complete: {}/{} pairs",
        run2.final_output().len(),
        ds.pair_count()
    );

    // show how the engine found the failures: the paper's steering queries
    let q = prov
        .query_rows("SELECT status, count(*) FROM hactivation GROUP BY status ORDER BY status", &[])
        .expect("status query");
    println!("\nprovenance view of both runs:\n{q}");
}
