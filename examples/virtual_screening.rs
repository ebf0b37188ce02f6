//! Virtual screening with the adaptive AD4/Vina split — the scenario the
//! paper's introduction motivates: screen many heterogeneous receptors
//! against candidate ligands, letting SciDock route small receptors to
//! AutoDock 4 and large ones to Vina (activity 6, the docking filter).
//!
//! ```sh
//! cargo run --release --example virtual_screening
//! ```

use std::sync::Arc;

use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, RunConfig, Workflow};
use provenance::ProvenanceStore;
use scidock::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
use scidock::analysis::results_from_provenance;
use scidock::dataset::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};

fn main() {
    // A 12-receptor × 3-ligand slice of Table 2 keeps this example quick.
    let receptor_ids: Vec<&str> = RECEPTOR_IDS[..12].to_vec();
    let ligand_codes: Vec<&str> = LIGAND_CODES[..3].to_vec();
    let ds = Dataset::subset(&receptor_ids, &ligand_codes, DatasetParams::default());

    println!(
        "== adaptive screening: {} receptors × {} ligands = {} pairs ==",
        ds.receptors.len(),
        ds.ligands.len(),
        ds.pair_count()
    );
    let small = ds.receptors.iter().filter(|r| ds.is_small(r)).count();
    println!(
        "   size filter: {small} small receptors → AutoDock 4, {} large → Vina\n",
        ds.receptors.len() - small
    );

    let cfg = SciDockConfig::default();
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(EngineMode::Adaptive, &cfg, Arc::clone(&files));

    let report = LocalBackend::new(RunConfig::new().with_workers(8))
        .run(&Workflow::new(wf.clone(), input).with_files(Arc::clone(&files)), &prov)
        .expect("workflow is valid");

    println!(
        "workflow '{}' finished in {:.1}s wall-clock: {} activations ok, {} blacklisted",
        wf.tag, report.total_seconds, report.finished, report.blacklisted
    );
    println!("shared store now holds {} files ({} bytes)\n", files.len(), files.total_bytes());

    // Pull results back out of provenance (the extractor-recorded params).
    let results = results_from_provenance(&prov);
    let mut by_engine: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
    for r in &results {
        let e = by_engine.entry(r.engine.as_str()).or_default();
        e.0 += 1;
        if r.feb < 0.0 {
            e.1 += 1;
        }
    }
    for (engine, (total, favorable)) in &by_engine {
        println!("{engine}: {total} pairs docked, {favorable} favorable (FEB < 0)");
    }

    // Paper Query 2: find the produced .dlg files without browsing dirs.
    let q2 = prov
        .query_rows(
            "SELECT a.tag, f.fname, f.fsize, f.fdir \
             FROM hactivity a, hactivation t, hfile f \
             WHERE a.actid = t.actid AND t.taskid = f.taskid AND f.fname LIKE '%.dlg' \
             ORDER BY f.fsize DESC LIMIT 5",
            &[],
        )
        .expect("query 2 runs");
    println!("\nlargest .dlg outputs (paper Query 2):\n{q2}");
}
