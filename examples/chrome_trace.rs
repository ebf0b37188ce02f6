//! Observability quickstart: run a small real docking campaign with a
//! telemetry collector attached, watch it through the steering queries
//! *while it runs*, then export the whole execution as a Chrome-trace JSON
//! you can open in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release --example chrome_trace
//! ```

use std::sync::Arc;
use std::time::Duration;

use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, RunConfig, Workflow};
use provenance::{steering, ProvenanceStore};
use scidock::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
use scidock::dataset::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};
use telemetry::Telemetry;

fn main() {
    let cfg = SciDockConfig::default();
    let ds = Dataset::subset(&RECEPTOR_IDS[..3], &LIGAND_CODES[..2], DatasetParams::default());
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));

    let tel = Telemetry::attached();
    println!("docking {} receptor-ligand pairs with telemetry attached …\n", ds.pair_count());

    // watch the run from a second thread through the live-steering bridge:
    // the in-flight activation state is flushed into the provenance store on
    // every tick, so the paper's monitoring queries answer *during* the run
    let watcher = {
        let prov = Arc::clone(&prov);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(150));
            let counts = steering::status_summary(&prov).unwrap_or_default();
            let line: Vec<String> =
                counts.iter().map(|c| format!("{} {}", c.count, c.status)).collect();
            println!("  [steering] {}", line.join(", "));
            if counts.iter().all(|c| c.status != "RUNNING") && !counts.is_empty() {
                break;
            }
        })
    };

    let backend = LocalBackend::new(
        RunConfig::new()
            .with_workers(4)
            .with_telemetry(tel.clone())
            .with_steering_tick(Duration::from_millis(50)),
    );
    let report = backend
        .run(&Workflow::new(wf, input).with_files(files), &prov)
        .expect("workflow validated");
    watcher.join().expect("watcher thread");

    println!("\nfinished {} activations in {:.1} s", report.finished, report.total_seconds);

    // the aggregated view: per-activity latency quantiles + worker utilisation
    let metrics = report.metrics.expect("collector was attached");
    println!("\nper-activity latency (from RunReport::metrics):");
    for h in metrics.histograms.iter().filter(|h| h.name.starts_with("activation.")) {
        println!(
            "  {:<28} n={:<4} p50 {:>7.1} ms   p95 {:>7.1} ms   max {:>7.1} ms",
            h.name,
            h.count,
            h.p50_s * 1e3,
            h.p95_s * 1e3,
            h.max_s * 1e3
        );
    }
    println!("\nworker utilisation:");
    for t in metrics.tracks.iter().filter(|t| t.name.starts_with("cumulus-worker")) {
        println!("  {:<20} {:>5.1}% busy ({} spans)", t.name, t.utilization * 100.0, t.spans);
    }

    // the timeline view: one lane per worker thread, spans nested
    // activation → attempt, plus the engine's dispatcher lane
    let trace = tel.export_chrome_trace().expect("collector was attached");
    let path = "target/scidock_trace.json";
    std::fs::write(path, &trace).expect("write trace");
    println!("\nwrote {path} ({} bytes)", trace.len());
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
}
