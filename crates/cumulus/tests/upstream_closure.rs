//! A crash at any WAL append of a two-stage run leaves no downstream
//! `FINISHED` row whose upstream is not `FINISHED`, and resuming from what
//! survived reproduces the uninterrupted run's output.
//!
//! Four worker threads settle a `stage` → `dock` Map chain concurrently.
//! Their rows reach the store through the run's one committer, in the order
//! the engine learnt of them, and the engine dispatches a `dock` only after
//! its `stage` settled: so a `stage` row is always logged before its
//! `dock` row, whichever threads settled them.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use cumulus::{
    Activity, Backend, FileStore, LocalBackend, Relation, RunConfig, RunReport, Workflow,
    WorkflowDef,
};
use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};
use provenance::{ProvenanceStore, Value};

const PAIRS: i64 = 16;
/// Opening the store, the workflow and its two activities.
const SETUP_APPENDS: u64 = 4;

/// `stage` passes each `(pair, x)` on unchanged, so a `dock` activation's
/// pair key is its upstream's; `dock` doubles `x`. Both sleep a little,
/// differently per pair, so the four workers settle out of order.
fn chain() -> WorkflowDef {
    let nap = |x: i64| std::thread::sleep(Duration::from_micros((x % 4) as u64 * 400));
    let stage = Activity::map(
        "stage",
        &["pair", "x"],
        Arc::new(move |part, _| {
            nap(part[0][1].as_f64().unwrap_or(0.0) as i64);
            Ok(part.to_vec())
        }),
    );
    let dock = Activity::map(
        "dock",
        &["pair", "x"],
        Arc::new(move |part, _| {
            let x = part[0][1].as_f64().unwrap_or(0.0);
            nap(x as i64 + 1);
            Ok(vec![vec![part[0][0].clone(), Value::Float(x * 2.0)]])
        }),
    );
    WorkflowDef {
        tag: "closure".into(),
        description: "stage → dock".into(),
        expdir: "/exp/closure".into(),
        activities: vec![stage, dock],
        deps: vec![vec![], vec![0]],
    }
}

fn run(prov: &Arc<ProvenanceStore>, cfg: RunConfig) -> RunReport {
    let mut input = Relation::new(&["pair", "x"]);
    for k in 0..PAIRS {
        input.push(vec![Value::from(format!("P{k:02}")), Value::Int(k)]);
    }
    let wf = Workflow::new(chain(), input).with_files(Arc::new(FileStore::new()));
    LocalBackend::new(cfg).run(&wf, prov).expect("the run completes")
}

fn sorted_output(out: &RunReport) -> Vec<String> {
    let mut rows: Vec<String> =
        out.final_output().tuples.iter().map(|t| format!("{}|{}", t[0], t[1])).collect();
    rows.sort();
    rows
}

fn finished_keys(prov: &ProvenanceStore, tag: &str) -> BTreeSet<String> {
    let sql = "SELECT t.pairkey FROM hactivation t, hactivity a \
               WHERE t.actid = a.actid AND a.tag = ? AND t.status = 'FINISHED'";
    let rows = prov.query_rows(sql, &[Value::from(tag)]).unwrap().rows;
    rows.iter().map(|r| r[0].to_string()).collect()
}

#[test]
fn a_crash_at_any_append_keeps_every_finished_dock_above_a_finished_stage() {
    let reference = sorted_output(&run(
        &Arc::new(ProvenanceStore::new()),
        RunConfig { workers: 4, ..RunConfig::default() },
    ));
    let activations = 2 * PAIRS as u64;
    for k in SETUP_APPENDS + 1..=SETUP_APPENDS + activations {
        let env = MemEnv::new();
        let plan = Arc::new(FaultPlan::panic_after(k));
        let fault = FaultEnv::new(Box::new(env.clone()), Arc::clone(&plan));
        let prov =
            Arc::new(ProvenanceStore::open_env(Box::new(fault), Default::default()).unwrap());
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            run(&prov, RunConfig { workers: 4, ..RunConfig::default() })
        }));
        assert!(crashed.is_err(), "append {k}: the injected crash must kill the run");
        // a killed process runs no destructors
        std::mem::forget(prov);

        let prov = Arc::new(ProvenanceStore::open_env(Box::new(env), Default::default()).unwrap());
        let (stage, dock) = (finished_keys(&prov, "stage"), finished_keys(&prov, "dock"));
        let orphans: Vec<&String> = dock.difference(&stage).collect();
        assert!(orphans.is_empty(), "append {k}: dock FINISHED without its stage: {orphans:?}");
        let kept = (k - SETUP_APPENDS) as usize;
        assert_eq!(stage.len() + dock.len(), kept, "append {k}: the records up to the crash");

        let prior = prov.latest_workflow().expect("the workflow row precedes every crash");
        let resumed =
            run(&prov, RunConfig { workers: 4, resume_from: Some(prior), ..RunConfig::default() });
        assert_eq!(resumed.resumed, stage.len() + dock.len(), "append {k}");
        assert_eq!(sorted_output(&resumed), reference, "append {k}: resume reproduces the run");
    }
}
