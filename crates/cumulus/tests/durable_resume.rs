//! Crash-recovery integration tests: a workflow run on a durable
//! provenance store is killed mid-run (injected panic or torn WAL tail),
//! the store is reopened as a fresh process would, and `resume_from`
//! completes the run without re-executing finished activations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cumulus::{
    Activity, Backend, CumulusError, FileStore, LocalBackend, Relation, RunConfig, RunReport,
    Workflow, WorkflowDef,
};
use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};
use provenance::{Durability, DurableOptions, ProvenanceStore, Value};

/// One map activity doubling its input, `calls` counting real executions.
fn doubling_workflow(calls: &Arc<AtomicUsize>) -> WorkflowDef {
    let calls = Arc::clone(calls);
    let func: cumulus::ActivityFn = Arc::new(move |tuples, _ctx| {
        calls.fetch_add(1, Ordering::SeqCst);
        Ok(tuples.iter().map(|t| vec![Value::Float(t[0].as_f64().unwrap_or(0.0) * 2.0)]).collect())
    });
    WorkflowDef {
        tag: "durable-resume".into(),
        description: String::new(),
        expdir: "/e".into(),
        activities: vec![Activity::map("double", &["x2"], func)],
        deps: vec![vec![]],
    }
}

fn input(n: i64) -> Relation {
    let mut rel = Relation::new(&["x"]);
    for k in 0..n {
        rel.push(vec![Value::Int(k)]);
    }
    rel
}

/// Run `wf` over `input` through the `Backend` trait (the non-deprecated
/// surface these tests exercise the engine through).
fn run(
    wf: WorkflowDef,
    input: Relation,
    prov: &Arc<ProvenanceStore>,
    cfg: RunConfig,
) -> Result<RunReport, CumulusError> {
    LocalBackend::new(cfg)
        .run(&Workflow::new(wf, input).with_files(Arc::new(FileStore::new())), prov)
}

fn sync_options() -> DurableOptions {
    DurableOptions { durability: Durability::Sync, ..Default::default() }
}

fn sorted_output(rel: &Relation) -> Vec<f64> {
    let mut v: Vec<f64> = rel.tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn finished_count(prov: &ProvenanceStore) -> i64 {
    let r =
        prov.query_rows("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'", &[]).unwrap();
    r.cell(0, 0).as_f64().unwrap() as i64
}

const N: i64 = 12;

#[test]
fn injected_crash_mid_run_then_reopen_and_resume() {
    // reference: the same workflow run to completion on an in-memory store
    let calls_ref = Arc::new(AtomicUsize::new(0));
    let wf_ref = doubling_workflow(&calls_ref);
    let prov_ref = Arc::new(ProvenanceStore::new());
    let full =
        run(wf_ref, input(N), &prov_ref, RunConfig { workers: 2, ..RunConfig::default() }).unwrap();
    assert_eq!(full.finished, N as usize);

    // crashing run: the storage env panics after a handful of WAL appends,
    // which is how a process dying mid-run looks to the storage layer
    let env = MemEnv::new();
    let plan = Arc::new(FaultPlan::panic_after(9));
    let fault = FaultEnv::new(Box::new(env.clone()), Arc::clone(&plan));
    let prov1 =
        Arc::new(ProvenanceStore::open_env(Box::new(fault), sync_options()).expect("fresh env"));
    let calls1 = Arc::new(AtomicUsize::new(0));
    let wf1 = doubling_workflow(&calls1);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run(wf1, input(N), &prov1, RunConfig { workers: 2, ..RunConfig::default() })
    }));
    assert!(crashed.is_err(), "the injected fault must kill the run");
    assert!(plan.appends_seen() >= 9);
    // a killed process runs no destructors
    std::mem::forget(prov1);

    // "new process": reopen the same storage and look at what survived
    let prov2 = Arc::new(
        ProvenanceStore::open_env(Box::new(env.clone()), sync_options()).expect("recovery"),
    );
    let recovered = finished_count(&prov2);
    assert!(recovered < N, "the crash must have cut the run short, got {recovered}");
    let prior = prov2.latest_workflow().expect("workflow row was committed before the crash");

    // resume: only the missing activations execute, output matches the
    // uninterrupted reference run
    let calls2 = Arc::new(AtomicUsize::new(0));
    let wf2 = doubling_workflow(&calls2);
    let resumed = run(
        wf2,
        input(N),
        &prov2,
        RunConfig { workers: 2, resume_from: Some(prior), ..RunConfig::default() },
    )
    .unwrap();
    assert_eq!(resumed.resumed as i64, recovered, "every recovered FINISHED row is reused");
    assert_eq!(resumed.finished + resumed.resumed, N as usize);
    assert_eq!(calls2.load(Ordering::SeqCst) as i64, N - recovered);
    assert_eq!(sorted_output(resumed.final_output()), sorted_output(full.final_output()));
}

#[test]
fn torn_wal_tail_recovers_committed_prefix_and_resumes() {
    // full durable run, fsync per op so each frame is independently durable
    let calls = Arc::new(AtomicUsize::new(0));
    let wf = doubling_workflow(&calls);
    let env = MemEnv::new();
    let prov1 = Arc::new(ProvenanceStore::open_env(Box::new(env.clone()), sync_options()).unwrap());
    let full = run(wf, input(N), &prov1, RunConfig { workers: 2, ..RunConfig::default() }).unwrap();
    drop(prov1);

    // simulate a crash mid-write: keep ~60% of the WAL and smear garbage
    // over the end, as a torn final write would
    let wal = env.wal_bytes();
    let cut = wal.len() * 6 / 10;
    let torn = MemEnv::new();
    let mut bytes = wal[..cut].to_vec();
    bytes.extend_from_slice(&[0xFF; 7]);
    torn.set_wal_bytes(bytes);

    let prov2 =
        Arc::new(ProvenanceStore::open_env(Box::new(torn.clone()), sync_options()).unwrap());
    let recovered = finished_count(&prov2);
    assert!(recovered < N, "truncation must lose some rows");
    let prior = prov2.latest_workflow().expect("workflow row inside the kept prefix");

    let calls2 = Arc::new(AtomicUsize::new(0));
    let wf2 = doubling_workflow(&calls2);
    let resumed = run(
        wf2,
        input(N),
        &prov2,
        RunConfig { workers: 2, resume_from: Some(prior), ..RunConfig::default() },
    )
    .unwrap();
    assert_eq!(resumed.finished + resumed.resumed, N as usize);
    // a FINISHED row and its outputs are one WAL record, so every recovered
    // FINISHED row is fully resumable
    assert_eq!(resumed.resumed as i64, recovered);
    assert_eq!(sorted_output(resumed.final_output()), sorted_output(full.final_output()));
}

#[test]
fn durability_knob_and_steering_flush_reach_the_wal() {
    let env = MemEnv::new();
    let prov = Arc::new(ProvenanceStore::open_env(Box::new(env.clone()), sync_options()).unwrap());
    assert!(prov.is_durable());
    let calls = Arc::new(AtomicUsize::new(0));
    let wf = doubling_workflow(&calls);
    let cfg = RunConfig {
        workers: 2,
        steering_tick: Some(std::time::Duration::from_millis(1)),
        ..RunConfig::default()
    };
    let r = run(wf, input(N), &prov, cfg).unwrap();
    assert_eq!(r.finished, N as usize);
    drop(prov);

    // clean reopen: everything the run acknowledged is present
    let prov2 = Arc::new(ProvenanceStore::open_env(Box::new(env), Default::default()).unwrap());
    assert_eq!(finished_count(&prov2), N);
    // a second run resumes fully from the recovered store
    let calls2 = Arc::new(AtomicUsize::new(0));
    let wf2 = doubling_workflow(&calls2);
    let prior = prov2.latest_workflow().unwrap();
    let r2 = run(
        wf2,
        input(N),
        &prov2,
        RunConfig { workers: 4, resume_from: Some(prior), ..RunConfig::default() },
    )
    .unwrap();
    assert_eq!(r2.resumed, N as usize);
    assert_eq!(calls2.load(Ordering::SeqCst), 0, "nothing re-executes");
}
