//! Crash-recovery smoke target: a real process killed with `SIGKILL`
//! mid-run, then resumed from the surviving on-disk provenance.
//!
//! ```sh
//! provstore_crash run <dir>     # durable run; prints TICK lines; exit 0 when done
//! provstore_crash resume <dir>  # reopen <dir>, resume, verify, print RESUME OK
//! ```
//!
//! The driver (`crates/bench/tests/crash_recovery.rs`, also wired into
//! `ci.sh`) spawns `run`, waits for a few TICK lines, delivers `kill -9`,
//! then invokes `resume` as a genuinely fresh process and asserts the
//! workflow completes without re-executing recovered activations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cumulus::{
    Activity, ActivityFn, Backend, LocalBackend, Relation, RunConfig, Workflow, WorkflowDef,
};
use provenance::durable::io::DirEnv;
use provenance::{Durability, DurableOptions, ProvenanceStore, Value};

/// Input pairs; each activation sleeps [`SLOW_MS`], so a full run takes
/// long enough for the driver to land a kill mid-stream.
const N: i64 = 48;
const SLOW_MS: u64 = 20;

fn workflow(calls: &Arc<AtomicUsize>) -> WorkflowDef {
    let calls = Arc::clone(calls);
    let func: ActivityFn = Arc::new(move |tuples, _ctx| {
        std::thread::sleep(Duration::from_millis(SLOW_MS));
        let k = calls.fetch_add(1, Ordering::SeqCst) + 1;
        // progress marker for the driver; flushed so the kill can be timed
        println!("TICK {k}");
        Ok(tuples.iter().map(|t| vec![Value::Float(t[0].as_f64().unwrap_or(0.0) * 2.0)]).collect())
    });
    WorkflowDef {
        tag: "crash-smoke".into(),
        description: "kill -9 recovery smoke".into(),
        expdir: "/e".into(),
        activities: vec![Activity::map("double", &["x2"], func)],
        deps: vec![vec![]],
    }
}

fn input() -> Relation {
    let mut rel = Relation::new(&["x"]);
    for k in 0..N {
        rel.push(vec![Value::Int(k)]);
    }
    rel
}

fn open(dir: &str) -> Arc<ProvenanceStore> {
    let env = DirEnv::new(dir).expect("storage dir");
    Arc::new(
        ProvenanceStore::open_env(
            Box::new(env),
            DurableOptions { durability: Durability::Sync, ..Default::default() },
        )
        .expect("open durable store"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, dir) = match args.as_slice() {
        [m, d] if m == "run" || m == "resume" => (m.as_str(), d.as_str()),
        _ => {
            eprintln!("usage: provstore_crash run|resume <dir>");
            std::process::exit(2);
        }
    };

    let prov = open(dir);
    let calls = Arc::new(AtomicUsize::new(0));
    let wf = workflow(&calls);
    let resume_from = match mode {
        "resume" => {
            Some(prov.latest_workflow().expect("the killed run committed its workflow row"))
        }
        _ => None,
    };
    let cfg = RunConfig { workers: 2, resume_from, ..RunConfig::default() };
    let report = LocalBackend::new(cfg).run(&Workflow::new(wf, input()), &prov).unwrap();

    assert_eq!(report.finished + report.resumed, N as usize, "every pair accounted for");
    let mut out: Vec<f64> =
        report.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
    out.sort_by(f64::total_cmp);
    let want: Vec<f64> = (0..N).map(|k| k as f64 * 2.0).collect();
    assert_eq!(out, want, "doubled output survives the crash");

    match mode {
        "run" => println!("RUN OK finished={}", report.finished),
        _ => {
            assert_eq!(
                report.resumed,
                N as usize - calls.load(Ordering::SeqCst),
                "recovered activations must not re-execute"
            );
            println!("RESUME OK resumed={} executed={}", report.resumed, report.finished);
        }
    }
}
