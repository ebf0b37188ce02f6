//! A panicking activity function is a `FAILED` attempt on every backend:
//! it consumes retry budget like a domain error, the run goes on, and the
//! provenance it leaves behind does not depend on where it panicked.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::serve::{CampaignState, Daemon, ServeClient, SubmitOutcome};
use cumulus::workflow::{Activity, WorkflowDef};
use cumulus::{run_dist, Backend, LocalBackend, Relation, RunConfig, Workflow};
use provenance::{export_provn_canonical, ProvenanceStore, Value};

const N: i64 = 6;
const POISON: i64 = 3;
const MAX_RETRIES: u32 = 2;

/// `risky` panics on the tuple `x == 3`, every time; `tag` passes the
/// survivors through.
fn panicky_workflow() -> Workflow {
    let def = WorkflowDef {
        tag: "panicky".into(),
        description: "one tuple's activation always panics".into(),
        expdir: "/exp/panicky".into(),
        activities: vec![
            Activity::map(
                "risky",
                &["x"],
                Arc::new(|part, _| {
                    if part[0][0] == Value::Int(POISON) {
                        panic!("activity function blew up on x = {POISON}");
                    }
                    Ok(part.to_vec())
                }),
            ),
            Activity::map("tag", &["x"], Arc::new(|part, _| Ok(part.to_vec()))),
        ],
        deps: vec![vec![], vec![0]],
    };
    let mut input = Relation::new(&["x"]);
    for i in 0..N {
        input.push(vec![Value::Int(i)]);
    }
    Workflow::new(def, input)
}

fn count(store: &ProvenanceStore, status: &str) -> i64 {
    let rows = store
        .query_rows("SELECT count(*) FROM hactivation WHERE status = ?", &[Value::from(status)])
        .unwrap();
    rows.rows[0][0].as_f64().unwrap() as i64
}

#[test]
fn daemon_campaign_survives_a_panicking_activity_and_shuts_down() {
    // The failure mode this guards against is a hang (the worker thread
    // died, so the campaign never finished and shutdown waited on it
    // forever): run the scenario on its own thread and fail on a deadline.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let prov = Arc::new(ProvenanceStore::new());
        let daemon = Daemon::start(
            RunConfig::new().with_workers(2).with_max_retries(MAX_RETRIES),
            Arc::new(|spec: &str| (spec == "panicky").then(panicky_workflow)),
            Arc::clone(&prov),
        )
        .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let id = match client.submit("alice", 0, "panicky").expect("submit io") {
            SubmitOutcome::Accepted { id } => id,
            SubmitOutcome::Rejected { reason, .. } => panic!("rejected: {reason}"),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let state = loop {
            let state = client.status(id).expect("status io").state;
            if state == CampaignState::Finished || Instant::now() >= deadline {
                break state;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let results = (state == CampaignState::Finished).then(|| client.results(id).unwrap().1);
        drop(client);
        daemon.shutdown();
        let _ = done_tx.send((state, results, prov));
    });
    let (state, results, prov) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the daemon hung on a panicking activity (campaign or shutdown never returned)");

    assert_eq!(state, CampaignState::Finished);
    assert_eq!(results.expect("finished").len(), (N - 1) as usize, "the poison tuple is dropped");
    assert_eq!(count(&prov, "FAILED"), i64::from(MAX_RETRIES) + 1, "initial attempt + retries");
    assert_eq!(count(&prov, "FINISHED"), 2 * (N - 1));
    assert_eq!(count(&prov, "RUNNING"), 0);
}

#[test]
fn local_and_dist_record_a_panicking_activity_identically() {
    let local_store = Arc::new(ProvenanceStore::new());
    let local = LocalBackend::new(RunConfig::new().with_workers(2).with_max_retries(MAX_RETRIES))
        .run(&panicky_workflow(), &local_store)
        .expect("a panicking activity does not abort the run");

    let dist_store = Arc::new(ProvenanceStore::new());
    let wf = panicky_workflow();
    let mut cfg =
        RunConfig::new().with_workers(2).with_max_retries(MAX_RETRIES).with_spec("panicky");
    cfg.resolver = Some(Arc::new(|spec| (spec == "panicky").then(|| panicky_workflow().def)));
    let dist = run_dist(&wf.def, wf.input, wf.files, Arc::clone(&dist_store), &cfg)
        .expect("distributed run");

    for out in [&local, &dist] {
        assert_eq!(out.failed_attempts, MAX_RETRIES as usize + 1);
        assert_eq!(out.finished, 2 * (N - 1) as usize);
        assert_eq!(out.final_output().len(), (N - 1) as usize);
    }
    assert_eq!(
        export_provn_canonical(&local_store),
        export_provn_canonical(&dist_store),
        "canonical provenance must not depend on where the activity panicked"
    );
}
