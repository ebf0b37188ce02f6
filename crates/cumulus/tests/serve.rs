//! Integration tests for `scidockd` — the multi-campaign daemon.
//!
//! The headline test drives 9 concurrent campaigns from 4 tenants through
//! one daemon over a shared elastic fleet and asserts the service
//! contract end to end: every campaign completes, each campaign's
//! canonical PROV-N (scoped to its workflow namespace in the shared
//! store) is byte-identical to the same workflow run one-shot through the
//! local backend, steering queries answer mid-run across campaigns, and
//! the `/campaigns` observability route reports every tenant.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cumulus::obs::{BoundAddr, EventLog};
use cumulus::serve::{CampaignResolver, CampaignState, Daemon, ServeClient, SubmitOutcome};
use cumulus::workflow::{Activity, FileStore, WorkflowDef};
use cumulus::{
    Backend, LocalBackend, QueueDepthConfig, QueueDepthScheduler, Relation, RunConfig,
    SchedulerFactory, Workflow,
};
use provenance::{
    export_provn_canonical_for, ActivationRecord, ActivationStatus, ProvenanceStore, Value,
};
use telemetry::Telemetry;

/// A latch that holds a campaign's activations until the test opens it.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn wait(&self) {
        let (open, cv) = &*self.0;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }

    fn open(&self) {
        let (open, cv) = &*self.0;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
}

/// A two-stage map chain (`scale` → `tag`) over `n` pair rows, each
/// activation sleeping `ms` so campaigns genuinely overlap on the fleet.
fn test_workflow(tag: &str, n: usize, ms: u64) -> Workflow {
    gated_workflow(tag, n, ms, None)
}

/// [`test_workflow`] whose `scale` activations first wait for `gate`.
fn gated_workflow(tag: &str, n: usize, ms: u64, gate: Option<Gate>) -> Workflow {
    let def = WorkflowDef {
        tag: tag.to_string(),
        description: format!("serve test workflow {tag}"),
        expdir: "/exp/serve".into(),
        activities: vec![
            Activity::map(
                "scale",
                &["pair", "x"],
                Arc::new(move |part, _| {
                    if let Some(gate) = &gate {
                        gate.wait();
                    }
                    if ms > 0 {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    Ok(part
                        .iter()
                        .map(|t| {
                            let x = match t[1] {
                                Value::Int(i) => i,
                                _ => 0,
                            };
                            vec![t[0].clone(), Value::Int(x * 2)]
                        })
                        .collect())
                }),
            ),
            Activity::map("tag", &["pair", "x"], Arc::new(|part, _| Ok(part.to_vec()))),
        ],
        deps: vec![vec![], vec![0]],
    };
    let mut input = Relation::new(&["pair", "x"]);
    for i in 0..n {
        input.push(vec![Value::from(format!("P{i:03}")), Value::Int(i as i64)]);
    }
    Workflow::new(def, input).with_files(Arc::new(FileStore::new()))
}

/// Resolves `wf:<tag>:<n>:<ms>` specs; anything else is unknown.
fn resolver() -> CampaignResolver {
    gated_resolver(Gate::default())
}

/// [`resolver`], plus `gated:<tag>:<n>:<ms>` specs: the same workflow, whose
/// `scale` activations wait for `gate` to open.
fn gated_resolver(gate: Gate) -> CampaignResolver {
    Arc::new(move |spec: &str| {
        let (rest, gate) = match spec.strip_prefix("gated:") {
            Some(rest) => (rest, Some(gate.clone())),
            None => (spec.strip_prefix("wf:")?, None),
        };
        let mut parts = rest.split(':');
        let tag = parts.next()?;
        let n: usize = parts.next()?.parse().ok()?;
        let ms: u64 = parts.next()?.parse().ok()?;
        Some(gated_workflow(&format!("wf-{tag}"), n, ms, gate))
    })
}

fn wait_state(
    client: &mut ServeClient,
    id: u64,
    want: CampaignState,
    timeout: Duration,
) -> CampaignState {
    let deadline = Instant::now() + timeout;
    loop {
        let st = client.status(id).expect("status io");
        if st.state == want || Instant::now() >= deadline {
            return st.state;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn nine_campaigns_from_four_tenants_share_one_daemon() {
    let tel = Telemetry::attached();
    let events = EventLog::new();
    let bound = BoundAddr::new();
    let factory = SchedulerFactory::new(|| {
        Box::new(QueueDepthScheduler::new(QueueDepthConfig {
            backlog_factor: 1.5,
            grow_step: 2,
            cooldown: 2,
            min_workers: 1,
            max_workers: 6,
        }))
    });
    let prov = Arc::new(ProvenanceStore::new());
    let gate = Gate::default();
    let mut cfg = RunConfig {
        workers: 2,
        min_workers: 1,
        max_workers: 6,
        max_active: 16,
        scheduler: Some(factory),
        steering_tick: Some(Duration::from_millis(5)),
        telemetry: tel.clone(),
        events: Some(events.clone()),
        metrics_addr: Some("127.0.0.1:0".into()),
        ..RunConfig::default()
    };
    cfg.metrics_bound = Some(bound.clone());
    let daemon =
        Daemon::start(cfg, gated_resolver(gate.clone()), Arc::clone(&prov)).expect("daemon starts");

    // 9 campaigns, 4 tenants, distinct workflow tags so each campaign's
    // namespace in the shared store is identifiable by tag; campaign c0's
    // `scale` activations hold until the test opens the gate
    let tenants = ["alice", "bob", "carol", "dave"];
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    let mut ids: Vec<(u64, String, String)> = Vec::new(); // (id, tenant, tag)
    for i in 0..9usize {
        let tenant = tenants[i % tenants.len()];
        let spec = if i == 0 { format!("gated:c{i}:8:4") } else { format!("wf:c{i}:8:4") };
        match client.submit(tenant, (i % 3) as u8, &spec).expect("submit io") {
            SubmitOutcome::Accepted { id } => {
                ids.push((id, tenant.to_string(), format!("wf-c{i}")))
            }
            SubmitOutcome::Rejected { reason, .. } => panic!("admission rejected {spec}: {reason}"),
        }
    }

    // steering answers MID-RUN, across campaigns, from the shared store:
    // the bridge publishes RUNNING rows for in-flight activations of every
    // campaign on its tick, and c0's stay in flight until the gate opens
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut saw_running = false;
    while Instant::now() < deadline {
        let (_, rows) = client
            .query("SELECT count(*) FROM hactivation WHERE status = 'RUNNING'")
            .expect("query io");
        if rows[0][0].as_f64().unwrap_or(0.0) > 0.0 {
            saw_running = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    gate.open();
    assert!(saw_running, "steering rows must be queryable while campaigns run");

    for (id, _, _) in &ids {
        let state = wait_state(&mut client, *id, CampaignState::Finished, Duration::from_secs(60));
        assert_eq!(state, CampaignState::Finished, "campaign {id} must complete");
    }

    // every campaign's final output came back over the wire
    for (id, _, tag) in &ids {
        let (columns, tuples) = client.results(*id).expect("results io");
        assert_eq!(columns, vec!["pair".to_string(), "x".to_string()], "{tag}");
        assert_eq!(tuples.len(), 8, "{tag} must produce all 8 rows");
    }

    // cross-campaign provenance: one store holds all 9 workflow namespaces
    let (_, rows) = client.query("SELECT count(*) FROM hworkflow").expect("query io");
    assert_eq!(rows[0][0].as_f64().unwrap_or(0.0) as i64, 9);
    let (_, rows) =
        client.query("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'").expect("query");
    assert!(rows[0][0].as_f64().unwrap_or(0.0) as i64 >= 9 * 9, "two stages over 8 rows each");

    // the /campaigns observability route lists every tenant's campaigns
    let obs_addr = bound.wait(Duration::from_secs(2)).expect("obs endpoint bound");
    let (code, body) =
        cumulus::obs::http_get(obs_addr, "/campaigns", Duration::from_secs(2)).expect("scrape");
    assert_eq!(code, 200);
    for tenant in tenants {
        assert!(body.contains(&format!("\"tenant\":\"{tenant}\"")), "missing {tenant}: {body}");
    }
    assert!(body.contains("\"state\":\"finished\""));

    // observing a daemon whose campaigns are all terminal costs it no p95
    // sort however often it is polled (each Status is an engine message, and
    // the rows are refreshed after every message), and the report stands
    let sorts = tel.counter("campaign.p95_sorts").expect("attached");
    let sorted_while_live = sorts.get();
    assert!(sorted_while_live > 0, "live campaigns' p95 is computed on refresh");
    for _ in 0..20 {
        for (id, _, _) in &ids {
            assert_eq!(client.status(*id).expect("status io").state, CampaignState::Finished);
        }
    }
    assert_eq!(sorts.get(), sorted_while_live, "a finished campaign's p95 is frozen");
    let (_, again) =
        cumulus::obs::http_get(obs_addr, "/campaigns", Duration::from_secs(2)).expect("scrape");
    assert_eq!(again, body);

    // the fleet actually flexed: queue-depth policy grew it beyond the
    // initial 2 workers at some point
    assert!(
        events.events().iter().any(|e| e.kind == "fleet_scale"
            && e.fields.iter().any(|(k, v)| k == "decision" && v.starts_with("grow"))),
        "elastic fleet must have grown under 9-campaign load"
    );

    daemon.shutdown();

    // PROV-N parity: each campaign's scoped canonical export from the
    // SHARED store is byte-identical to the same workflow run one-shot
    // through the local backend into a fresh store
    let wf_rows = prov.query_rows("SELECT wkfid, tag FROM hworkflow", &[]).expect("wkf listing");
    for (_, _, tag) in &ids {
        let wkfid = wf_rows
            .rows
            .iter()
            .find(|r| r[1].as_str() == Some(tag.as_str()))
            .map(|r| provenance::WorkflowId(r[0].as_f64().unwrap() as i64))
            .unwrap_or_else(|| panic!("campaign {tag} missing from shared store"));

        let solo_prov = Arc::new(ProvenanceStore::new());
        let wf = test_workflow(tag, 8, 0);
        LocalBackend::new(RunConfig { workers: 2, ..RunConfig::default() })
            .run(&wf, &solo_prov)
            .expect("one-shot run");
        let solo_wkf = solo_prov.latest_workflow().expect("one-shot workflow recorded");
        assert_eq!(
            export_provn_canonical_for(&prov, wkfid),
            export_provn_canonical_for(&solo_prov, solo_wkf),
            "campaign {tag}: daemon provenance must equal one-shot provenance"
        );
    }

    // campaign lifecycle events and metrics made it to the obs plane
    let kinds: Vec<String> = events.events().iter().map(|e| e.kind.clone()).collect();
    for kind in ["campaign_submitted", "campaign_started", "campaign_finished"] {
        assert!(kinds.iter().any(|k| k == kind), "missing {kind} event");
    }
    let snap = tel.snapshot().expect("attached");
    assert_eq!(snap.counter("campaign.submitted"), Some(9));
    assert_eq!(snap.counter("campaign.finished"), Some(9));
}

#[test]
fn overload_rejects_with_retry_after_and_keeps_the_queue_bounded() {
    let daemon = Daemon::start(
        RunConfig {
            workers: 1,
            max_active: 1,
            max_pending: 2,
            retry_after_ms: 750,
            ..RunConfig::default()
        },
        resolver(),
        Arc::new(ProvenanceStore::new()),
    )
    .expect("daemon starts");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");

    // one running campaign with slow activations holds the slot...
    let SubmitOutcome::Accepted { id: running } =
        client.submit("alice", 0, "wf:slow:4:60").expect("submit io")
    else {
        panic!("first submission must be admitted");
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.status(running).expect("status").state != CampaignState::Running {
        assert!(Instant::now() < deadline, "first campaign never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // ...the next two fill the bounded pending queue...
    let mut queued = Vec::new();
    for _ in 0..2 {
        match client.submit("alice", 0, "wf:q:2:10").expect("submit io") {
            SubmitOutcome::Accepted { id } => queued.push(id),
            SubmitOutcome::Rejected { reason, .. } => {
                panic!("within bound, yet rejected: {reason}")
            }
        }
    }

    // ...and everything past the bound is rejected with the configured
    // retry-after hint — the queue does not grow
    for _ in 0..5 {
        match client.submit("bob", 7, "wf:x:2:10").expect("submit io") {
            SubmitOutcome::Accepted { id } => panic!("queue overflowed: admitted campaign {id}"),
            SubmitOutcome::Rejected { reason, retry_after_ms } => {
                assert_eq!(reason, "pending queue full");
                assert_eq!(retry_after_ms, 750);
            }
        }
    }

    // once the backlog drains, admission opens again
    for id in [running, queued[0], queued[1]] {
        assert_eq!(
            wait_state(&mut client, id, CampaignState::Finished, Duration::from_secs(60)),
            CampaignState::Finished
        );
    }
    assert!(matches!(
        client.submit("bob", 0, "wf:later:2:1").expect("submit io"),
        SubmitOutcome::Accepted { .. }
    ));

    // with the queue no longer full, a structurally bad submission is a
    // permanent rejection (no retry hint)
    match client.submit("bob", 0, "no-such-spec").expect("submit io") {
        SubmitOutcome::Rejected { reason, retry_after_ms } => {
            assert_eq!(reason, "unknown spec");
            assert_eq!(retry_after_ms, 0);
        }
        SubmitOutcome::Accepted { .. } => panic!("unknown spec must not be admitted"),
    }
    daemon.shutdown();
}

/// A `tenant_quota` or `max_active` of 0, set as a field, is read as one:
/// the daemon accepts a campaign, starts it and finishes it.
#[test]
fn a_zero_quota_or_max_active_still_admits_and_finishes_a_campaign() {
    for cfg in [
        RunConfig { tenant_quota: 0, ..RunConfig::default() },
        RunConfig { max_active: 0, ..RunConfig::default() },
    ] {
        let daemon = Daemon::start(cfg, resolver(), Arc::new(ProvenanceStore::new()))
            .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let id = match client.submit("solo", 0, "wf:zero:3:0").expect("submit io") {
            SubmitOutcome::Accepted { id } => id,
            refused => panic!("a bound of 0 is a bound of 1: {refused:?}"),
        };
        let state = wait_state(&mut client, id, CampaignState::Finished, Duration::from_secs(20));
        assert_eq!(state, CampaignState::Finished, "the campaign never ran");
        drop(client);
        daemon.shutdown();
    }
}

#[test]
fn tenant_quota_stops_one_tenant_from_starving_the_rest() {
    let daemon = Daemon::start(
        RunConfig {
            workers: 2,
            max_active: 8,
            max_pending: 16,
            tenant_quota: 2,
            retry_after_ms: 500,
            ..RunConfig::default()
        },
        resolver(),
        Arc::new(ProvenanceStore::new()),
    )
    .expect("daemon starts");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");

    // the hog gets its quota...
    let mut hog_ids = Vec::new();
    for i in 0..2 {
        match client.submit("hog", 9, &format!("wf:hog{i}:4:40")).expect("submit io") {
            SubmitOutcome::Accepted { id } => hog_ids.push(id),
            SubmitOutcome::Rejected { reason, .. } => {
                panic!("within quota, yet rejected: {reason}")
            }
        }
    }
    // ...and not one campaign more, however many it throws at the daemon
    for i in 0..6 {
        match client.submit("hog", 9, &format!("wf:hogmore{i}:4:40")).expect("submit io") {
            SubmitOutcome::Accepted { id } => panic!("quota breached: admitted campaign {id}"),
            SubmitOutcome::Rejected { reason, retry_after_ms } => {
                assert_eq!(reason, "tenant quota exceeded");
                assert_eq!(retry_after_ms, 500);
            }
        }
    }
    // the quiet tenant still gets in — and, despite the hog's head start
    // and higher priority, still completes
    let SubmitOutcome::Accepted { id: mouse } =
        client.submit("mouse", 0, "wf:mouse:4:10").expect("submit io")
    else {
        panic!("quota must not block other tenants");
    };
    assert_eq!(
        wait_state(&mut client, mouse, CampaignState::Finished, Duration::from_secs(60)),
        CampaignState::Finished
    );
    // the hog's quota frees as its campaigns finish
    for id in hog_ids {
        assert_eq!(
            wait_state(&mut client, id, CampaignState::Finished, Duration::from_secs(60)),
            CampaignState::Finished
        );
    }
    assert!(matches!(
        client.submit("hog", 0, "wf:hoglater:2:1").expect("submit io"),
        SubmitOutcome::Accepted { .. }
    ));
    daemon.shutdown();
}

/// A steering query sent as `SDC1 Query` keeps its own `LIMIT` under the
/// daemon's row cap, and an `EXPLAIN` comes back as the plan, which names
/// the index a task-id probe reads.
#[test]
fn a_query_keeps_its_own_limit_and_an_explain_names_its_index() {
    let prov = Arc::new(ProvenanceStore::new());
    let w = prov.begin_workflow("steer", "", "/e");
    let act = prov.register_activity(w, "act", "Map");
    for i in 0..5 {
        prov.record_activation(&ActivationRecord {
            activity: act,
            workflow: w,
            status: ActivationStatus::Finished,
            start_time: i as f64,
            end_time: i as f64 + 1.0,
            machine: None,
            retries: 0,
            pair_key: format!("R:L{i}"),
        });
    }
    let daemon = Daemon::start(
        RunConfig { workers: 1, ..RunConfig::default() },
        resolver(),
        Arc::clone(&prov),
    )
    .expect("daemon starts");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    let (_, rows) =
        client.query("SELECT taskid FROM hactivation ORDER BY taskid LIMIT 3").expect("query");
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]);
    let (_, plan) = client
        .query("EXPLAIN SELECT taskid, status, pairkey FROM hactivation WHERE taskid = 2")
        .expect("explain");
    assert!(
        plan.iter()
            .any(|r| r[0].as_str().is_some_and(|l| l.contains("USING ix_hactivation_taskid"))),
        "{plan:?}"
    );
    daemon.shutdown();
}

/// A query nested past the SQL parser's depth bound — 10 000 parentheses,
/// which used to overflow the connection thread's stack and abort the
/// whole daemon — is answered `Error`, and the daemon keeps answering.
#[test]
fn an_over_deep_query_is_an_error_and_the_daemon_still_answers_status() {
    let prov = Arc::new(ProvenanceStore::new());
    let daemon = Daemon::start(
        RunConfig { workers: 1, ..RunConfig::default() },
        resolver(),
        Arc::clone(&prov),
    )
    .expect("daemon starts");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    let SubmitOutcome::Accepted { id } = client.submit("alice", 0, "wf:deep:2:0").unwrap() else {
        panic!("admitted")
    };
    let deep = format!("SELECT {}1{} FROM hactivation", "(".repeat(10_000), ")".repeat(10_000));
    let err = client.query(&deep).expect_err("an over-deep query is refused");
    assert!(err.to_string().contains("nested deeper"), "{err}");
    let state = wait_state(&mut client, id, CampaignState::Finished, Duration::from_secs(20));
    assert_eq!(state, CampaignState::Finished);
    daemon.shutdown();
}

/// A store fault inside a worker's `commit_activation` is a fault of the
/// daemon, not of the activation: the worker forwards the panic, the engine
/// thread dies of it, and a polling client reads an error — never a campaign
/// `Running` forever behind a worker thread that died silently.
#[test]
fn a_store_fault_in_a_workers_commit_fails_the_daemon_instead_of_hanging_the_campaign() {
    use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};

    // opening the store is append 1; the committer registers the workflow
    // and its two activities in 2–4; append 5 is the first activation a
    // worker settled
    let plan = Arc::new(FaultPlan::panic_after(5));
    let env = FaultEnv::new(Box::new(MemEnv::new()), Arc::clone(&plan));
    let prov = ProvenanceStore::open_env(Box::new(env), Default::default()).expect("fresh env");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let daemon = Daemon::start(
            RunConfig { workers: 2, ..RunConfig::default() },
            resolver(),
            Arc::new(prov),
        )
        .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let SubmitOutcome::Accepted { id } = client.submit("alice", 0, "wf:doomed:4:0").unwrap()
        else {
            panic!("admitted")
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let polled = loop {
            match client.status(id) {
                Err(e) => break Ok(e.to_string()),
                Ok(st) if Instant::now() >= deadline => break Err(st.state),
                Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        drop(client);
        daemon.shutdown();
        let _ = done_tx.send(polled);
    });
    let polled = done_rx.recv_timeout(Duration::from_secs(60)).expect("Daemon::shutdown hung");
    assert!(plan.appends_seen() >= 5, "the fault fired");
    match polled {
        Ok(msg) => assert_eq!(msg, "daemon is shutting down"),
        Err(state) => panic!("the campaign still reads {state:?}: the fault left it hanging"),
    }
}

/// The engine thread writes nothing to the store: with the committer
/// stalled inside its first append — the first campaign's workflow row — a
/// second campaign still starts, and once the disk moves both finish with
/// the provenance of their solo runs.
#[test]
fn campaigns_start_while_the_committer_is_parked_in_its_append() {
    use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};

    // opening the store is append 1; the committer's first record is 2
    let plan = Arc::new(FaultPlan::park_after(2));
    let env = FaultEnv::new(Box::new(MemEnv::new()), Arc::clone(&plan));
    let prov =
        Arc::new(ProvenanceStore::open_env(Box::new(env), Default::default()).expect("fresh env"));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    {
        let (prov, plan) = (Arc::clone(&prov), Arc::clone(&plan));
        std::thread::spawn(move || {
            let cfg = RunConfig { workers: 2, max_active: 4, ..RunConfig::default() };
            let daemon = Daemon::start(cfg, resolver(), prov).expect("daemon starts");
            let mut client = ServeClient::connect(daemon.addr()).expect("connect");
            let mut submit = |spec: &str| match client.submit("alice", 0, spec).expect("submit") {
                SubmitOutcome::Accepted { id } => id,
                SubmitOutcome::Rejected { reason, .. } => panic!("{spec} rejected: {reason}"),
            };
            let first = submit("wf:parked1:4:0");
            plan.wait_parked();
            let second = submit("wf:parked2:4:0");
            let running =
                wait_state(&mut client, second, CampaignState::Running, Duration::from_secs(10));
            plan.release();
            let finished = [first, second].map(|id| {
                wait_state(&mut client, id, CampaignState::Finished, Duration::from_secs(30))
            });
            drop(client);
            daemon.shutdown();
            let _ = done_tx.send((running, finished));
        });
    }
    let (running, finished) =
        done_rx.recv_timeout(Duration::from_secs(60)).expect("the daemon hung behind its store");
    assert_eq!(running, CampaignState::Running, "a campaign waited for the committer's disk");
    assert_eq!(finished, [CampaignState::Finished; 2]);

    for tag in ["wf-parked1", "wf-parked2"] {
        let (wkf, _) = prov.workflows().into_iter().find(|(_, t)| t == tag).expect("registered");
        let solo_prov = Arc::new(ProvenanceStore::new());
        LocalBackend::new(RunConfig { workers: 2, ..RunConfig::default() })
            .run(&test_workflow(tag, 4, 0), &solo_prov)
            .expect("one-shot run");
        let solo_wkf = solo_prov.latest_workflow().expect("one-shot workflow recorded");
        assert_eq!(
            export_provn_canonical_for(&prov, wkf),
            export_provn_canonical_for(&solo_prov, solo_wkf),
            "campaign {tag}: provenance written behind a stalled disk equals a solo run's"
        );
    }
}

#[test]
fn cancel_pending_and_running_campaigns() {
    let daemon = Daemon::start(
        RunConfig { workers: 1, max_active: 1, ..RunConfig::default() },
        resolver(),
        Arc::new(ProvenanceStore::new()),
    )
    .expect("daemon starts");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");

    let SubmitOutcome::Accepted { id: a } =
        client.submit("alice", 0, "wf:long:6:50").expect("submit io")
    else {
        panic!("admitted")
    };
    let SubmitOutcome::Accepted { id: b } =
        client.submit("alice", 0, "wf:behind:4:10").expect("submit io")
    else {
        panic!("admitted")
    };

    // b never started: cancelling it is immediate
    assert!(client.cancel(b).expect("cancel io"), "pending campaign is cancellable");
    assert_eq!(client.status(b).expect("status").state, CampaignState::Cancelled);

    // a is (or will be) running: cancellation drains its in-flight tail
    assert!(client.cancel(a).expect("cancel io"), "running campaign is cancellable");
    assert_eq!(
        wait_state(&mut client, a, CampaignState::Cancelled, Duration::from_secs(30)),
        CampaignState::Cancelled
    );
    // results of a cancelled campaign are an error, not empty data
    assert!(client.results(a).is_err());
    // cancelling a terminal campaign reports false
    assert!(!client.cancel(a).expect("cancel io"));
    daemon.shutdown();
}
