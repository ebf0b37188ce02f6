//! Sim-vs-dist scheduler parity: the same [`cumulus::Scheduler`] policy,
//! handed to the distributed backend and to the simulator over the same
//! logical workload, must produce the identical decision trace — scale
//! decisions are functions of logical state (completions, backlog,
//! provisioned fleet), never of wall-clock timing.
//!
//! Placement is the policy's other answer: one that names no offered worker
//! is replaced by the default on the daemon and on `run_dist` alike.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cumulus::fleet::WorkerView;
use cumulus::serve::{CampaignState, Daemon, ServeClient, SubmitOutcome};
use cumulus::workflow::{Activity, FileStore, WorkflowDef};
use cumulus::{
    run_dist, simulate_tasks, QueueDepthConfig, QueueDepthScheduler, Relation, RunConfig,
    ScaleDecision, Scheduler, SchedulerFactory, SimConfig, SimTask, SimWorkflow, Workflow,
};
use provenance::{ProvenanceStore, Value};

/// One Map activity over `x`, each activation sleeping `sleep_ms`.
fn flat_def(sleep_ms: u64) -> WorkflowDef {
    WorkflowDef {
        tag: "flat".into(),
        description: "flat parity workload".into(),
        expdir: "/exp/flat".into(),
        activities: vec![Activity::map(
            "work",
            &["x"],
            Arc::new(move |t, _: &mut _| {
                if sleep_ms > 0 {
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                }
                Ok(t.to_vec())
            }),
        )],
        deps: vec![vec![]],
    }
}

fn flat_input(n: i64) -> Relation {
    let mut r = Relation::new(&["x"]);
    for i in 0..n {
        r.push(vec![Value::Int(i)]);
    }
    r
}

/// The simulator's version of the same workload: `n` independent tasks of
/// one activity.
fn flat_tasks(n: usize) -> SimWorkflow {
    let tasks = (0..n)
        .map(|i| SimTask {
            activity_index: 0,
            pair_key: format!("x{i}"),
            nominal_s: 5.0,
            in_bytes: 0,
            out_bytes: 0,
            deps: Vec::new(),
            poison: false,
        })
        .collect();
    SimWorkflow { tag: "flat".into(), activities: vec!["work".into()], tasks }
}

fn qd_factory(max_workers: usize) -> SchedulerFactory {
    SchedulerFactory::new(move || {
        Box::new(QueueDepthScheduler::new(QueueDepthConfig {
            max_workers,
            ..QueueDepthConfig::default()
        }))
    })
}

fn dist_cfg(sleep_ms: u64) -> RunConfig {
    let mut cfg = RunConfig { workers: 1, spec: "flat".into(), ..RunConfig::default() };
    cfg.resolver = Some(Arc::new(move |spec| (spec == "flat").then(|| flat_def(sleep_ms))));
    cfg.max_in_flight = 1;
    cfg
}

#[test]
fn sim_and_dist_schedulers_decide_identically() {
    let factory = qd_factory(3);

    // distributed: 1 single-slot in-process worker, 10 real activations
    let cfg = RunConfig { scheduler: Some(factory.clone()), ..dist_cfg(20) };
    let prov = Arc::new(ProvenanceStore::new());
    let dist = run_dist(&flat_def(20), flat_input(10), Arc::new(FileStore::new()), prov, &cfg)
        .expect("distributed run");
    assert_eq!(dist.finished, 10);

    // simulated: 1 single-core m1.small, the same 10-task backlog
    let scfg = SimConfig {
        fleet: vec![&cloudsim::M1_SMALL],
        scale_itype: &cloudsim::M1_SMALL,
        scheduler: Some(factory),
        ..Default::default()
    };
    let sim = simulate_tasks(&flat_tasks(10), &scfg, None);
    assert_eq!(sim.finished, 10);

    assert!(!dist.scale_events.is_empty(), "the policy must actually scale");
    assert_eq!(
        dist.scale_events, sim.scale_events,
        "one policy, two substrates, one decision trace"
    );
}

/// A policy whose every placement is the same index, whoever the candidates
/// are: a worker that is busy (so not offered), or no worker at all.
struct Hostile(usize);

impl Scheduler for Hostile {
    fn name(&self) -> &'static str {
        "hostile"
    }

    fn decide(&mut self, _: &cumulus::FleetSnapshot) -> ScaleDecision {
        ScaleDecision::Hold
    }

    fn place(&mut self, _: usize, _: &[WorkerView]) -> Option<usize> {
        Some(self.0)
    }
}

/// A placement that names no candidate falls back to the least-loaded one
/// on both substrates: the daemon's engine neither indexes out of bounds nor
/// sends a second `Run` to a busy worker, and `run_dist` completes.
#[test]
fn a_placement_outside_the_candidates_falls_back_to_least_loaded() {
    for answer in [0, usize::MAX] {
        let factory = SchedulerFactory::new(move || Box::new(Hostile(answer)));

        // which daemon worker threads ran an activation
        let ran: Arc<Mutex<BTreeSet<String>>> = Arc::default();
        let seen = Arc::clone(&ran);
        let def = WorkflowDef {
            tag: "flat".into(),
            description: "hostile placement".into(),
            expdir: "/exp/flat".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(move |t, _: &mut _| {
                    let name = std::thread::current().name().unwrap_or_default().to_string();
                    seen.lock().unwrap().insert(name);
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let daemon = Daemon::start(
            RunConfig { workers: 2, scheduler: Some(factory.clone()), ..RunConfig::default() },
            Arc::new(move |spec: &str| {
                (spec == "flat").then(|| Workflow::new(def.clone(), flat_input(6)))
            }),
            Arc::new(ProvenanceStore::new()),
        )
        .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let SubmitOutcome::Accepted { id } = client.submit("t", 0, "flat").expect("submit io")
        else {
            panic!("campaign must be admitted")
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let st = client.status(id).expect("the engine thread is alive");
            if st.state == CampaignState::Finished {
                assert_eq!(st.done, 6);
                break;
            }
            assert!(Instant::now() < deadline, "campaign stuck in {:?}", st.state);
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown();
        // six activations were ready at the first dispatch and two workers
        // idle: each got one, whatever the policy said
        let ran: Vec<String> = ran.lock().unwrap().iter().cloned().collect();
        assert_eq!(ran, ["scidockd-worker-0", "scidockd-worker-1"], "answer {answer}");

        let cfg = RunConfig { workers: 2, scheduler: Some(factory), ..dist_cfg(5) };
        let prov = Arc::new(ProvenanceStore::new());
        let dist = run_dist(&flat_def(5), flat_input(6), Arc::new(FileStore::new()), prov, &cfg)
            .expect("distributed run");
        assert_eq!((dist.finished, dist.failed_attempts), (6, 0), "answer {answer}");
    }
}
