//! The unified execution-backend API.
//!
//! Both ways of running a workflow — in-process threads ([`LocalBackend`],
//! the [`Backend`] implementation) and multiple OS processes
//! ([`run_dist`](crate::run_dist)) — run it as the one campaign of a
//! campaign directory (the run scope `scidockd` turns too), configured by
//! the one [`RunConfig`], and answer with the [`RunReport`] of the closed
//! run:
//!
//! ```
//! use std::sync::Arc;
//! use cumulus::{Backend, LocalBackend, Relation, RunConfig, Workflow};
//! use cumulus::workflow::{Activity, WorkflowDef};
//! use provenance::{ProvenanceStore, Value};
//!
//! let def = WorkflowDef {
//!     tag: "demo".into(),
//!     description: "double each x".into(),
//!     expdir: "/exp/demo".into(),
//!     activities: vec![Activity::map(
//!         "double",
//!         &["x"],
//!         Arc::new(|t, _| {
//!             Ok(vec![vec![Value::Int(match t[0][0] { Value::Int(i) => i * 2, _ => 0 })]])
//!         }),
//!     )],
//!     deps: vec![vec![]],
//! };
//! let mut input = Relation::new(&["x"]);
//! input.push(vec![Value::Int(21)]);
//! let wf = Workflow::new(def, input);
//! let store = Arc::new(ProvenanceStore::new());
//! let backend: Box<dyn Backend> = Box::new(LocalBackend::new(RunConfig::new().with_workers(2)));
//! let report = backend.run(&wf, &store).unwrap();
//! assert_eq!(report.finished, 1);
//! assert_eq!(report.final_output().tuples, vec![vec![Value::Int(42)]]);
//! ```
//!
//! [`Backend::run`] is the local run behind a `dyn Backend`; a distributed
//! run is a [`run_dist`](crate::run_dist) call with the same config, whose
//! `SDW2` fields it alone reads. Per-activity wall timings are a query
//! over the run's provenance, [`activity_timings`], for callers that want
//! them. The paper's cloud-scale simulator is not a backend: it models
//! costs, not data, and runs task DAGs through [`crate::simulate_tasks`].

use std::sync::Arc;

use provenance::{ProvenanceStore, Value, WorkflowId};
use telemetry::MetricsSnapshot;

use crate::algebra::Relation;
use crate::error::CumulusError;
use crate::serve::RunConfig;
use crate::workflow::{FileStore, WorkflowDef};

/// A runnable workflow: the definition plus its input relation and the
/// shared file store activations exchange artifacts through.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// The executable workflow definition.
    pub def: WorkflowDef,
    /// The workflow's input relation (consumed by source activities).
    pub input: Relation,
    /// The shared file store (pre-stage inputs into it before running).
    pub files: Arc<FileStore>,
}

impl Workflow {
    /// Bundle a definition and input with a fresh, empty file store.
    pub fn new(def: WorkflowDef, input: Relation) -> Workflow {
        Workflow { def, input, files: Arc::new(FileStore::new()) }
    }

    /// Use an existing file store (e.g. with staged input files).
    pub fn with_files(mut self, files: Arc<FileStore>) -> Workflow {
        self.files = files;
        self
    }
}

/// Wall-clock statistics for one activity, folded from the provenance
/// store's `FINISHED` activation rows after the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityTiming {
    /// Activity tag (`hactivity.tag`).
    pub tag: String,
    /// Number of activations that finished.
    pub activations: usize,
    /// Sum of activation wall times in seconds.
    pub total_s: f64,
    /// Mean activation wall time in seconds (0 when nothing finished).
    pub mean_s: f64,
    /// Longest activation wall time in seconds.
    pub max_s: f64,
}

/// Outcome of a workflow run, whichever backend ran it.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Provenance id of this run.
    pub workflow: WorkflowId,
    /// Wall-clock duration of the whole run in seconds.
    pub total_seconds: f64,
    /// Successful activations.
    pub finished: usize,
    /// Failed attempts (each retried unless the budget ran out).
    pub failed_attempts: usize,
    /// Activations aborted after entering a looping state.
    pub aborted: usize,
    /// Activations skipped by the blacklist rule.
    pub blacklisted: usize,
    /// Activations skipped because a prior run already finished them
    /// (resume mode).
    pub resumed: usize,
    /// Output relation of every activity, by activity index.
    pub outputs: Vec<Relation>,
    /// Aggregated telemetry (per-activity latency quantiles, queue depth,
    /// worker utilisation) — `None` when no sink was attached.
    pub metrics: Option<MetricsSnapshot>,
    /// Scale decisions taken by the elastic fleet policy, in order. Empty
    /// for fixed fleets (and always for the local backend).
    pub scale_events: Vec<crate::fleet::ScaleEvent>,
    /// Largest provisioned fleet at any point in the run (the thread count
    /// for the local backend).
    pub peak_workers: usize,
}

impl RunReport {
    /// The output relation of the *last* activity in definition order, and
    /// only that one: in a workflow with several sinks the others' tuples
    /// are not in it (an adaptive SciDock run without ranking ends in
    /// `autodock4` and `vina`, and this is `vina`'s relation alone). Read
    /// `outputs` by index for the rest.
    pub fn final_output(&self) -> &Relation {
        self.outputs.last().expect("workflow has at least one activity")
    }
}

/// The `FINISHED` activations of one workflow (`?` = its id), for
/// [`activity_timings`].
pub const FINISHED_TIMES_SQL: &str = "SELECT a.tag, t.starttime, t.endtime \
     FROM hactivation t, hactivity a \
     WHERE t.actid = a.actid AND t.wkfid = ? AND t.status = 'FINISHED' ORDER BY t.taskid";

/// The activity tags of one workflow (`?` = its id) in registration order,
/// for [`activity_timings`].
pub const ACTIVITY_TAGS_SQL: &str = "SELECT tag FROM hactivity WHERE wkfid = ? ORDER BY actid";

/// Fold per-activity wall-time statistics out of the provenance store's
/// `FINISHED` rows for one workflow execution.
pub fn activity_timings(store: &ProvenanceStore, wkf: WorkflowId) -> Vec<ActivityTiming> {
    let wkfid = [Value::Int(wkf.0)];
    let rows = store.query_rows(FINISHED_TIMES_SQL, &wkfid).expect("provenance schema is fixed");
    // preserve activity registration order
    let acts = store.query_rows(ACTIVITY_TAGS_SQL, &wkfid).expect("provenance schema is fixed");
    let mut out: Vec<ActivityTiming> = acts
        .rows
        .iter()
        .map(|r| ActivityTiming {
            tag: r[0].to_string(),
            activations: 0,
            total_s: 0.0,
            mean_s: 0.0,
            max_s: 0.0,
        })
        .collect();
    for row in &rows.rows {
        let tag = row[0].to_string();
        let (start, end) = match (&row[1], &row[2]) {
            (Value::Timestamp(s), Value::Timestamp(e)) => (*s, *e),
            _ => continue,
        };
        if let Some(t) = out.iter_mut().find(|t| t.tag == tag) {
            let dur = (end - start).max(0.0);
            t.activations += 1;
            t.total_s += dur;
            t.max_s = t.max_s.max(dur);
        }
    }
    for t in &mut out {
        if t.activations > 0 {
            t.mean_s = t.total_s / t.activations as f64;
        }
    }
    out
}

/// A way of executing a [`Workflow`] against a [`ProvenanceStore`].
///
/// [`LocalBackend`] is its one implementation. It records the same PROV-Wf
/// provenance shape as [`run_dist`](crate::run_dist), so
/// `provenance::export_provn_canonical` of a local and a distributed run of
/// the same workflow are byte-identical (the parity tests assert this).
pub trait Backend {
    /// Run the workflow to completion, recording provenance into `store`.
    fn run(&self, wf: &Workflow, store: &Arc<ProvenanceStore>) -> Result<RunReport, CumulusError>;
}

/// In-process execution on worker threads of this process
/// (see [`crate::localbackend`]).
#[derive(Debug, Clone, Default)]
pub struct LocalBackend {
    pub(crate) cfg: RunConfig,
}

impl LocalBackend {
    /// A local backend with the given configuration: its fleet, run and
    /// endpoint fields; the admission and `SDW2` fields are not read.
    pub fn new(cfg: RunConfig) -> LocalBackend {
        LocalBackend { cfg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Operator;
    use crate::simbackend::{simulate_tasks, SimConfig, SimTask, SimWorkflow};
    use crate::workflow::Activity;

    fn xy_def() -> WorkflowDef {
        WorkflowDef {
            tag: "bt".into(),
            description: "backend test".into(),
            expdir: "/exp/bt".into(),
            activities: vec![
                Activity::map(
                    "inc",
                    &["x"],
                    Arc::new(|t, _| {
                        Ok(t.iter()
                            .map(|row| {
                                vec![Value::Int(match row[0] {
                                    Value::Int(i) => i + 1,
                                    _ => 0,
                                })]
                            })
                            .collect())
                    }),
                ),
                Activity::map(
                    "sum",
                    &["total"],
                    Arc::new(|t: &[crate::algebra::Tuple], _: &mut _| {
                        let s: i64 = t
                            .iter()
                            .map(|row| match row[0] {
                                Value::Int(i) => i,
                                _ => 0,
                            })
                            .sum();
                        Ok(vec![vec![Value::Int(s)]])
                    }),
                )
                .with_operator(Operator::SRQuery),
            ],
            deps: vec![vec![], vec![0]],
        }
    }

    fn xy_input() -> Relation {
        let mut r = Relation::new(&["x"]);
        for i in 0..5 {
            r.push(vec![Value::Int(i)]);
        }
        r
    }

    #[test]
    fn local_backend_runs_and_folds_timings() {
        let wf = Workflow::new(xy_def(), xy_input());
        let store = Arc::new(ProvenanceStore::new());
        let backend: Box<dyn Backend> =
            Box::new(LocalBackend::new(RunConfig::new().with_workers(2)));
        let out = backend.run(&wf, &store).unwrap();
        assert_eq!(out.finished, 6); // 5 inc + 1 sum
        assert_eq!(out.final_output().tuples, vec![vec![Value::Int(15)]]);
        let timings = activity_timings(&store, out.workflow);
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].tag, "inc");
        assert_eq!(timings[0].activations, 5);
        assert_eq!(timings[1].tag, "sum");
        assert_eq!(timings[1].activations, 1);
        assert!(timings[0].mean_s <= timings[0].max_s + 1e-12);
    }

    #[test]
    fn local_and_sim_mirror_emit_the_same_event_sequence() {
        use crate::obs::EventLog;

        // serial local run: with one worker thread the engine runs activations
        // in submission order, so scheduling cannot reorder the lifecycle
        let local_events = EventLog::new();
        let wf = Workflow::new(xy_def(), xy_input());
        let store = Arc::new(ProvenanceStore::new());
        let local =
            LocalBackend::new(RunConfig::new().with_workers(1).with_events(local_events.clone()));
        local.run(&wf, &store).unwrap();

        // sim mirror of the same workflow shape, fixed seed: one task per
        // input tuple, then one barrier task over all of them
        let task = |activity_index, deps| SimTask {
            activity_index,
            pair_key: String::new(),
            nominal_s: 1.0,
            in_bytes: 0,
            out_bytes: 0,
            deps,
            poison: false,
        };
        let mut tasks: Vec<SimTask> = (0..5).map(|_| task(0, vec![])).collect();
        tasks.push(task(1, (0..5).collect()));
        let sim_events = EventLog::new();
        let sim_cfg = SimConfig { seed: 7, events: Some(sim_events.clone()), ..Default::default() };
        let sim_wf =
            SimWorkflow { tag: "bt".into(), activities: vec!["inc".into(), "sum".into()], tasks };
        simulate_tasks(&sim_wf, &sim_cfg, None);

        let local_seq: Vec<_> =
            local_events.events().iter().map(|e| e.parity_signature()).collect();
        let sim_seq: Vec<_> = sim_events.events().iter().map(|e| e.parity_signature()).collect();
        assert!(!local_seq.is_empty());
        assert_eq!(
            local_seq, sim_seq,
            "a sim mirror must produce the same event sequence modulo timestamps \
             and backend-specific resource names"
        );
        // and the sequence is the expected lifecycle, start to finish
        let kinds: Vec<String> = local_events.events().iter().map(|e| e.kind.clone()).collect();
        assert_eq!(kinds.first().map(String::as_str), Some("campaign_submitted"));
        assert_eq!(kinds.last().map(String::as_str), Some("campaign_finished"));
        assert_eq!(kinds.iter().filter(|k| *k == "activation_finished").count(), 6);
    }

    #[test]
    fn invalid_workflow_maps_to_cumulus_error() {
        let mut def = xy_def();
        def.deps = vec![vec![1], vec![0]]; // cycle
        let wf = Workflow::new(def, xy_input());
        let store = Arc::new(ProvenanceStore::new());
        let err = LocalBackend::default().run(&wf, &store).unwrap_err();
        assert!(matches!(err, CumulusError::Invalid(_)));
    }
}
