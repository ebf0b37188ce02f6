//! The unified execution-backend API.
//!
//! Every way of running a workflow — in-process threads
//! ([`LocalBackend`]), multiple OS processes ([`DistBackend`]), or the
//! discrete-event simulator ([`SimBackend`]) — implements one trait:
//!
//! ```
//! use std::sync::Arc;
//! use cumulus::{Backend, LocalBackend, LocalConfig, Relation, Workflow};
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
//! let backend: Box<dyn Backend> = Box::new(LocalBackend::new(LocalConfig::new()));
//! let outcome = backend.run(&wf, &store).unwrap();
//! assert_eq!(outcome.finished, 1);
//! assert_eq!(outcome.final_output().tuples, vec![vec![Value::Int(42)]]);
//! ```
//!
//! [`Backend::run`] is the surface that yields the backend-independent
//! [`RunOutcome`] (with per-activity wall timings folded from provenance)
//! and lets callers swap execution substrates behind a `dyn Backend`;
//! [`crate::run_dist`] and [`crate::simulate_tasks`] stay public for callers
//! that need the raw [`RunReport`] or have no workflow definition.

use std::sync::Arc;

use provenance::{ProvenanceStore, Value, WorkflowId};
use telemetry::MetricsSnapshot;

use crate::algebra::{Operator, Relation};
use crate::distbackend::{run_dist, DistConfig};
use crate::error::CumulusError;
use crate::localbackend::{run_local_impl, LocalConfig, RunReport};
use crate::simbackend::{simulate_tasks, SimConfig, SimTask};
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

/// The backend-independent outcome of [`Backend::run`].
///
/// Marked `#[non_exhaustive]` so future backends can add fields without a
/// breaking release; construct only via a backend.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunOutcome {
    /// Provenance id of this run.
    pub workflow: WorkflowId,
    /// Wall-clock (or simulated) duration of the whole run in seconds.
    pub total_seconds: f64,
    /// Successful activations.
    pub finished: usize,
    /// Failed attempts (each retried unless the budget ran out).
    pub failed_attempts: usize,
    /// Activations aborted after entering a looping/hanging state.
    pub aborted: usize,
    /// Activations skipped by the blacklist rule.
    pub blacklisted: usize,
    /// Activations skipped because a prior run already finished them.
    pub resumed: usize,
    /// Activations cancelled because an upstream was dropped (simulator
    /// only; real backends always retry or blacklist instead).
    pub cancelled: usize,
    /// Output relation of every activity, by activity index (empty for the
    /// simulator, which models costs rather than data).
    pub outputs: Vec<Relation>,
    /// Aggregated telemetry — `None` when no sink was attached.
    pub metrics: Option<MetricsSnapshot>,
    /// Per-activity wall-time statistics folded from provenance.
    pub activity_timings: Vec<ActivityTiming>,
    /// Scale decisions taken by the elastic fleet policy, in order (empty
    /// for fixed fleets). Identical across `DistBackend` and `SimBackend`
    /// under the same policy and workload — the parity tests assert this.
    pub scale_events: Vec<crate::fleet::ScaleEvent>,
    /// Largest provisioned fleet at any point in the run.
    pub peak_workers: usize,
    /// Fleet bill under the active cost model, when one applies.
    pub fleet_cost_usd: Option<f64>,
}

impl RunOutcome {
    /// The output relation of the final activity.
    ///
    /// # Panics
    /// Panics when the backend produced no output relations (the
    /// simulator) — check `outputs.is_empty()` first for `SimBackend`.
    pub fn final_output(&self) -> &Relation {
        self.outputs.last().expect("backend produced no output relations")
    }

    fn from_report(report: RunReport, store: &ProvenanceStore) -> RunOutcome {
        let activity_timings = activity_timings(store, report.workflow);
        RunOutcome {
            workflow: report.workflow,
            total_seconds: report.total_seconds,
            finished: report.finished,
            failed_attempts: report.failed_attempts,
            aborted: report.aborted,
            blacklisted: report.blacklisted,
            resumed: report.resumed,
            cancelled: 0,
            outputs: report.outputs,
            metrics: report.metrics,
            activity_timings,
            scale_events: report.scale_events,
            peak_workers: report.peak_workers,
            fleet_cost_usd: report.fleet_cost_usd,
        }
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
/// All three implementations record the same PROV-Wf provenance shape, so
/// `provenance::export_provn_canonical` of a local and a distributed run of
/// the same workflow are byte-identical (the parity tests assert this).
pub trait Backend {
    /// Run the workflow to completion, recording provenance into `store`.
    fn run(&self, wf: &Workflow, store: &Arc<ProvenanceStore>) -> Result<RunOutcome, CumulusError>;
}

/// In-process execution on worker threads of this process
/// (see [`crate::localbackend`]).
#[derive(Debug, Clone, Default)]
pub struct LocalBackend {
    cfg: LocalConfig,
}

impl LocalBackend {
    /// A local backend with the given configuration.
    pub fn new(cfg: LocalConfig) -> LocalBackend {
        LocalBackend { cfg }
    }
}

impl Backend for LocalBackend {
    fn run(&self, wf: &Workflow, store: &Arc<ProvenanceStore>) -> Result<RunOutcome, CumulusError> {
        let report = run_local_impl(
            &wf.def,
            wf.input.clone(),
            Arc::clone(&wf.files),
            Arc::clone(store),
            &self.cfg,
        )?;
        Ok(RunOutcome::from_report(report, store))
    }
}

/// Multi-process execution: a master shards activations over spawned
/// worker processes (see [`crate::distbackend`]).
#[derive(Debug, Clone)]
pub struct DistBackend {
    cfg: DistConfig,
}

impl DistBackend {
    /// A distributed backend with the given configuration.
    pub fn new(cfg: DistConfig) -> DistBackend {
        DistBackend { cfg }
    }
}

impl Backend for DistBackend {
    fn run(&self, wf: &Workflow, store: &Arc<ProvenanceStore>) -> Result<RunOutcome, CumulusError> {
        let report = run_dist(
            &wf.def,
            wf.input.clone(),
            Arc::clone(&wf.files),
            Arc::clone(store),
            &self.cfg,
        )?;
        Ok(RunOutcome::from_report(report, store))
    }
}

/// Discrete-event simulated execution on an elastic EC2 fleet
/// (see [`crate::simbackend`]).
///
/// The simulator models activation *costs*, not data, so the workflow's
/// activity functions never run: a synthetic activation DAG is derived from
/// the workflow shape (one task per input tuple for sources, 1:1 chains
/// through Map-like operators, a barrier task for Reduce/queries) and the
/// outcome's `outputs` are empty.
#[derive(Debug, Clone, Default)]
pub struct SimBackend {
    cfg: SimConfig,
}

impl SimBackend {
    /// A simulated backend with the given configuration. The config's
    /// `workflow_tag`/`activity_tags` are overridden from the workflow.
    pub fn new(cfg: SimConfig) -> SimBackend {
        SimBackend { cfg }
    }

    /// Derive the synthetic activation DAG the simulator will execute.
    fn synthesize(wf: &Workflow) -> Vec<SimTask> {
        let def = &wf.def;
        let mut tasks: Vec<SimTask> = Vec::new();
        // task indices produced by each activity
        let mut produced: Vec<Vec<usize>> = vec![Vec::new(); def.activities.len()];
        for (i, activity) in def.activities.iter().enumerate() {
            let upstream: Vec<usize> =
                def.deps[i].iter().flat_map(|&d| produced[d].iter().copied()).collect();
            let barrier = matches!(
                activity.operator,
                Operator::Reduce { .. } | Operator::SRQuery | Operator::MRQuery
            );
            if barrier {
                // one activation consuming the whole upstream relation
                let id = tasks.len();
                tasks.push(SimTask {
                    activity_index: i,
                    pair_key: format!("{}#all", activity.tag),
                    nominal_s: 1.0,
                    in_bytes: 0,
                    out_bytes: 0,
                    deps: upstream,
                    poison: false,
                });
                produced[i].push(id);
            } else if def.deps[i].is_empty() {
                // source Map-like: one activation per input tuple
                for (j, _) in wf.input.tuples.iter().enumerate() {
                    let id = tasks.len();
                    tasks.push(SimTask {
                        activity_index: i,
                        pair_key: format!("{}#{}", activity.tag, j),
                        nominal_s: 1.0,
                        in_bytes: 0,
                        out_bytes: 0,
                        deps: Vec::new(),
                        poison: false,
                    });
                    produced[i].push(id);
                }
            } else {
                // downstream Map-like: 1:1 with upstream activations
                for (j, &up) in upstream.iter().enumerate() {
                    let id = tasks.len();
                    tasks.push(SimTask {
                        activity_index: i,
                        pair_key: format!("{}#{}", activity.tag, j),
                        nominal_s: 1.0,
                        in_bytes: 0,
                        out_bytes: 0,
                        deps: vec![up],
                        poison: false,
                    });
                    produced[i].push(id);
                }
            }
        }
        tasks
    }
}

impl Backend for SimBackend {
    fn run(&self, wf: &Workflow, store: &Arc<ProvenanceStore>) -> Result<RunOutcome, CumulusError> {
        wf.def.validate().map_err(CumulusError::Invalid)?;
        let tasks = Self::synthesize(wf);
        let cfg = self
            .cfg
            .clone()
            .with_workflow_tag(wf.def.tag.clone())
            .with_activity_tags(wf.def.activities.iter().map(|a| a.tag.clone()).collect());
        let report = simulate_tasks(&tasks, &cfg, Some(store));
        let wkf = report.workflow.expect("a simulation given a store registers its workflow");
        Ok(RunOutcome {
            workflow: wkf,
            total_seconds: report.tet_s,
            finished: report.finished,
            failed_attempts: report.failed_attempts,
            aborted: report.aborted,
            blacklisted: report.blacklisted,
            resumed: 0,
            cancelled: report.cancelled,
            outputs: Vec::new(),
            metrics: report.metrics,
            activity_timings: activity_timings(store, wkf),
            scale_events: report.scale_events,
            peak_workers: report.peak_vms,
            fleet_cost_usd: Some(report.cost_usd),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Box::new(LocalBackend::new(LocalConfig::new().with_threads(2)));
        let out = backend.run(&wf, &store).unwrap();
        assert_eq!(out.finished, 6); // 5 inc + 1 sum
        assert_eq!(out.final_output().tuples, vec![vec![Value::Int(15)]]);
        assert_eq!(out.activity_timings.len(), 2);
        assert_eq!(out.activity_timings[0].tag, "inc");
        assert_eq!(out.activity_timings[0].activations, 5);
        assert_eq!(out.activity_timings[1].tag, "sum");
        assert_eq!(out.activity_timings[1].activations, 1);
        assert!(out.activity_timings[0].mean_s <= out.activity_timings[0].max_s + 1e-12);
    }

    #[test]
    fn sim_backend_runs_the_same_workflow_shape() {
        let wf = Workflow::new(xy_def(), xy_input());
        let store = Arc::new(ProvenanceStore::new());
        let backend: Box<dyn Backend> = Box::new(SimBackend::new(SimConfig::new()));
        let out = backend.run(&wf, &store).unwrap();
        assert_eq!(out.finished, 6);
        assert!(out.outputs.is_empty());
        assert!(out.total_seconds > 0.0);
        // provenance carries the workflow's own tags
        let tags = store.query_rows("SELECT tag FROM hactivity ORDER BY actid", &[]).unwrap();
        let tags: Vec<String> = tags.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(tags, vec!["inc", "sum"]);
        assert_eq!(out.activity_timings.len(), 2);
        assert_eq!(out.activity_timings[0].activations, 5);
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
            LocalBackend::new(LocalConfig::new().with_threads(1).with_events(local_events.clone()));
        local.run(&wf, &store).unwrap();

        // sim mirror of the same workflow shape, fixed seed
        let sim_events = EventLog::new();
        let sim_store = Arc::new(ProvenanceStore::new());
        let sim = SimBackend::new(SimConfig::new().with_seed(7).with_events(sim_events.clone()));
        sim.run(&wf, &sim_store).unwrap();

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
        assert_eq!(kinds.first().map(String::as_str), Some("run_started"));
        assert_eq!(kinds.last().map(String::as_str), Some("run_finished"));
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
