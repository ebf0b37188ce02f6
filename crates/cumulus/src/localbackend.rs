//! The local execution backend: runs workflow activations *for real* on the
//! work-stealing pool, with provenance capture, failure injection, retry,
//! and poison-input blacklisting.
//!
//! This is the backend SciDock's biological results (Table 3) come from;
//! cloud-scale timing studies use [`crate::simbackend`] instead.
//!
//! Dispatch is ready-driven dataflow (the private `dispatch` module): the
//! instant one pair's activity-N activation finishes, its output tuples flow
//! into activity N+1 activations, while slower pairs are still in activity
//! N. Barriers remain only where the algebra requires the whole input
//! relation — `Reduce` (group boundaries unknown until every upstream tuple
//! exists) and `SRQuery`/`MRQuery` (relation-level queries). A chain of
//! Map-like activities therefore pays `max over pairs of sum(chain)` instead
//! of `sum over activities of max(stage)`.
//!
//! What happens to each activation is the private `lifecycle` module's
//! business, and failure fates are keyed by `(activity tag, pair key,
//! attempt)` — schedule-order independent — so every thread count (and every
//! backend) finishes/fails/aborts/blacklists the *same* activations and
//! fills provenance with the same rows (tuple order within a relation and
//! workdir numbering differ: activations are numbered by arrival).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;

use cloudsim::FailureModel;
use provenance::{ProvenanceStore, WorkflowId};
use telemetry::{MetricsSnapshot, Telemetry};

use crate::algebra::Relation;
use crate::dispatch::{PipelineState, SubmitReq};
use crate::error::CumulusError;
use crate::lifecycle::{run_scoped, tally, ActOutcome, ActivityCtx, ScopeCfg};
use crate::obs::{BoundAddr, EventLog};
use crate::pool::Pool;
use crate::workflow::{FileStore, WorkflowDef};

/// Local backend configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`LocalConfig::new`] (or
/// `Default`) and the `with_*` builder methods rather than a struct
/// literal, so new knobs can be added without breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct LocalConfig {
    /// Worker threads (≙ local cores).
    pub threads: usize,
    /// Failure injection model (use [`FailureModel::none`] to disable).
    pub failures: FailureModel,
    /// Maximum re-executions of a failed activation before dropping it.
    pub max_retries: u32,
    /// Resume from a prior workflow execution: activations whose
    /// `(activity tag, pair key)` finished in that run are *not* re-executed;
    /// their recorded output tuples are reused (SciCumulus' re-execution
    /// mechanism — "it does not need to restart the entire workflow").
    pub resume_from: Option<WorkflowId>,
    /// Telemetry sink: spans/counters/histograms are recorded into it when
    /// attached and near-free when disabled (the default).
    pub telemetry: Telemetry,
    /// When set, a [`crate::steer::SteeringBridge`] flushes in-flight
    /// activation state into the provenance store at this interval, so
    /// steering queries see `RUNNING` rows during the run.
    pub steering_tick: Option<std::time::Duration>,
    /// Durability override applied to the provenance store for this run
    /// (e.g. `Durability::Sync` for crash tests, a wider batch window for
    /// throughput). `None` keeps whatever the store was opened with; the
    /// knob has no effect on in-memory stores.
    pub durability: Option<provenance::Durability>,
    /// Structured event log: run/activation lifecycle events are emitted
    /// into it (and served from `/events` when an endpoint is bound).
    pub events: Option<EventLog>,
    /// When set, bind a std-only HTTP exposition endpoint at this address
    /// (e.g. `"127.0.0.1:0"`) serving `/metrics`, `/snapshot.json`,
    /// `/healthz` and `/events` for the duration of the run.
    pub metrics_addr: Option<String>,
    /// Resolves to the endpoint's actual bound address once the listener is
    /// up — needed to discover the ephemeral port when binding port 0.
    pub metrics_bound: Option<BoundAddr>,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            threads: 4,
            failures: FailureModel::none(),
            max_retries: 3,
            resume_from: None,
            telemetry: Telemetry::disabled(),
            steering_tick: None,
            durability: None,
            events: None,
            metrics_addr: None,
            metrics_bound: None,
        }
    }
}

impl LocalConfig {
    /// The default configuration (4 threads, pipelined dispatch, no failure
    /// injection, telemetry disabled).
    pub fn new() -> LocalConfig {
        LocalConfig::default()
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> LocalConfig {
        self.threads = threads;
        self
    }

    /// Set the failure-injection model.
    pub fn with_failures(mut self, failures: FailureModel) -> LocalConfig {
        self.failures = failures;
        self
    }

    /// Set the per-activation retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> LocalConfig {
        self.max_retries = max_retries;
        self
    }

    /// Resume from a prior workflow execution (skip activations it finished).
    pub fn with_resume_from(mut self, prev: WorkflowId) -> LocalConfig {
        self.resume_from = Some(prev);
        self
    }

    /// Attach a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> LocalConfig {
        self.telemetry = telemetry;
        self
    }

    /// Enable the steering bridge at the given flush interval.
    pub fn with_steering_tick(mut self, tick: std::time::Duration) -> LocalConfig {
        self.steering_tick = Some(tick);
        self
    }

    /// Override the provenance store's durability for this run.
    pub fn with_durability(mut self, durability: provenance::Durability) -> LocalConfig {
        self.durability = Some(durability);
        self
    }

    /// Attach a structured event log.
    pub fn with_events(mut self, events: EventLog) -> LocalConfig {
        self.events = Some(events);
        self
    }

    /// Serve `/metrics`, `/snapshot.json`, `/healthz` and `/events` over
    /// HTTP at `addr` for the duration of the run.
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> LocalConfig {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Resolve the endpoint's actual bound address into `bound`.
    pub fn with_metrics_bound(mut self, bound: BoundAddr) -> LocalConfig {
        self.metrics_bound = Some(bound);
        self
    }
}

/// Outcome of a workflow run.
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
    /// Fleet bill under the policy's cost model (per-started-hour), when
    /// the active scheduler carries one.
    pub fleet_cost_usd: Option<f64>,
}

impl RunReport {
    /// A report with nothing tallied yet.
    pub(crate) fn empty(workflow: WorkflowId, peak_workers: usize) -> RunReport {
        RunReport {
            workflow,
            total_seconds: 0.0,
            finished: 0,
            failed_attempts: 0,
            aborted: 0,
            blacklisted: 0,
            resumed: 0,
            outputs: Vec::new(),
            metrics: None,
            scale_events: Vec::new(),
            peak_workers,
            fleet_cost_usd: None,
        }
    }

    /// The output relation of the final activity.
    pub fn final_output(&self) -> &Relation {
        self.outputs.last().expect("workflow has at least one activity")
    }
}

/// Run a workflow on the local pool: the engine behind
/// [`crate::backend::LocalBackend`]. Binds the dispatcher's [`SubmitReq`]s to
/// pool jobs running [`ActivityCtx::run_activation`], with the mpsc
/// completion channel playing the event queue.
pub(crate) fn run_local_impl(
    def: &WorkflowDef,
    input: Relation,
    files: Arc<FileStore>,
    prov: Arc<ProvenanceStore>,
    cfg: &LocalConfig,
) -> Result<RunReport, CumulusError> {
    let scope_cfg = ScopeCfg {
        backend: "local",
        track: "dispatcher",
        workers: cfg.threads,
        telemetry: &cfg.telemetry,
        durability: cfg.durability,
        steering_tick: cfg.steering_tick,
        events: cfg.events.clone(),
        metrics_addr: cfg.metrics_addr.as_deref(),
        metrics_bound: cfg.metrics_bound.as_ref(),
    };
    run_scoped(def, &prov, scope_cfg, |scope| {
        // dropped (workers joined) when the body returns, i.e. before the
        // scope snapshots metrics: Pool::drop flushes its lifetime counters
        // (parks, steals, …) into the sink
        let pool = Pool::with_telemetry(cfg.threads, cfg.telemetry.clone());
        let run = scope.run_ctx(&files, cfg.failures, cfg.max_retries, cfg.resume_from);
        let ctxs = ActivityCtx::build_all(def, &run);
        // `Err` carries a panic out of the engine itself (the lifecycle
        // already turned a panicking activity function into a FAILED
        // attempt): e.g. a storage fault inside a provenance write. The pool
        // swallows job panics, so it is shipped here and re-raised on the
        // dispatcher — the run dies like the process it simulates, instead
        // of waiting forever for a completion that will never arrive.
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<ActOutcome>)>();
        let submit = |req: SubmitReq| {
            let ctx = Arc::clone(&ctxs[req.activity]);
            let tx = tx.clone();
            pool.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    ctx.run_activation(&req.part, req.part_index)
                }));
                // the dispatcher owns the receiver for the whole run, so the
                // send only fails if the run is already unwinding
                let _ = tx.send((req.activity, out));
            });
        };

        let mut report = RunReport::empty(scope.wkf, cfg.threads);
        let (mut pipe, seeds) =
            PipelineState::new(Arc::new(def.clone()), &input, cfg.telemetry.clone());
        for req in seeds {
            submit(req);
        }
        // event loop: consume completions until every activity closes. The
        // invariant that keeps `recv` live: the topologically first non-closed
        // activity always has `input_done` and therefore in-flight work (or it
        // would have closed already).
        while !pipe.done() {
            let (i, outcome) = rx.recv().expect("dispatcher holds a sender");
            let outcome = outcome.unwrap_or_else(|payload| resume_unwind(payload));
            tally(&mut report, &outcome);
            for req in pipe.on_completion(i, &outcome.tuples) {
                submit(req);
            }
        }
        report.outputs = pipe.into_outputs();
        report.total_seconds = scope.t0.elapsed().as_secs_f64();
        Ok(report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Activity;
    use provenance::Value;
    use std::time::Instant;

    fn double_fn() -> crate::workflow::ActivityFn {
        Arc::new(|tuples, _ctx| {
            Ok(tuples
                .iter()
                .map(|t| {
                    let n = t[0].as_f64().unwrap_or(0.0);
                    vec![Value::Float(n * 2.0)]
                })
                .collect())
        })
    }

    fn input(n: i64) -> Relation {
        let mut r = Relation::new(&["x"]);
        for k in 0..n {
            r.push(vec![Value::Int(k)]);
        }
        r
    }

    fn simple_workflow() -> WorkflowDef {
        WorkflowDef {
            tag: "test".into(),
            description: "test wf".into(),
            expdir: "/exp".into(),
            activities: vec![
                Activity::map("double", &["x"], double_fn()),
                Activity::map("double2", &["x"], double_fn()),
            ],
            deps: vec![vec![], vec![0]],
        }
    }

    #[test]
    fn chain_executes_and_collects() {
        let report = run_local_impl(
            &simple_workflow(),
            input(10),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &LocalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.finished, 20); // 10 activations × 2 activities
        assert_eq!(report.final_output().len(), 10);
        let mut got: Vec<f64> =
            report.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, (0..10).map(|k| k as f64 * 4.0).collect::<Vec<_>>());
    }

    #[test]
    fn provenance_rows_recorded() {
        let prov = Arc::new(ProvenanceStore::new());
        let _ = run_local_impl(
            &simple_workflow(),
            input(5),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &LocalConfig::default(),
        )
        .unwrap();
        let r = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'", &[])
            .unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(10));
        let acts = prov.query_rows("SELECT tag FROM hactivity ORDER BY actid", &[]).unwrap();
        assert_eq!(acts.len(), 2);
        assert_eq!(acts.cell(0, 0), &Value::from("double"));
    }

    #[test]
    fn files_and_params_recorded() {
        let func: crate::workflow::ActivityFn = Arc::new(|tuples, ctx| {
            ctx.write_file("result.dlg", "DOCKED blah");
            ctx.record_param("feb", Some(-6.5), None);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/root/exp".into(),
            activities: vec![Activity::map("dock", &["x"], func)],
            deps: vec![vec![]],
        };
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let _ = run_local_impl(
            &wf,
            input(3),
            Arc::clone(&files),
            Arc::clone(&prov),
            &LocalConfig::default(),
        )
        .unwrap();
        let r =
            prov.query_rows("SELECT fname, fdir FROM hfile WHERE fname LIKE '%.dlg'", &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.cell(0, 0), &Value::from("result.dlg"));
        assert!(r.cell(0, 1).to_string().starts_with("/root/exp/dock/"));
        let p = prov
            .query_rows("SELECT avg(pvalue_num) FROM hparameter WHERE pname = 'feb'", &[])
            .unwrap();
        assert_eq!(p.cell(0, 0), &Value::Float(-6.5));
        assert_eq!(files.len(), 3);
    }

    #[test]
    fn failures_are_retried() {
        let cfg = LocalConfig {
            threads: 4,
            failures: FailureModel {
                fail_rate: 0.3,
                hang_rate: 0.0,
                fail_at_fraction: 0.5,
                seed: 5,
            },
            max_retries: 10,
            ..Default::default()
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_local_impl(
            &simple_workflow(),
            input(30),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .unwrap();
        // with generous retries every activation eventually finishes
        assert_eq!(report.finished, 60);
        assert!(report.failed_attempts > 0, "the 30% fail rate must bite");
        let failed = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FAILED'", &[])
            .unwrap();
        assert_eq!(
            failed.cell(0, 0),
            &Value::Int(report.failed_attempts as i64),
            "provenance sees every failed attempt"
        );
    }

    #[test]
    fn hangs_are_aborted_and_dropped() {
        let cfg = LocalConfig {
            threads: 2,
            failures: FailureModel {
                fail_rate: 0.0,
                hang_rate: 0.5,
                fail_at_fraction: 0.5,
                seed: 2,
            },
            max_retries: 1,
            ..Default::default()
        };
        let report = run_local_impl(
            &simple_workflow(),
            input(40),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert!(report.aborted > 5, "half the activations should hang");
        // dropped tuples shrink downstream relations
        assert!(report.final_output().len() < 40);
        assert_eq!(report.finished + report.aborted, 40 + report.outputs[0].len());
    }

    #[test]
    fn blacklist_skips_execution() {
        let mut wf = simple_workflow();
        wf.activities[0] = wf.activities[0]
            .clone()
            .with_blacklist(Arc::new(|t| matches!(t[0], Value::Int(k) if k % 2 == 0)));
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_local_impl(
            &wf,
            input(10),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &LocalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.blacklisted, 5);
        assert_eq!(report.final_output().len(), 5);
        let r = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'BLACKLISTED'", &[])
            .unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(5));
    }

    #[test]
    fn invalid_workflow_rejected() {
        let mut wf = simple_workflow();
        wf.deps = vec![vec![], vec![5]];
        let err = run_local_impl(
            &wf,
            input(1),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &LocalConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CumulusError::Invalid(_)));
    }

    #[test]
    fn domain_errors_count_as_failures() {
        let func: crate::workflow::ActivityFn =
            Arc::new(|_t, _c| Err(crate::workflow::ActivityError("bad input".into())));
        let wf = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("always_fails", &["x"], func)],
            deps: vec![vec![]],
        };
        let cfg = LocalConfig { max_retries: 2, ..Default::default() };
        let report = run_local_impl(
            &wf,
            input(4),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.finished, 0);
        assert_eq!(report.failed_attempts, 4 * 3); // initial + 2 retries each
        assert!(report.final_output().is_empty());
    }

    #[test]
    fn splitmap_reduce_query_pipeline() {
        use crate::algebra::Operator;
        // SplitMap: each input k fans out to k copies
        let split: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            let n = tuples[0][0].as_f64().unwrap_or(0.0) as i64;
            Ok((0..n).map(|_| vec![Value::Int(n), Value::Int(1)]).collect())
        });
        // Reduce by the key column: sum the counts
        let reduce: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            let key = tuples[0][0].clone();
            let total: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
            Ok(vec![vec![key, Value::Float(total)]])
        });
        // SRQuery: one activation totalling everything
        let query: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            let grand: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
            Ok(vec![vec![Value::Float(grand)]])
        });
        let wf = WorkflowDef {
            tag: "algebra".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("fanout", &["k", "one"], split).with_operator(Operator::SplitMap),
                Activity::map("sum_by_k", &["k", "total"], reduce)
                    .with_operator(Operator::Reduce { keys: vec!["k".into()] }),
                Activity::map("grand_total", &["grand"], query).with_operator(Operator::SRQuery),
            ],
            deps: vec![vec![], vec![0], vec![1]],
        };
        let mut rel = Relation::new(&["k"]);
        for k in [2i64, 3, 4] {
            rel.push(vec![Value::Int(k)]);
        }
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_local_impl(
            &wf,
            rel,
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &LocalConfig::default(),
        )
        .unwrap();
        // fanout: 3 activations producing 2+3+4 = 9 tuples
        assert_eq!(report.outputs[0].len(), 9);
        // reduce: 3 groups (k = 2, 3, 4), each summing to k
        assert_eq!(report.outputs[1].len(), 3);
        for t in &report.outputs[1].tuples {
            assert_eq!(t[0].as_f64(), t[1].as_f64(), "group sum equals its key");
        }
        // SRQuery: one tuple with the grand total 9
        assert_eq!(report.final_output().len(), 1);
        assert_eq!(report.final_output().tuples[0][0].as_f64(), Some(9.0));
        // activation counts in provenance: 3 + 3 + 1
        let q = prov
            .query_rows(
                "SELECT a.tag, count(*) FROM hactivity a, hactivation t \
                 WHERE a.actid = t.actid GROUP BY a.tag ORDER BY a.tag",
                &[],
            )
            .unwrap();
        let counts: Vec<(String, f64)> =
            q.rows.iter().map(|r| (r[0].to_string(), r[1].as_f64().unwrap())).collect();
        assert_eq!(
            counts,
            vec![
                ("fanout".to_string(), 3.0),
                ("grand_total".to_string(), 1.0),
                ("sum_by_k".to_string(), 3.0)
            ]
        );
    }

    #[test]
    fn resume_skips_finished_activations() {
        // first run: every activation fails permanently for half the tuples
        let func_calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let fc = Arc::clone(&func_calls);
        let func: crate::workflow::ActivityFn = Arc::new(move |tuples, _ctx| {
            fc.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "resumable".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("work", &["x"], func)],
            deps: vec![vec![]],
        };
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        // run 1: heavy failures, no retries -> some tuples dropped
        let cfg1 = LocalConfig {
            threads: 2,
            failures: FailureModel {
                fail_rate: 0.5,
                hang_rate: 0.0,
                fail_at_fraction: 0.5,
                seed: 9,
            },
            max_retries: 0,
            resume_from: None,
            ..Default::default()
        };
        let r1 =
            run_local_impl(&wf, input(20), Arc::clone(&files), Arc::clone(&prov), &cfg1).unwrap();
        assert!(r1.finished < 20, "some activations must drop");
        assert!(r1.failed_attempts > 0);
        let calls_after_run1 = func_calls.load(std::sync::atomic::Ordering::SeqCst);

        // run 2: resume from run 1 with failures off — only the dropped
        // activations execute
        let cfg2 = LocalConfig {
            threads: 2,
            failures: FailureModel::none(),
            max_retries: 0,
            resume_from: Some(r1.workflow),
            ..Default::default()
        };
        let r2 =
            run_local_impl(&wf, input(20), Arc::clone(&files), Arc::clone(&prov), &cfg2).unwrap();
        assert_eq!(r2.resumed, r1.finished, "every finished activation is reused");
        assert_eq!(r2.finished + r2.resumed, 20, "the full relation is recovered");
        assert_eq!(r2.final_output().len(), 20);
        let calls_after_run2 = func_calls.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(
            calls_after_run2 - calls_after_run1,
            20 - r1.finished,
            "the function only runs for previously-dropped tuples"
        );
    }

    #[test]
    fn resume_preserves_tuple_values() {
        let wf = simple_workflow();
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let r1 = run_local_impl(
            &wf,
            input(5),
            Arc::clone(&files),
            Arc::clone(&prov),
            &LocalConfig::default(),
        )
        .unwrap();
        let cfg2 = LocalConfig { resume_from: Some(r1.workflow), ..Default::default() };
        let r2 = run_local_impl(&wf, input(5), files, Arc::clone(&prov), &cfg2).unwrap();
        assert_eq!(r2.resumed, 10, "both activities fully resumed");
        assert_eq!(r2.finished, 0);
        let mut a: Vec<f64> =
            r1.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
        let mut b: Vec<f64> =
            r2.final_output().tuples.iter().map(|t| t[0].as_f64().unwrap()).collect();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "resumed relation is value-identical");
    }

    // ---- thread-count parity & pipelining behavior ----

    /// Tuples of a relation, sorted into a canonical order for comparison
    /// (outputs are collected in completion order).
    fn sorted_tuples(rel: &Relation) -> Vec<String> {
        let mut v: Vec<String> = rel
            .tuples
            .iter()
            .map(|t| t.iter().map(|x| x.to_string()).collect::<Vec<_>>().join("|"))
            .collect();
        v.sort();
        v
    }

    fn status_counts(prov: &ProvenanceStore, wkf: WorkflowId) -> Vec<(String, i64)> {
        let q = prov
            .query_rows(
                "SELECT status, count(*) FROM hactivation \
                 GROUP BY status ORDER BY status",
                &[],
            )
            .unwrap();
        let _ = wkf;
        q.rows.iter().map(|r| (r[0].to_string(), r[1].as_f64().unwrap() as i64)).collect()
    }

    /// A messy workflow: fan-out, routing, blacklist, reduce, query — the
    /// whole algebra — run serially (the deterministic order) and on four
    /// threads with failures and hangs on. Every aggregate the engine
    /// reports, and the canonical provenance, must match.
    #[test]
    fn one_thread_matches_four_threads_semantics() {
        use crate::algebra::Operator;
        let mk_wf = || {
            let split: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
                let n = tuples[0][0].as_f64().unwrap_or(0.0) as i64;
                Ok((0..(n % 3) + 1).map(|j| vec![Value::Int(n), Value::Int(j)]).collect())
            });
            let work: crate::workflow::ActivityFn = Arc::new(|tuples, ctx| {
                ctx.write_file("out.txt", "x");
                Ok(tuples
                    .iter()
                    .map(|t| vec![t[0].clone(), Value::Float(t[1].as_f64().unwrap_or(0.0) * 10.0)])
                    .collect())
            });
            let reduce: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
                let key = tuples[0][0].clone();
                let total: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
                Ok(vec![vec![key, Value::Float(total)]])
            });
            let query: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
                let grand: f64 = tuples.iter().filter_map(|t| t[1].as_f64()).sum();
                Ok(vec![vec![Value::Float(grand)]])
            });
            WorkflowDef {
                tag: "parity".into(),
                description: String::new(),
                expdir: "/e".into(),
                activities: vec![
                    Activity::map("fanout", &["k", "j"], split).with_operator(Operator::SplitMap),
                    Activity::map("work", &["k", "v"], work)
                        .with_blacklist(Arc::new(|t| matches!(t[0], Value::Int(k) if k == 7))),
                    Activity::map("sum_k", &["k", "total"], reduce)
                        .with_operator(Operator::Reduce { keys: vec!["k".into()] }),
                    Activity::map("grand", &["grand"], query).with_operator(Operator::SRQuery),
                ],
                deps: vec![vec![], vec![0], vec![1], vec![2]],
            }
        };
        let failures =
            FailureModel { fail_rate: 0.15, hang_rate: 0.05, fail_at_fraction: 0.5, seed: 42 };
        let run = |threads: usize| {
            let prov = Arc::new(ProvenanceStore::new());
            let cfg = LocalConfig {
                threads,
                failures,
                max_retries: 2,
                resume_from: None,
                ..Default::default()
            };
            let rep = run_local_impl(
                &mk_wf(),
                input(25),
                Arc::new(FileStore::new()),
                Arc::clone(&prov),
                &cfg,
            )
            .unwrap();
            (rep, prov)
        };
        let (serial, sprov) = run(1);
        let (parallel, pprov) = run(4);

        assert_eq!(parallel.finished, serial.finished);
        assert_eq!(parallel.failed_attempts, serial.failed_attempts);
        assert_eq!(parallel.aborted, serial.aborted);
        assert_eq!(parallel.blacklisted, serial.blacklisted);
        assert_eq!(parallel.resumed, serial.resumed);
        assert!(
            serial.failed_attempts > 0 && serial.aborted > 0 && serial.blacklisted > 0,
            "the parity scenario must actually exercise failures/hangs/blacklist"
        );
        assert_eq!(parallel.outputs.len(), serial.outputs.len());
        for (p, s) in parallel.outputs.iter().zip(&serial.outputs) {
            assert_eq!(sorted_tuples(p), sorted_tuples(s), "per-activity relations match");
        }
        assert_eq!(
            status_counts(&pprov, parallel.workflow),
            status_counts(&sprov, serial.workflow),
            "identical provenance row counts per status"
        );
        assert_eq!(
            provenance::export_provn_canonical(&pprov),
            provenance::export_provn_canonical(&sprov),
            "canonical provenance is byte-identical across thread counts"
        );
    }

    /// The point of the tentpole: an activity-1 straggler must not stop
    /// other pairs from reaching activity 2.
    #[test]
    fn straggler_does_not_block_downstream() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t0 = Instant::now();
        let slow: crate::workflow::ActivityFn = Arc::new(|tuples, _ctx| {
            if tuples[0][0] == Value::Int(0) {
                std::thread::sleep(std::time::Duration::from_millis(400));
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Ok(tuples.to_vec())
        });
        let reached = Arc::new(AtomicUsize::new(0));
        let first_entry_ms = Arc::new(AtomicUsize::new(usize::MAX));
        let (rc, fe) = (Arc::clone(&reached), Arc::clone(&first_entry_ms));
        let second: crate::workflow::ActivityFn = Arc::new(move |tuples, _ctx| {
            rc.fetch_add(1, Ordering::SeqCst);
            fe.fetch_min(t0.elapsed().as_millis() as usize, Ordering::SeqCst);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "straggler".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("slow_stage", &["x"], slow),
                Activity::map("fast_stage", &["x"], second),
            ],
            deps: vec![vec![], vec![0]],
        };
        let cfg = LocalConfig { threads: 4, ..Default::default() };
        let report = run_local_impl(
            &wf,
            input(8),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.finished, 16);
        // pair 0 held activity 1 for ~400 ms; the other 7 pairs must have
        // entered activity 2 long before that
        let first = first_entry_ms.load(Ordering::SeqCst);
        assert!(
            first < 300,
            "first pair reached activity 2 after {first} ms — pipelining is not happening"
        );
    }

    /// Diamond dependencies (two upstreams into one consumer) with routing
    /// stay correct under streaming delivery.
    #[test]
    fn diamond_with_route_filter_parity() {
        let ident: crate::workflow::ActivityFn = Arc::new(|t, _| Ok(t.to_vec()));
        let mk = || WorkflowDef {
            tag: "diamond".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("src_a", &["x"], Arc::clone(&ident)),
                Activity::map("src_b", &["x"], Arc::clone(&ident)),
                Activity::map("join", &["x"], Arc::clone(&ident)).with_route("x", Value::Int(3)),
            ],
            deps: vec![vec![], vec![], vec![0, 1]],
        };
        let run = |threads| {
            run_local_impl(
                &mk(),
                input(6),
                Arc::new(FileStore::new()),
                Arc::new(ProvenanceStore::new()),
                &LocalConfig { threads, ..Default::default() },
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        // both sources emit 0..6; the route keeps only x == 3, twice
        assert_eq!(serial.final_output().len(), 2);
        assert_eq!(sorted_tuples(parallel.final_output()), sorted_tuples(serial.final_output()));
        assert_eq!(parallel.finished, serial.finished);
    }

    // ---- telemetry & live steering ----

    /// Split a Chrome-trace string into its event objects (each starts with
    /// `{"ph":`) — enough structure for the assertions below without a JSON
    /// parser in the test.
    fn trace_events(trace: &str) -> Vec<&str> {
        let starts: Vec<usize> = trace.match_indices("{\"ph\":").map(|(i, _)| i).collect();
        starts
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let e = starts.get(k + 1).copied().unwrap_or(trace.len());
                &trace[s..e]
            })
            .collect()
    }

    fn event_field_u64(ev: &str, key: &str) -> Option<u64> {
        let i = ev.find(key)? + key.len();
        let rest = &ev[i..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Acceptance: a pipelined run with a sink attached exports valid
    /// Chrome-trace JSON whose activation spans sit (parent-linked) on the
    /// worker-thread tracks, and its report carries a metrics snapshot.
    #[test]
    fn pipelined_run_exports_chrome_trace_with_nested_activation_spans() {
        let tel = Telemetry::attached();
        let cfg = LocalConfig { threads: 2, telemetry: tel.clone(), ..Default::default() };
        let report = run_local_impl(
            &simple_workflow(),
            input(6),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.finished, 12);

        // the metrics snapshot rode along on the report
        let snap = report.metrics.as_ref().expect("sink attached => metrics present");
        let h = snap.histogram("activation.double").expect("per-activity histogram");
        assert_eq!(h.count, 6);
        assert!(h.p95_s >= h.p50_s);
        assert_eq!(snap.counter("pool.submitted"), Some(12));
        assert_eq!(snap.counter("pool.completed"), Some(12));
        assert!(snap.histogram("pool.queue_wait").is_some(), "queue-wait histogram captured");

        let trace = tel.export_chrome_trace().unwrap();
        telemetry::json::validate(&trace).unwrap_or_else(|off| {
            panic!("invalid trace JSON at byte {off}: …{}…", &trace[off.saturating_sub(40)..off])
        });

        let evs = trace_events(&trace);
        let worker_tids: std::collections::HashSet<u64> = evs
            .iter()
            .filter(|e| e.starts_with("{\"ph\":\"M\"") && e.contains("cumulus-worker-"))
            .filter_map(|e| event_field_u64(e, "\"tid\":"))
            .collect();
        assert_eq!(worker_tids.len(), 2, "one named track per worker thread");
        let nested_activations = evs
            .iter()
            .filter(|e| e.starts_with("{\"ph\":\"X\"") && e.contains("\"cat\":\"activation\""))
            .filter(|e| {
                event_field_u64(e, "\"tid\":").is_some_and(|tid| worker_tids.contains(&tid))
            })
            .filter(|e| e.contains("\"parent\":"))
            .count();
        assert_eq!(
            nested_activations, 12,
            "every activation span lies on a worker track, nested under its pool job span"
        );
    }

    /// Acceptance: with `steering_tick` set, `steering::status_summary`
    /// answers *during* the run — activations observe other activations as
    /// RUNNING — and no RUNNING rows survive the run.
    #[test]
    fn steering_tick_exposes_running_rows_mid_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let prov = Arc::new(ProvenanceStore::new());
        let max_running_seen = Arc::new(AtomicUsize::new(0));
        let (p2, seen) = (Arc::clone(&prov), Arc::clone(&max_running_seen));
        let func: crate::workflow::ActivityFn = Arc::new(move |tuples, _ctx| {
            // give the 10 ms ticker time to publish this attempt, then ask
            // the steering API what is in flight right now
            std::thread::sleep(std::time::Duration::from_millis(60));
            let running = provenance::steering::status_summary(&p2)
                .unwrap()
                .into_iter()
                .find(|s| s.status == "RUNNING")
                .map(|s| s.count as usize)
                .unwrap_or(0);
            seen.fetch_max(running, Ordering::SeqCst);
            Ok(tuples.to_vec())
        });
        let wf = WorkflowDef {
            tag: "live".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("slow", &["x"], func)],
            deps: vec![vec![]],
        };
        let cfg = LocalConfig {
            threads: 4,
            steering_tick: Some(std::time::Duration::from_millis(10)),
            ..Default::default()
        };
        let report =
            run_local_impl(&wf, input(8), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .unwrap();
        assert_eq!(report.finished, 8);
        assert!(
            max_running_seen.load(Ordering::SeqCst) >= 1,
            "a mid-run steering query must see in-flight activations as RUNNING"
        );
        // every RUNNING row was replaced in place by its terminal row
        let statuses = status_counts(&prov, report.workflow);
        assert_eq!(statuses, vec![("FINISHED".to_string(), 8)]);
    }

    /// Satellite: the steering queries themselves agree across thread
    /// counts on a failure-heavy workload.
    #[test]
    fn steering_queries_agree_across_thread_counts() {
        use provenance::steering;
        let failures =
            FailureModel { fail_rate: 0.3, hang_rate: 0.05, fail_at_fraction: 0.5, seed: 11 };
        let run = |threads| {
            let prov = Arc::new(ProvenanceStore::new());
            let cfg = LocalConfig {
                threads,
                failures,
                max_retries: 2,
                steering_tick: Some(std::time::Duration::from_millis(5)),
                ..Default::default()
            };
            let rep = run_local_impl(
                &simple_workflow(),
                input(30),
                Arc::new(FileStore::new()),
                Arc::clone(&prov),
                &cfg,
            )
            .unwrap();
            (rep, prov)
        };
        let (srep, sprov) = run(1);
        let (_prep, pprov) = run(4);
        assert!(srep.failed_attempts > 0, "scenario must exercise failures");

        let ssum = steering::status_summary(&sprov).unwrap();
        let psum = steering::status_summary(&pprov).unwrap();
        assert_eq!(
            ssum.iter().map(|s| (s.status.clone(), s.count)).collect::<Vec<_>>(),
            psum.iter().map(|s| (s.status.clone(), s.count)).collect::<Vec<_>>(),
            "status_summary must agree across thread counts (and hold no RUNNING residue)"
        );
        assert!(ssum.iter().all(|s| s.status != "RUNNING"));
        assert_eq!(
            steering::failures_by_activity(&sprov).unwrap(),
            steering::failures_by_activity(&pprov).unwrap(),
            "failures_by_activity must agree across thread counts"
        );
    }
}
