//! The one activation lifecycle every real backend runs, and the one run
//! scope around it.
//!
//! What happens to an activation does not depend on where it executes:
//!
//! 1. [`ActivityCtx::admit`] — resume lookup (a prior run already finished
//!    this pair: reuse its tuples), then the blacklist rule (`BLACKLISTED`
//!    row + event, nothing executes);
//! 2. [`ActivityCtx::begin`] — roll the attempt's fate, register it with
//!    the steering bridge, start its clock;
//! 3. [`ActivityCtx::settle`] — fold what the attempt did into provenance:
//!    a hang is `ABORTED`; an injected failure, a domain error, a panic or
//!    a lost worker is `FAILED` and retried while budget remains; success
//!    is one store call, [`ProvenanceStore::commit_activation`] — files,
//!    parameters, output tuples and the `FINISHED` row in one atomic
//!    record, so a recovered `FINISHED` row always has its complete outputs
//!    and resume never reuses a half-recorded activation.
//!
//! The backends differ only in *when* and *where* they call the steps. The
//! local pool runs all three back to back in
//! [`ActivityCtx::run_activation`]. The engine (`crate::engine`, under
//! `scidockd` and `run_dist`) calls `admit` itself when the dispatcher
//! submits and leaves the other two to its port: a `scidockd` worker thread
//! runs `begin` → execute → `settle` in [`ActivityCtx::run_dispatched`]; the
//! `SDW1` port calls `begin` when it ships a `Run` frame and `settle` when
//! the `Done` frame (or the worker's death) comes back.
//!
//! [`run_scoped`] is the same idea one level up: the prologue and epilogue
//! of a whole run, shared by the local and distributed backends.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudsim::{FailureModel, Fate};
use provenance::{
    ActivationRecord, ActivationStatus, ActivityId, Durability, ProvenanceStore, TaskId, WorkflowId,
};
use telemetry::Telemetry;

use crate::algebra::Tuple;
use crate::dispatch::{pair_key, split_path};
use crate::error::CumulusError;
use crate::localbackend::RunReport;
use crate::obs::{BoundAddr, EventLog, HealthView, ObsServer, ObsState, Severity};
use crate::steer::{SlotId, SteeringBridge};
use crate::workflow::{ActivationCtx, ActivityFn, BlacklistFn, FileStore, WorkflowDef};

/// What one activation contributed to the run, once it is terminal.
#[derive(Default)]
pub(crate) struct ActOutcome {
    pub(crate) tuples: Vec<Tuple>,
    pub(crate) finished: usize,
    pub(crate) failed_attempts: usize,
    pub(crate) aborted: usize,
    pub(crate) blacklisted: usize,
    pub(crate) resumed: usize,
}

impl ActOutcome {
    /// Fold `out`'s counts (not its tuples) into this running total.
    pub(crate) fn add(&mut self, out: &ActOutcome) {
        self.finished += out.finished;
        self.failed_attempts += out.failed_attempts;
        self.aborted += out.aborted;
        self.blacklisted += out.blacklisted;
        self.resumed += out.resumed;
    }
}

pub(crate) fn tally(report: &mut RunReport, out: &ActOutcome) {
    report.finished += out.finished;
    report.failed_attempts += out.failed_attempts;
    report.aborted += out.aborted;
    report.blacklisted += out.blacklisted;
    report.resumed += out.resumed;
}

/// Everything the activations of one workflow execution share.
pub(crate) struct RunCtx {
    pub(crate) wkf: WorkflowId,
    pub(crate) files: Arc<FileStore>,
    pub(crate) prov: Arc<ProvenanceStore>,
    pub(crate) failures: FailureModel,
    pub(crate) max_retries: u32,
    /// Activations this prior execution finished are not re-executed.
    pub(crate) resume_from: Option<WorkflowId>,
    /// Time origin of every provenance and event timestamp.
    pub(crate) start_base: Instant,
    pub(crate) tel: Telemetry,
    pub(crate) bridge: Option<Arc<SteeringBridge>>,
    pub(crate) events: Option<EventLog>,
}

/// One activity of a run: the run-wide context plus what is specific to
/// the activity. Built once per activity, shared by all its activations.
pub(crate) struct ActivityCtx {
    run: Arc<RunCtx>,
    act_id: ActivityId,
    pub(crate) tag: String,
    /// Name of the activity's latency histogram, `activation.<tag>`.
    pub(crate) hist: String,
    func: ActivityFn,
    blacklist: Option<BlacklistFn>,
    /// Outputs this activity already finished in the resumed-from run.
    prior: HashMap<String, Vec<Tuple>>,
    workdir_base: String,
}

/// Result of [`ActivityCtx::admit`].
pub(crate) enum Admitted {
    /// Resumed or blacklisted: terminal without executing anything.
    Settled(ActOutcome),
    /// Must execute; carries the activation's pair key.
    Run(String),
}

/// One attempt between [`ActivityCtx::begin`] and [`ActivityCtx::settle`].
pub(crate) struct Attempt {
    pub(crate) key: String,
    pub(crate) attempt: u32,
    fate: Fate,
    start: f64,
    slot: Option<SlotId>,
    /// Which worker serves the attempt, where the backend has such a
    /// notion; named in the attempt's event.
    pub(crate) worker: Option<usize>,
}

impl Attempt {
    /// The attempt would loop forever: settle it as [`Exec::Hung`] without
    /// executing anything.
    pub(crate) fn hung(&self) -> bool {
        self.fate == Fate::Hang
    }

    /// The attempt executes but its work is lost (injected failure).
    pub(crate) fn doomed(&self) -> bool {
        self.fate == Fate::Fail
    }
}

/// What an attempt did, as told to [`ActivityCtx::settle`].
pub(crate) enum Exec<'a> {
    /// Never executed: the engine detected the loop and aborted it.
    Hung,
    /// The activity function returned tuples. `files` are paths it wrote,
    /// already present in the run's file store.
    Finished {
        tuples: Vec<Tuple>,
        files: &'a [String],
        params: &'a [(String, Option<f64>, Option<String>)],
    },
    /// Injected failure, domain error or panic: consumes retry budget.
    Failed,
    /// The worker running the attempt died. Always retried: the backend
    /// that can lose workers bounds this with its own crash budget and
    /// ends it with [`ActivityCtx::poison`].
    Lost,
}

/// Result of [`ActivityCtx::settle`].
pub(crate) enum Settled {
    /// Finished, aborted, or failed with the retry budget spent.
    Terminal(ActOutcome),
    /// A `FAILED` attempt with budget left: `begin` the next attempt.
    Retry,
}

impl ActivityCtx {
    fn build(def: &WorkflowDef, i: usize, run: &Arc<RunCtx>) -> ActivityCtx {
        let activity = &def.activities[i];
        ActivityCtx {
            act_id: run.prov.register_activity(run.wkf, &activity.tag, activity.operator.name()),
            tag: activity.tag.clone(),
            hist: format!("activation.{}", activity.tag),
            func: Arc::clone(&activity.func),
            blacklist: activity.blacklist.clone(),
            prior: run
                .resume_from
                .map(|prev| run.prov.finished_outputs(prev, &activity.tag))
                .unwrap_or_default(),
            workdir_base: format!("{}/{}", def.expdir.trim_end_matches('/'), activity.tag),
            run: Arc::clone(run),
        }
    }

    /// One context per activity of `def`, in activity order.
    pub(crate) fn build_all(def: &WorkflowDef, run: &Arc<RunCtx>) -> Vec<Arc<ActivityCtx>> {
        (0..def.activities.len()).map(|i| Arc::new(ActivityCtx::build(def, i, run))).collect()
    }

    /// Working directory of the activation with this arrival index.
    pub(crate) fn workdir(&self, part_index: usize) -> String {
        format!("{}/{}", self.workdir_base, part_index)
    }

    fn now(&self) -> f64 {
        self.run.start_base.elapsed().as_secs_f64()
    }

    fn emit(&self, t: f64, severity: Severity, kind: &str, key: &str, attempt: Option<&Attempt>) {
        let Some(ev) = &self.run.events else { return };
        let mut fields = vec![("activity", self.tag.clone()), ("key", key.to_string())];
        if let Some(at) = attempt {
            fields.push(("attempt", at.attempt.to_string()));
            if let Some(w) = at.worker {
                fields.push(("worker", w.to_string()));
            }
        }
        ev.emit(t, severity, kind, &fields);
    }

    /// Write an attempt's definitive row: through the steering bridge when
    /// one is active (replacing its `RUNNING` row in place), directly into
    /// the store otherwise.
    fn record(&self, slot: Option<SlotId>, rec: &ActivationRecord) -> TaskId {
        match (&self.run.bridge, slot) {
            (Some(b), Some(s)) => b.resolve(s, rec),
            _ => self.run.prov.record_activation(rec),
        }
    }

    /// Never execute this input (again): `BLACKLISTED` row + event.
    /// [`ActivityCtx::admit`] applies it by rule before the first attempt;
    /// the distributed master applies it to an input whose attempts keep
    /// taking workers down — the terminal counterpart of [`Exec::Lost`].
    pub(crate) fn poison(&self, key: &str, retries: u32) -> ActOutcome {
        let now = self.now();
        self.emit(now, Severity::Error, "activation_blacklisted", key, None);
        self.run.prov.record_activation(&ActivationRecord {
            activity: self.act_id,
            workflow: self.run.wkf,
            status: ActivationStatus::Blacklisted,
            start_time: now,
            end_time: now,
            machine: None,
            retries: retries as i64,
            pair_key: key.to_string(),
        });
        ActOutcome { blacklisted: 1, ..Default::default() }
    }

    /// Step 1: does this activation execute at all?
    pub(crate) fn admit(&self, part: &[Tuple]) -> Admitted {
        let key = pair_key(part);
        // resume: a prior run already finished this activation
        if let Some(tuples) = self.prior.get(&key) {
            return Admitted::Settled(ActOutcome {
                tuples: tuples.clone(),
                resumed: 1,
                ..Default::default()
            });
        }
        // poison-input rule: never execute blacklisted tuples
        if self.blacklist.as_ref().is_some_and(|bl| part.iter().any(|t| bl(t))) {
            return Admitted::Settled(self.poison(&key, 0));
        }
        Admitted::Run(key)
    }

    /// Fates are keyed by (tag, pair key, attempt) — independent of dispatch
    /// order and of which backend asks.
    fn fate(&self, key: &str, attempt: u32) -> Fate {
        self.run.failures.fate(&format!("{}#{}", self.tag, key), attempt)
    }

    /// Would this attempt loop forever? The engine asks before it gives the
    /// attempt a worker slot, and settles a yes as [`Exec::Hung`] itself.
    pub(crate) fn hangs(&self, key: &str, attempt: u32) -> bool {
        self.run.failures.hang_rate > 0.0 && self.fate(key, attempt) == Fate::Hang
    }

    /// Step 2: start attempt number `attempt` of the activation `key`.
    pub(crate) fn begin(&self, key: &str, attempt: u32) -> Attempt {
        let fate = self.fate(key, attempt);
        let start = self.now();
        let slot = self
            .run
            .bridge
            .as_ref()
            .map(|b| b.begin(self.act_id, self.run.wkf, key, start, attempt as i64));
        Attempt { key: key.to_string(), attempt, fate, start, slot, worker: None }
    }

    /// Step 3: record what the attempt did and decide what happens next.
    pub(crate) fn settle(&self, at: Attempt, exec: Exec<'_>) -> Settled {
        let end = self.now();
        let rec = |status| ActivationRecord {
            activity: self.act_id,
            workflow: self.run.wkf,
            status,
            start_time: at.start,
            end_time: end,
            machine: None,
            retries: at.attempt as i64,
            pair_key: at.key.clone(),
        };
        match exec {
            Exec::Hung => {
                self.record(at.slot, &rec(ActivationStatus::Aborted));
                self.emit(end, Severity::Warn, "activation_aborted", &at.key, Some(&at));
                Settled::Terminal(ActOutcome { aborted: 1, ..Default::default() })
            }
            Exec::Finished { tuples, files, params } => {
                let files: Vec<(&str, i64, &str)> = files
                    .iter()
                    .map(|path| {
                        let (dir, name) = split_path(path);
                        (name, self.run.files.size(path).unwrap_or(0) as i64, dir)
                    })
                    .collect();
                // a RUNNING row the bridge published for the attempt is
                // written over, not joined by a second row
                let running = match (&self.run.bridge, at.slot) {
                    (Some(b), Some(s)) => b.forget(s),
                    _ => None,
                };
                self.run.prov.commit_activation(
                    running,
                    &rec(ActivationStatus::Finished),
                    &files,
                    params,
                    &tuples,
                );
                self.emit(end, Severity::Info, "activation_finished", &at.key, Some(&at));
                Settled::Terminal(ActOutcome { tuples, finished: 1, ..Default::default() })
            }
            Exec::Failed | Exec::Lost => {
                self.record(at.slot, &rec(ActivationStatus::Failed));
                let spent = matches!(exec, Exec::Failed) && at.attempt >= self.run.max_retries;
                // warn while the attempt will be retried, error once terminal
                let severity = if spent { Severity::Error } else { Severity::Warn };
                self.emit(end, severity, "activation_failed", &at.key, Some(&at));
                if spent {
                    Settled::Terminal(ActOutcome { failed_attempts: 1, ..Default::default() })
                } else {
                    Settled::Retry
                }
            }
        }
    }

    fn activation_span(&self) -> telemetry::Span {
        let tel = &self.run.tel;
        tel.span("activation", &self.tag).with_histogram(tel.histogram(&self.hist))
    }

    /// Steps 2 and 3 around the activity function, for callers that execute
    /// it in this process. `part_index` only names the working directory.
    fn run_attempt(&self, key: &str, attempt: u32, part: &[Tuple], part_index: usize) -> Settled {
        let at = self.begin(key, attempt);
        let mut attempt_span = self.run.tel.span("attempt", &format!("{}#{attempt}", self.tag));
        let workdir = self.workdir(part_index);
        let mut ctx = ActivationCtx::new(&self.run.files, &workdir);
        let (what, exec) = if at.hung() {
            // the real program would loop forever; the engine detects
            // and aborts it
            ("aborted", Exec::Hung)
        } else {
            // a panicking activity function is a failed attempt, not a
            // dead worker thread: the payload is dropped here (the panic
            // hook already printed it)
            match catch_unwind(AssertUnwindSafe(|| (self.func)(part, &mut ctx))) {
                Ok(Ok(tuples)) if !at.doomed() => (
                    "finished",
                    Exec::Finished { tuples, files: ctx.produced_files(), params: &ctx.params },
                ),
                // injected failure (the work is lost) or domain error
                Ok(_) => ("failed", Exec::Failed),
                Err(_) => ("panicked", Exec::Failed),
            }
        };
        attempt_span.set_detail(|| format!("{what} pair={key}"));
        self.settle(at, exec)
    }

    /// One dispatched attempt under its own `activation` span, which so
    /// encloses `settle`: what a worker thread of the engine's thread port
    /// runs. A retry is a new dispatch, so the span (and the activity's
    /// latency histogram) counts attempts, as a `scidock-worker` process does.
    pub(crate) fn run_dispatched(
        &self,
        key: &str,
        attempt: u32,
        part: &[Tuple],
        part_index: usize,
    ) -> Settled {
        let mut act_span = self.activation_span();
        let settled = self.run_attempt(key, attempt, part, part_index);
        act_span.set_detail(|| match &settled {
            Settled::Retry => format!("failed pair={key} attempt={attempt}"),
            Settled::Terminal(out) => terminal_detail(out, key, attempt),
        });
        settled
    }

    /// All three steps in one place, retries included, for the local pool.
    pub(crate) fn run_activation(&self, part: &[Tuple], part_index: usize) -> ActOutcome {
        // one span per activation, covering the whole ready→terminal life
        // including retries; its duration also feeds the per-activity
        // histogram that RunReport::metrics summarises
        let mut act_span = self.activation_span();
        let key = match self.admit(part) {
            Admitted::Run(key) => key,
            Admitted::Settled(out) => {
                let what = if out.resumed > 0 { "resumed" } else { "blacklisted" };
                act_span.set_detail(|| format!("{what} pair={}", pair_key(part)));
                return out;
            }
        };
        let mut attempt = 0u32;
        loop {
            match self.run_attempt(&key, attempt, part, part_index) {
                Settled::Retry => {
                    attempt += 1;
                    self.run.tel.instant("activation", "retry", Some(&key));
                }
                Settled::Terminal(mut out) => {
                    // every earlier attempt of this activation failed
                    out.failed_attempts += attempt as usize;
                    act_span.set_detail(|| terminal_detail(&out, &key, attempt));
                    return out;
                }
            }
        }
    }
}

fn terminal_detail(out: &ActOutcome, key: &str, attempt: u32) -> String {
    if out.finished > 0 {
        format!("finished pair={key} retries={attempt}")
    } else if out.aborted > 0 {
        format!("aborted pair={key}")
    } else {
        format!("failed-permanently pair={key}")
    }
}

// --------------------------------------------------------------- run scope

/// What a backend's configuration contributes to [`run_scoped`].
pub(crate) struct ScopeCfg<'a> {
    /// `run_started`'s `backend` field.
    pub(crate) backend: &'a str,
    /// Telemetry track name of the thread driving the run.
    pub(crate) track: &'a str,
    /// Initial fleet size (threads or worker processes).
    pub(crate) workers: usize,
    pub(crate) telemetry: &'a Telemetry,
    pub(crate) durability: Option<Durability>,
    pub(crate) steering_tick: Option<Duration>,
    /// `None` = lifecycle events are not emitted at all.
    pub(crate) events: Option<EventLog>,
    pub(crate) metrics_addr: Option<&'a str>,
    pub(crate) metrics_bound: Option<&'a BoundAddr>,
}

/// What the body of a run gets from [`run_scoped`].
pub(crate) struct RunScope {
    pub(crate) wkf: WorkflowId,
    pub(crate) t0: Instant,
    pub(crate) prov: Arc<ProvenanceStore>,
    pub(crate) tel: Telemetry,
    pub(crate) bridge: Option<Arc<SteeringBridge>>,
    pub(crate) events: Option<EventLog>,
    /// Observability state behind the endpoint; `obs.tel` is the collector
    /// `/metrics` serves (the run's own sink when one is attached).
    pub(crate) obs: ObsState,
}

impl RunScope {
    /// Emit a run-level event, stamped on the run's clock.
    pub(crate) fn emit(&self, severity: Severity, kind: &str, fields: &[(&str, String)]) {
        if let Some(ev) = &self.events {
            ev.emit(self.t0.elapsed().as_secs_f64(), severity, kind, fields);
        }
    }

    /// The activation-side context of this run.
    pub(crate) fn run_ctx(
        &self,
        files: &Arc<FileStore>,
        failures: FailureModel,
        max_retries: u32,
        resume_from: Option<WorkflowId>,
    ) -> Arc<RunCtx> {
        Arc::new(RunCtx {
            wkf: self.wkf,
            files: Arc::clone(files),
            prov: Arc::clone(&self.prov),
            failures,
            max_retries,
            resume_from,
            start_base: self.t0,
            tel: self.tel.clone(),
            bridge: self.bridge.clone(),
            events: self.events.clone(),
        })
    }
}

/// Run `body` inside the one run scope: validate → durability → observability
/// endpoint → `run_started` → steering bridge → *body* → `run_finished` /
/// `run_error` → bridge stop → WAL flush → run span → metrics snapshot.
/// Everything after the body runs on every exit path.
pub(crate) fn run_scoped(
    def: &WorkflowDef,
    prov: &Arc<ProvenanceStore>,
    cfg: ScopeCfg<'_>,
    body: impl FnOnce(&RunScope) -> Result<RunReport, CumulusError>,
) -> Result<RunReport, CumulusError> {
    def.validate().map_err(CumulusError::Invalid)?;
    if let Some(d) = cfg.durability {
        prov.set_durability(d);
    }
    let tel = cfg.telemetry.clone();
    // The collector the endpoint serves (and distributed workers stream
    // their Stats deltas into): the run's own sink when one is attached, a
    // private one when only the endpoint needs it, otherwise disabled.
    let obs_tel = if tel.is_enabled() {
        tel.clone()
    } else if cfg.metrics_addr.is_some() {
        Telemetry::attached()
    } else {
        Telemetry::disabled()
    };
    // observation never perturbs results: the plane only reads engine state
    let obs = ObsState::new(obs_tel, cfg.events.clone().unwrap_or_default());
    obs.set_health(HealthView {
        phase: "running".to_string(),
        fleet: cfg.workers,
        workers: Vec::new(),
    });
    let server = match cfg.metrics_addr {
        Some(addr) => {
            let s = ObsServer::start(addr, obs.clone())
                .map_err(|e| CumulusError::Io(format!("metrics listener on {addr}: {e}")))?;
            if let Some(bound) = cfg.metrics_bound {
                bound.set(s.addr());
            }
            Some(s)
        }
        None => None,
    };
    let wkf = prov.begin_workflow(&def.tag, &def.description, &def.expdir);
    let mut scope = RunScope {
        wkf,
        t0: Instant::now(),
        prov: Arc::clone(prov),
        tel: tel.clone(),
        bridge: None,
        events: cfg.events.clone(),
        obs,
    };
    scope.emit(
        Severity::Info,
        "run_started",
        &[
            ("workflow", def.tag.clone()),
            ("backend", cfg.backend.to_string()),
            ("workers", cfg.workers.to_string()),
        ],
    );
    scope.bridge =
        cfg.steering_tick.map(|tick| SteeringBridge::start(Arc::clone(prov), scope.t0, tick));
    tel.name_current_track(cfg.track);
    let run_start = tel.now_ns();

    let result = body(&scope);

    match &result {
        Ok(r) => scope.emit(
            Severity::Info,
            "run_finished",
            &[
                ("workflow", def.tag.clone()),
                ("finished", r.finished.to_string()),
                ("failed_attempts", r.failed_attempts.to_string()),
                ("aborted", r.aborted.to_string()),
                ("blacklisted", r.blacklisted.to_string()),
            ],
        ),
        Err(e) => scope.emit(
            Severity::Error,
            "run_error",
            &[("workflow", def.tag.clone()), ("error", e.to_string())],
        ),
    }
    scope.obs.health.lock().expect("health view poisoned").phase = "done".to_string();
    if let Some(b) = &scope.bridge {
        b.stop();
    }
    // the run's final rows must survive a crash after the backend returns
    prov.flush_wal();
    if tel.is_enabled() {
        tel.record_span_at(
            "run",
            &def.tag,
            None,
            run_start,
            tel.now_ns(),
            Some(&format!("{} workers={}", cfg.backend, cfg.workers)),
        );
    }
    if let Some(s) = server {
        s.shutdown();
    }
    result.map(|mut report| {
        report.metrics = tel.snapshot();
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Activity;
    use provenance::Value;

    /// A finished attempt whose `RUNNING` row the steering bridge already
    /// published keeps that row's task id: the row is written over as
    /// `FINISHED`, the files and tuples hang off the same id, and no
    /// `RUNNING` row is left behind.
    #[test]
    fn a_published_running_row_is_finished_in_place_under_the_same_task_id() {
        let prov = Arc::new(ProvenanceStore::new_paged());
        let files = Arc::new(FileStore::new());
        let func: ActivityFn = Arc::new(|tuples, _ctx| Ok(tuples.to_vec()));
        let def = WorkflowDef {
            tag: "live".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("vina", &["x"], func)],
            deps: vec![vec![]],
        };
        let t0 = Instant::now();
        // a tick that never comes: the test drives the flush itself
        let bridge = SteeringBridge::start(Arc::clone(&prov), t0, Duration::from_secs(3600));
        let run = Arc::new(RunCtx {
            wkf: prov.begin_workflow(&def.tag, "", &def.expdir),
            files: Arc::clone(&files),
            prov: Arc::clone(&prov),
            failures: FailureModel::none(),
            max_retries: 0,
            resume_from: None,
            start_base: t0,
            tel: Telemetry::disabled(),
            bridge: Some(Arc::clone(&bridge)),
            events: None,
        });
        let ctx = &ActivityCtx::build_all(&def, &run)[0];
        let rows = |sql: &str| prov.query_rows(sql, &[]).unwrap().rows;

        // one flush per attempt, so which gets which task id is not left to
        // the bridge's map order
        let published = ctx.begin("R:L1", 0);
        bridge.flush_now();
        let still_running = ctx.begin("R:L2", 0);
        bridge.flush_now();
        assert_eq!(
            rows("SELECT taskid, status FROM hactivation ORDER BY taskid"),
            vec![
                vec![Value::Int(1), Value::from("RUNNING")],
                vec![Value::Int(2), Value::from("RUNNING")]
            ]
        );
        let never_published = ctx.begin("R:L3", 0);

        files.write("/e/vina/0/out.dlg", "docked");
        let produced = ["/e/vina/0/out.dlg".to_string()];
        for at in [published, never_published] {
            let exec = Exec::Finished {
                tuples: vec![vec![Value::Int(7)]],
                files: &produced,
                params: &[("feb".to_string(), Some(-7.5), None)],
            };
            assert!(matches!(ctx.settle(at, exec), Settled::Terminal(out) if out.finished == 1));
        }
        assert_eq!(
            rows("SELECT taskid, status, pairkey FROM hactivation ORDER BY taskid"),
            vec![
                vec![Value::Int(1), Value::from("FINISHED"), Value::from("R:L1")],
                vec![Value::Int(2), Value::from("RUNNING"), Value::from("R:L2")],
                vec![Value::Int(3), Value::from("FINISHED"), Value::from("R:L3")],
            ],
            "finished in place; the attempt still in flight keeps its RUNNING row"
        );
        for table in ["hfile", "hparameter", "houtput"] {
            assert_eq!(
                rows(&format!("SELECT taskid FROM {table} ORDER BY taskid")),
                vec![vec![Value::Int(1)], vec![Value::Int(3)]],
                "{table} rows carry their activation's task id"
            );
        }
        // the bridge let go of both settled slots: a later tick touches neither
        assert_eq!(bridge.in_flight(), 1);
        bridge.flush_now();
        assert_eq!(rows("SELECT taskid FROM hactivation WHERE status = 'RUNNING'").len(), 1);
        assert!(matches!(ctx.settle(still_running, Exec::Hung), Settled::Terminal(_)));
        bridge.stop();
        assert!(rows("SELECT taskid FROM hactivation WHERE status = 'RUNNING'").is_empty());
        prov.verify_integrity().unwrap();
    }
}
