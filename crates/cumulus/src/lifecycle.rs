//! The one activation lifecycle every real backend runs.
//!
//! What happens to an activation does not depend on where it executes:
//!
//! 1. [`ActivityCtx::admit`] — resume lookup (a prior run already finished
//!    this pair: reuse its tuples), then the blacklist rule (`BLACKLISTED`
//!    row + event, nothing executes);
//! 2. [`ActivityCtx::begin`] — roll the attempt's fate, register it with
//!    the run's committer when a steering tick publishes `RUNNING` rows,
//!    start its clock;
//! 3. [`ActivityCtx::settle`] — fold what the attempt did into provenance:
//!    a hang is `ABORTED`; an injected failure, a domain error, a panic or
//!    a lost worker is `FAILED` and retried while budget remains; success
//!    is one record — files, parameters, output tuples and the `FINISHED`
//!    row, written as one atomic WAL record, so a recovered `FINISHED` row
//!    always has its complete outputs and resume never reuses a
//!    half-recorded activation.
//!
//! Every row is queued for the owner's [`Committer`], which writes it on its
//! own thread; it is durable at the latest when the campaign is recorded. A
//! run's workflow and activity rows go first, under ids reserved when the
//! run is taken on ([`Committer::register`]): the engine thread never writes.
//!
//! The backends differ only in *where* they call the steps. The engine
//! (`crate::engine`, under every real backend) calls `admit` itself when the
//! dispatcher submits and leaves the other two to its port: a worker thread
//! of the thread port (`scidockd`, the local backend) runs `begin` → execute
//! → `settle` in [`ActivityCtx::run_dispatched`]; the `SDW2` port calls
//! `begin` when it ships a `Run` frame and `settle` when the `Done` frame (or
//! the worker's death) comes back. A retry is a new dispatch everywhere.
//!
//! One level up, every run is a campaign of the one run scope, the `serve`
//! module's campaign directory, whichever backend owns it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use cloudsim::{FailureModel, Fate};
use provenance::{
    ActivationOutputs, ActivationRecord, ActivationStatus, ActivityId, ProvenanceStore, WorkflowId,
};
use telemetry::Telemetry;

use crate::algebra::Tuple;
use crate::commit::Committer;
use crate::dispatch::{pair_key, split_path};
use crate::obs::{EventLog, Severity};
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
    /// Writes every activation row of the run.
    pub(crate) commit: Arc<Committer>,
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
    /// The committer's registration of the attempt, under a steering tick.
    registered: Option<u64>,
    /// Which worker serves the attempt, where the backend has such a
    /// notion; named in the attempt's event.
    pub(crate) worker: Option<usize>,
}

impl Attempt {
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
        params: Vec<(String, Option<f64>, Option<String>)>,
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
    fn build(def: &WorkflowDef, i: usize, run: &Arc<RunCtx>, act_id: ActivityId) -> ActivityCtx {
        let activity = &def.activities[i];
        ActivityCtx {
            act_id,
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

    /// One context per activity of `def`, in activity order, under the ids
    /// [`Committer::register`] reserved.
    pub(crate) fn build_all(
        def: &WorkflowDef,
        run: &Arc<RunCtx>,
        acts: &[ActivityId],
    ) -> Vec<Arc<ActivityCtx>> {
        acts.iter()
            .enumerate()
            .map(|(i, &id)| Arc::new(ActivityCtx::build(def, i, run, id)))
            .collect()
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

    /// This activity's `hactivation` row for attempt `retries` of `key`.
    fn row(
        &self,
        status: ActivationStatus,
        key: &str,
        start: f64,
        end: f64,
        retries: u32,
    ) -> ActivationRecord {
        ActivationRecord {
            activity: self.act_id,
            workflow: self.run.wkf,
            status,
            start_time: start,
            end_time: end,
            machine: None,
            retries: retries as i64,
            pair_key: key.to_string(),
        }
    }

    /// Never execute this input (again): `BLACKLISTED` row + event.
    /// [`ActivityCtx::admit`] applies it by rule before the first attempt;
    /// the distributed master applies it to an input whose attempts keep
    /// taking workers down — the terminal counterpart of [`Exec::Lost`].
    pub(crate) fn poison(&self, key: &str, retries: u32) -> ActOutcome {
        let now = self.now();
        self.emit(now, Severity::Error, "activation_blacklisted", key, None);
        let row = self.row(ActivationStatus::Blacklisted, key, now, now, retries);
        self.run.commit.write(None, row, None);
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
        let running = || self.row(ActivationStatus::Running, key, start, start, attempt);
        let registered = self.run.commit.begin(running);
        Attempt { key: key.to_string(), attempt, fate, start, registered, worker: None }
    }

    /// Step 3: record what the attempt did and decide what happens next.
    pub(crate) fn settle(&self, at: Attempt, exec: Exec<'_>) -> Settled {
        let end = self.now();
        // what the run's store digested since the last attempt settled
        let digested = self.run.files.take_digest_bytes();
        if digested > 0 {
            self.run.tel.count("files.digest_bytes", digested);
        }
        let write = |status, outputs| {
            let row = self.row(status, &at.key, at.start, end, at.attempt);
            self.run.commit.write(at.registered, row, outputs);
        };
        match exec {
            Exec::Hung => {
                write(ActivationStatus::Aborted, None);
                self.emit(end, Severity::Warn, "activation_aborted", &at.key, Some(&at));
                Settled::Terminal(ActOutcome { aborted: 1, ..Default::default() })
            }
            Exec::Finished { tuples, files, params } => {
                let files = files
                    .iter()
                    .map(|path| {
                        let (dir, name) = split_path(path);
                        let size = self.run.files.size(path).unwrap_or(0) as i64;
                        (name.to_string(), size, dir.to_string())
                    })
                    .collect();
                let outputs = ActivationOutputs { files, params, tuples: tuples.clone() };
                write(ActivationStatus::Finished, Some(outputs));
                self.emit(end, Severity::Info, "activation_finished", &at.key, Some(&at));
                Settled::Terminal(ActOutcome { tuples, finished: 1, ..Default::default() })
            }
            Exec::Failed | Exec::Lost => {
                write(ActivationStatus::Failed, None);
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

    /// One dispatched attempt — `begin` → the activity function → `settle` —
    /// under its own `activation` span, which so encloses `settle`: what a
    /// worker thread of the engine's thread port runs. A retry is a new
    /// dispatch, so the span (and the activity's latency histogram) counts
    /// attempts, as a `scidock-worker` process does. `part_index` only names
    /// the working directory.
    pub(crate) fn run_dispatched(
        &self,
        key: &str,
        attempt: u32,
        part: &[Tuple],
        part_index: usize,
    ) -> Settled {
        let tel = &self.run.tel;
        let mut act_span =
            tel.span("activation", &self.tag).with_histogram(tel.histogram(&self.hist));
        let at = self.begin(key, attempt);
        let mut attempt_span = tel.span("attempt", &format!("{}#{attempt}", self.tag));
        let workdir = self.workdir(part_index);
        let mut ctx = ActivationCtx::new(&self.run.files, &workdir);
        // a panicking activity function is a failed attempt, not a dead
        // worker thread: the payload is dropped here (the panic hook already
        // printed it)
        let (what, exec) = match catch_unwind(AssertUnwindSafe(|| (self.func)(part, &mut ctx))) {
            Ok(Ok(tuples)) if !at.doomed() => {
                let params = std::mem::take(&mut ctx.params);
                ("finished", Exec::Finished { tuples, files: ctx.produced_files(), params })
            }
            // injected failure (the work is lost) or domain error
            Ok(_) => ("failed", Exec::Failed),
            Err(_) => ("panicked", Exec::Failed),
        };
        attempt_span.set_detail(|| format!("{what} pair={key}"));
        let settled = self.settle(at, exec);
        act_span.set_detail(|| match &settled {
            Settled::Retry => format!("failed pair={key} attempt={attempt}"),
            Settled::Terminal(out) if out.finished > 0 => {
                format!("finished pair={key} retries={attempt}")
            }
            Settled::Terminal(_) => format!("failed-permanently pair={key}"),
        });
        settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PortEvent;
    use crate::workflow::Activity;
    use provenance::Value;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A finished attempt whose `RUNNING` row the committer already
    /// published keeps that row's task id: the row is written over as
    /// `FINISHED`, the files and tuples hang off the same id, and no
    /// `RUNNING` row is left behind.
    #[test]
    fn a_published_running_row_is_finished_in_place_under_the_same_task_id() {
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let func: ActivityFn = Arc::new(|tuples, _ctx| Ok(tuples.to_vec()));
        let def = Arc::new(WorkflowDef {
            tag: "live".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![Activity::map("vina", &["x"], func)],
            deps: vec![vec![]],
        });
        let t0 = Instant::now();
        // a tick that never comes: the test publishes itself
        let (events, _) = mpsc::channel::<PortEvent>();
        let tick = Some(Duration::from_secs(3600));
        let commit = Committer::start(Arc::clone(&prov), t0, tick, &Telemetry::disabled(), events);
        let (wkf, acts) = commit.register(&prov, &def);
        let run = Arc::new(RunCtx {
            wkf,
            files: Arc::clone(&files),
            prov: Arc::clone(&prov),
            failures: FailureModel::none(),
            max_retries: 0,
            resume_from: None,
            start_base: t0,
            tel: Telemetry::disabled(),
            commit: Arc::clone(&commit),
            events: None,
        });
        let ctx = &ActivityCtx::build_all(&def, &run, &acts)[0];
        let rows = |sql: &str| {
            assert!(commit.drain());
            prov.query_rows(sql, &[]).unwrap().rows
        };

        // one publish per attempt, so which gets which task id is pinned
        let published = ctx.begin("R:L1", 0);
        commit.publish_now();
        let still_running = ctx.begin("R:L2", 0);
        commit.publish_now();
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
                params: vec![("feb".to_string(), Some(-7.5), None)],
            };
            assert!(matches!(ctx.settle(at, exec), Settled::Terminal(out) if out.finished == 1));
        }
        let finished = vec![
            vec![Value::Int(1), Value::from("FINISHED"), Value::from("R:L1")],
            vec![Value::Int(2), Value::from("RUNNING"), Value::from("R:L2")],
            vec![Value::Int(3), Value::from("FINISHED"), Value::from("R:L3")],
        ];
        let all = "SELECT taskid, status, pairkey FROM hactivation ORDER BY taskid";
        assert_eq!(
            rows(all),
            finished,
            "finished in place; the attempt still in flight keeps its RUNNING row"
        );
        for table in ["hfile", "hparameter", "houtput"] {
            assert_eq!(
                rows(&format!("SELECT taskid FROM {table} ORDER BY taskid")),
                vec![vec![Value::Int(1)], vec![Value::Int(3)]],
                "{table} rows carry their activation's task id"
            );
        }
        // the committer let go of both settled attempts: a later tick
        // touches neither
        commit.publish_now();
        assert_eq!(rows(all), finished);
        assert!(matches!(ctx.settle(still_running, Exec::Hung), Settled::Terminal(_)));
        assert!(rows("SELECT taskid FROM hactivation WHERE status = 'RUNNING'").is_empty());
        prov.verify_integrity().unwrap();
    }
}
