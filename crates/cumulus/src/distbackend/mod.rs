//! The distributed execution backend: a master–worker engine running one
//! workflow across multiple OS processes on the same machine.
//!
//! The master owns the same ready-driven pipelined dispatcher as the local
//! backend ([`crate::dispatch::PipelineState`]) — but instead of handing
//! activations to a thread pool it shards them over TCP to worker
//! processes, each a [`worker::serve`] loop around the length-prefixed
//! frame protocol in [`proto`] (`mod proto` is private; the frame layout is
//! documented in `DESIGN.md` §10). The master keeps every run honest:
//!
//! * **Backpressure** — at most [`DistConfig::max_in_flight`] activations
//!   are outstanding per worker; the rest wait in a FIFO.
//! * **Liveness** — workers heartbeat on an interval; a silent worker is
//!   declared lost after [`DistConfig::heartbeat_timeout`], its socket cut,
//!   and its in-flight activations reassigned.
//! * **Crash recovery** — a lost activation gets a `FAILED` provenance row
//!   and re-enters the queue with a bumped attempt; after more than
//!   [`DistConfig::reassign_budget`] crashes the input is treated as poison
//!   and `BLACKLISTED`, so one bad tuple cannot wedge the run.
//! * **Provenance parity** — the master writes every row itself through the
//!   lifecycle the local backend uses (a finished activation is one atomic
//!   `commit_activation`: outputs and `FINISHED` row together), so
//!   `provenance::export_provn_canonical` of a local and a distributed
//!   run are byte-identical and `resume_from` stays sound across a master
//!   crash.
//! * **Telemetry lanes** — each worker ships its spans back inside result
//!   frames; the master merges them onto a per-worker track with a clock
//!   offset, so a Chrome trace shows one lane per worker process.
//!
//! Activity functions are Rust closures and cannot cross a process
//! boundary, so both sides rebuild the workflow from a spec name: the
//! master ships [`DistConfig::spec`] in its `Hello`, and the worker
//! resolves it through a [`worker::WorkflowResolver`] registry.

pub mod worker;

pub(crate) mod proto;

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cloudsim::FailureModel;
use parking_lot::Mutex;
use provenance::{ProvenanceStore, WorkflowId};
use telemetry::{RemoteSpan, Telemetry};

use crate::algebra::Relation;
use crate::dispatch::{PipelineState, SubmitReq};
use crate::error::CumulusError;
use crate::fleet::{FleetController, FleetSnapshot, ScaleDecision, SchedulerFactory, WorkerView};
use crate::lifecycle::{
    run_scoped, tally, ActOutcome, ActivityCtx, Admitted, Attempt, Exec, RunScope, ScopeCfg,
    Settled,
};
use crate::localbackend::RunReport;
use crate::obs::{BoundAddr, EventLog, HealthView, Severity, WorkerHealth};
use crate::workflow::{FileStore, WorkflowDef};

use proto::{Frame, WireFate, WireOutcome};

/// Fault-drill hook: sever worker `worker` right after it has been sent its
/// `after_runs`-th `Run` frame (1-based). Spawned workers are killed with
/// SIGKILL mid-activation; in-process workers cut their own socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Index of the doomed worker (accept order, 0-based).
    pub worker: usize,
    /// Die upon the Nth dispatched activation (1-based).
    pub after_runs: usize,
}

/// Distributed backend configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`DistConfig::new`] (or
/// `Default`) and the `with_*` builder methods rather than a struct
/// literal, so new knobs can be added without breaking downstream crates.
#[derive(Clone)]
#[non_exhaustive]
pub struct DistConfig {
    /// Number of worker processes (or in-process worker threads).
    pub workers: usize,
    /// Worker executable and its leading arguments; the master appends
    /// `--connect <addr>`. `None` = run workers as in-process threads via
    /// [`DistConfig::resolver`] (used by tests and single-binary setups).
    pub worker_cmd: Option<(String, Vec<String>)>,
    /// Spec-name resolver for in-process workers (`worker_cmd: None`).
    pub resolver: Option<worker::WorkflowResolver>,
    /// Workflow spec name shipped to workers in the `Hello` frame.
    pub spec: String,
    /// Maximum activations outstanding per worker (backpressure bound).
    pub max_in_flight: usize,
    /// Heartbeat interval requested from workers.
    pub heartbeat: Duration,
    /// A worker silent for longer than this is declared lost.
    pub heartbeat_timeout: Duration,
    /// An activation running longer than this wedges its worker: the
    /// worker is declared lost and the activation reassigned. `None`
    /// disables the hang detector.
    pub activation_timeout: Option<Duration>,
    /// Deadline for all workers to connect and complete the handshake.
    pub connect_timeout: Duration,
    /// Worker crashes an activation survives before being blacklisted as
    /// poison input.
    pub reassign_budget: u32,
    /// Failure injection model (fates roll on the master, exactly like the
    /// local backend, so injected failures are schedule-independent).
    pub failures: FailureModel,
    /// Maximum re-executions of a failed activation before dropping it.
    pub max_retries: u32,
    /// Resume from a prior workflow execution (skip finished activations).
    pub resume_from: Option<WorkflowId>,
    /// Telemetry sink; worker spans merge into it on per-worker tracks.
    pub telemetry: Telemetry,
    /// When set, a [`crate::steer::SteeringBridge`] publishes in-flight
    /// activation state into the provenance store at this interval.
    pub steering_tick: Option<Duration>,
    /// Durability override applied to the provenance store for this run.
    pub durability: Option<provenance::Durability>,
    /// Fault-drill hook (tests).
    pub kill_plan: Option<KillPlan>,
    /// Elastic fleet policy. `None` = fixed fleet (today's behavior): the
    /// run starts with [`DistConfig::workers`] workers and keeps them.
    /// With a factory, the controller re-evaluates after every completion
    /// and may spawn new workers mid-run or drain-then-retire idle ones.
    pub scheduler: Option<SchedulerFactory>,
    /// Serve the observability endpoint (`/metrics`, `/snapshot.json`,
    /// `/healthz`, `/events`) on this address for the run's duration.
    /// `"127.0.0.1:0"` binds an ephemeral port readable through
    /// [`DistConfig::metrics_bound`]. `None` = no listener.
    pub metrics_addr: Option<String>,
    /// Resolves to the endpoint's actual bound address once it is
    /// listening (for ephemeral ports).
    pub metrics_bound: Option<BoundAddr>,
    /// Structured event log the run emits into (lifecycle, failures, fleet
    /// scaling, stragglers). `None` = a fresh in-memory ring, still served
    /// from `/events` when the endpoint is up.
    pub events: Option<EventLog>,
    /// Straggler threshold as a multiple of the activity's rolling p95
    /// latency (merged from worker `Stats` frames).
    pub straggler_factor: f64,
    /// Straggler floor: an activation younger than this many milliseconds
    /// is never flagged, whatever the baseline says.
    pub straggler_min_ms: u64,
    /// Test-only: in-process worker index that never heartbeats, to drill
    /// the master's liveness timeout.
    pub(crate) mute_heartbeat: Option<usize>,
}

impl std::fmt::Debug for DistConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistConfig")
            .field("workers", &self.workers)
            .field("worker_cmd", &self.worker_cmd)
            .field("resolver", &self.resolver.as_ref().map(|_| "<resolver>"))
            .field("spec", &self.spec)
            .field("max_in_flight", &self.max_in_flight)
            .field("heartbeat", &self.heartbeat)
            .field("heartbeat_timeout", &self.heartbeat_timeout)
            .field("activation_timeout", &self.activation_timeout)
            .field("connect_timeout", &self.connect_timeout)
            .field("reassign_budget", &self.reassign_budget)
            .field("failures", &self.failures)
            .field("max_retries", &self.max_retries)
            .field("resume_from", &self.resume_from)
            .field("steering_tick", &self.steering_tick)
            .field("durability", &self.durability)
            .field("kill_plan", &self.kill_plan)
            .field("scheduler", &self.scheduler)
            .field("metrics_addr", &self.metrics_addr)
            .field("events", &self.events.as_ref().map(|_| "<event-log>"))
            .field("straggler_factor", &self.straggler_factor)
            .field("straggler_min_ms", &self.straggler_min_ms)
            .finish()
    }
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            workers: 2,
            worker_cmd: None,
            resolver: None,
            spec: String::new(),
            max_in_flight: 4,
            heartbeat: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(3),
            activation_timeout: None,
            connect_timeout: Duration::from_secs(10),
            reassign_budget: 2,
            failures: FailureModel::none(),
            max_retries: 3,
            resume_from: None,
            telemetry: Telemetry::disabled(),
            steering_tick: None,
            durability: None,
            kill_plan: None,
            scheduler: None,
            metrics_addr: None,
            metrics_bound: None,
            events: None,
            straggler_factor: 4.0,
            straggler_min_ms: 30_000,
            mute_heartbeat: None,
        }
    }
}

impl DistConfig {
    /// The default configuration (2 in-process workers, 4 in-flight each,
    /// no failure injection, telemetry disabled).
    pub fn new() -> DistConfig {
        DistConfig::default()
    }

    /// Set the number of workers.
    pub fn with_workers(mut self, workers: usize) -> DistConfig {
        self.workers = workers;
        self
    }

    /// Spawn workers as OS processes running `program` (the master appends
    /// `--connect <addr>` to `args`).
    pub fn with_worker_command(
        mut self,
        program: impl Into<String>,
        args: Vec<String>,
    ) -> DistConfig {
        self.worker_cmd = Some((program.into(), args));
        self
    }

    /// Run workers as in-process threads resolving specs through `resolver`.
    pub fn with_resolver(mut self, resolver: worker::WorkflowResolver) -> DistConfig {
        self.resolver = Some(resolver);
        self
    }

    /// Set the workflow spec name shipped to workers.
    pub fn with_spec(mut self, spec: impl Into<String>) -> DistConfig {
        self.spec = spec.into();
        self
    }

    /// Set the per-worker in-flight bound.
    pub fn with_max_in_flight(mut self, n: usize) -> DistConfig {
        self.max_in_flight = n;
        self
    }

    /// Set the worker heartbeat interval.
    pub fn with_heartbeat(mut self, interval: Duration) -> DistConfig {
        self.heartbeat = interval;
        self
    }

    /// Set the heartbeat liveness timeout.
    pub fn with_heartbeat_timeout(mut self, timeout: Duration) -> DistConfig {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Enable the per-activation hang detector.
    pub fn with_activation_timeout(mut self, timeout: Duration) -> DistConfig {
        self.activation_timeout = Some(timeout);
        self
    }

    /// Set the worker connect/handshake deadline.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> DistConfig {
        self.connect_timeout = timeout;
        self
    }

    /// Set the crash budget before an input is blacklisted as poison.
    pub fn with_reassign_budget(mut self, budget: u32) -> DistConfig {
        self.reassign_budget = budget;
        self
    }

    /// Set the failure-injection model.
    pub fn with_failures(mut self, failures: FailureModel) -> DistConfig {
        self.failures = failures;
        self
    }

    /// Set the per-activation retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> DistConfig {
        self.max_retries = max_retries;
        self
    }

    /// Resume from a prior workflow execution.
    pub fn with_resume_from(mut self, prev: WorkflowId) -> DistConfig {
        self.resume_from = Some(prev);
        self
    }

    /// Attach a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> DistConfig {
        self.telemetry = telemetry;
        self
    }

    /// Enable the steering bridge at the given flush interval.
    pub fn with_steering_tick(mut self, tick: Duration) -> DistConfig {
        self.steering_tick = Some(tick);
        self
    }

    /// Override the provenance store's durability for this run.
    pub fn with_durability(mut self, durability: provenance::Durability) -> DistConfig {
        self.durability = Some(durability);
        self
    }

    /// Install a fault-drill kill plan.
    pub fn with_kill_plan(mut self, plan: KillPlan) -> DistConfig {
        self.kill_plan = Some(plan);
        self
    }

    /// Drive the fleet elastically with a [`SchedulerFactory`]. The run
    /// still *starts* with [`DistConfig::workers`] workers; the policy
    /// then grows or drains the fleet as completions flow.
    pub fn with_scheduler(mut self, factory: SchedulerFactory) -> DistConfig {
        self.scheduler = Some(factory);
        self
    }

    /// Serve the observability endpoint on `addr` for the run's duration.
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> DistConfig {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Publish the endpoint's bound address into `bound` once listening
    /// (pair with a `"127.0.0.1:0"` metrics address).
    pub fn with_metrics_bound(mut self, bound: BoundAddr) -> DistConfig {
        self.metrics_bound = Some(bound);
        self
    }

    /// Emit structured run events into `events` (and its sink file, if it
    /// has one) instead of a private in-memory ring.
    pub fn with_events(mut self, events: EventLog) -> DistConfig {
        self.events = Some(events);
        self
    }

    /// Tune the straggler detector: flag an in-flight activation once it
    /// runs longer than `factor ×` its activity's rolling p95 **and**
    /// longer than `min_ms` milliseconds.
    pub fn with_straggler(mut self, factor: f64, min_ms: u64) -> DistConfig {
        self.straggler_factor = factor;
        self.straggler_min_ms = min_ms;
        self
    }
}

// ------------------------------------------------------------------ master

/// One activation the master wants executed somewhere.
#[derive(Debug, Clone)]
struct Job {
    activity: usize,
    part: Vec<crate::algebra::Tuple>,
    part_index: usize,
    key: String,
    attempt: u32,
    /// Worker crashes this activation has survived (reassignment count).
    crashes: u32,
}

/// Master-side record of a dispatched activation.
struct InFlight {
    job: Job,
    /// The lifecycle's handle on this attempt (fate, steering slot, start
    /// clock), settled when the `Done` frame or the worker's death arrives.
    at: Attempt,
    /// Wall clock at dispatch, for the hang detector.
    dispatched: Instant,
    /// Flagged by the straggler detector: running far beyond this
    /// activity's latency baseline (each activation alarms at most once).
    straggler: bool,
}

/// Everything the master tracks about one worker connection.
struct WorkerHandle {
    writer: Arc<Mutex<TcpStream>>,
    alive: bool,
    /// Fleet controller sent `Drain`: no new work; retires on its `Bye`.
    draining: bool,
    /// Left cleanly via drain-then-retire (as opposed to being lost).
    retired: bool,
    child: Option<Child>,
    thread: Option<std::thread::JoinHandle<()>>,
    reader: Option<std::thread::JoinHandle<()>>,
    last_seen: Instant,
    in_flight: HashMap<u64, InFlight>,
    /// Telemetry track (trace lane) for this worker's spans.
    track: u64,
    /// master_clock − worker_clock, for span merging.
    offset_ns: i64,
    runs_sent: usize,
    /// Last heartbeat-reported `(job, elapsed_ms)`: the worker's own view
    /// of its current activation's age (quoted by the hang detector and
    /// cross-checked by the straggler detector).
    last_job: Option<(u64, u64)>,
    /// Handshake completion, for billing and utilisation.
    connected_at: Instant,
    /// Retirement/loss time; `None` while serving.
    ended_at: Option<Instant>,
    /// Wall-clock nanoseconds of completed activations (dispatch → Done),
    /// for utilisation telemetry.
    busy_ns: u64,
}

impl WorkerHandle {
    fn sever(&mut self) {
        self.alive = false;
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

enum Event {
    Frame(usize, Frame),
    Gone(usize),
}

/// Run a workflow across worker processes; prefer
/// [`crate::backend::Backend::run`] on a [`crate::backend::DistBackend`]
/// unless the raw [`RunReport`] is what you need.
pub fn run_dist(
    def: &WorkflowDef,
    input: Relation,
    files: Arc<FileStore>,
    prov: Arc<ProvenanceStore>,
    cfg: &DistConfig,
) -> Result<RunReport, CumulusError> {
    if cfg.workers == 0 {
        return Err(CumulusError::Invalid("distributed run needs at least one worker".into()));
    }
    if cfg.worker_cmd.is_none() && cfg.resolver.is_none() {
        return Err(CumulusError::Invalid(
            "DistConfig needs a worker command or an in-process resolver".into(),
        ));
    }
    let scope_cfg = ScopeCfg {
        backend: "dist",
        track: "master",
        workers: cfg.workers,
        telemetry: &cfg.telemetry,
        durability: cfg.durability,
        steering_tick: cfg.steering_tick,
        // without a log of the caller's, a fresh in-memory ring: still
        // served from `/events` when the endpoint is up
        events: Some(cfg.events.clone().unwrap_or_default()),
        metrics_addr: cfg.metrics_addr.as_deref(),
        metrics_bound: cfg.metrics_bound.as_ref(),
    };
    run_scoped(def, &prov, scope_cfg, |scope| master_loop(def, &input, &files, cfg, scope))
}

/// The master's state for one run. The loop in [`master_loop`] drives it;
/// the methods are the steps more than one place in that loop takes.
struct Master<'a> {
    cfg: &'a DistConfig,
    scope: &'a RunScope,
    ctxs: Vec<Arc<ActivityCtx>>,
    fleet: Fleet,
    controller: FleetController,
    pipe: PipelineState,
    /// Dispatcher submissions not yet admitted.
    submits: VecDeque<SubmitReq>,
    /// Admitted activations waiting for a worker slot.
    pending: VecDeque<Job>,
    /// `peak_workers` is kept current as the fleet changes.
    report: RunReport,
}

impl Master<'_> {
    /// A terminal activation: count it and let its tuples flow downstream.
    fn finish(&mut self, activity: usize, out: ActOutcome) {
        tally(&mut self.report, &out);
        self.submits.extend(self.pipe.on_completion(activity, &out.tuples));
    }

    /// Act on what the lifecycle decided about `job`'s latest attempt.
    fn settled(&mut self, mut job: Job, settled: Settled) {
        match settled {
            Settled::Terminal(out) => self.finish(job.activity, out),
            Settled::Retry => {
                self.report.failed_attempts += 1;
                job.attempt += 1;
                self.pending.push_front(job);
            }
        }
    }

    /// The scheduler's view of the run: logical quantities only (queue
    /// depths, provisioned fleet, capacity) and never wall-clock state, so
    /// the simulator can reproduce the exact decision sequence.
    fn snapshot(&self) -> FleetSnapshot {
        let mut queued_by_activity = vec![0usize; self.ctxs.len()];
        for j in &self.pending {
            queued_by_activity[j.activity] += 1;
        }
        for s in &self.submits {
            queued_by_activity[s.activity] += 1;
        }
        let workers = &self.fleet.workers;
        FleetSnapshot {
            completions: 0, // the controller stamps its own count
            queued: self.pending.len() + self.submits.len(),
            in_flight: workers.iter().map(|w| w.in_flight.len()).sum(),
            fleet: self.fleet.provisioned(),
            idle: workers
                .iter()
                .filter(|w| w.alive && !w.draining && w.in_flight.is_empty())
                .count(),
            slots_per_worker: self.cfg.max_in_flight,
            queued_by_activity,
            stragglers: workers
                .iter()
                .filter(|w| w.alive)
                .flat_map(|w| w.in_flight.values())
                .filter(|j| j.straggler)
                .count(),
        }
    }

    /// One scheduler tick: show the policy the run and apply its decision.
    fn rescale(&mut self) -> Result<(), CumulusError> {
        let decision = self.controller.evaluate(self.snapshot());
        for wi in apply_scale(decision, &mut self.fleet, self.cfg, self.scope)? {
            self.lose_worker(wi, "drain_undeliverable");
        }
        self.report.peak_workers = self.report.peak_workers.max(self.fleet.provisioned());
        Ok(())
    }

    /// Declare worker `wi` lost: cut it down, settle every activation it
    /// was running as a lost attempt, and reassign each — or blacklist it
    /// as poison once its crash budget is spent.
    fn lose_worker(&mut self, wi: usize, reason: &str) {
        let w = &mut self.fleet.workers[wi];
        if !w.alive {
            return;
        }
        w.sever();
        w.ended_at = Some(Instant::now());
        let mut fields = vec![
            ("worker", wi.to_string()),
            ("reason", reason.to_string()),
            ("in_flight", w.in_flight.len().to_string()),
        ];
        if let Some((job, ms)) = w.last_job {
            // the worker's own last elapsed report (from its heartbeat):
            // for a hang this is how long the wedged activation really ran
            fields.push(("last_job", job.to_string()));
            fields.push(("job_elapsed_ms", ms.to_string()));
        }
        self.scope.emit(Severity::Error, "worker_lost", &fields);
        let mut lost: Vec<InFlight> = w.in_flight.drain().map(|(_, j)| j).collect();
        // deterministic reassignment order regardless of hash-map iteration
        lost.sort_by_key(|j| (j.job.activity, j.job.part_index));
        for InFlight { mut job, at, .. } in lost {
            let ctx = &self.ctxs[job.activity];
            let retry = ctx.settle(at, Exec::Lost);
            job.crashes += 1;
            if job.crashes > self.cfg.reassign_budget {
                // this input has now taken down too many workers: poison
                let poisoned = ctx.poison(&job.key, job.attempt);
                self.report.failed_attempts += 1;
                self.finish(job.activity, poisoned);
            } else {
                self.settled(job, retry);
            }
        }
    }
}

/// Spawn/connect the fleet, pump the pipelined dispatcher over it, and
/// drain. Runs as the body of the run scope, so bridge/WAL/telemetry
/// teardown happens on every exit path.
fn master_loop(
    def: &WorkflowDef,
    input: &Relation,
    files: &Arc<FileStore>,
    cfg: &DistConfig,
    scope: &RunScope,
) -> Result<RunReport, CumulusError> {
    let tel = &scope.tel;
    let obs = &scope.obs;
    let run = scope.run_ctx(files, cfg.failures, cfg.max_retries, cfg.resume_from);
    let ctxs = ActivityCtx::build_all(def, &run);

    // per-activity histogram names the straggler detector reads baselines
    // from (allocated once; the sweep runs every loop iteration)
    let act_hist: Vec<String> = ctxs.iter().map(|c| format!("activation.{}", c.tag)).collect();

    obs.health.lock().expect("health view poisoned").phase = "starting".to_string();
    let (fleet, events) = connect_fleet(cfg, files)?;
    tel.gauge("fleet.size", fleet.provisioned() as f64);

    let (pipe, seeds) = PipelineState::new(Arc::new(def.clone()), input, tel.clone());
    let mut m = Master {
        cfg,
        scope,
        ctxs,
        report: RunReport::empty(scope.wkf, fleet.provisioned()),
        fleet,
        controller: match &cfg.scheduler {
            Some(factory) => FleetController::new(factory),
            None => FleetController::fixed(),
        },
        pipe,
        submits: seeds.into(),
        pending: VecDeque::new(),
    };
    let mut next_job: u64 = 0;
    // the scheduler sees the full initial backlog once, before dispatch
    let mut evaluated_initial = false;

    'run: loop {
        // 0. elastic bookkeeping: count this wakeup (the no-busy-spin
        //    regression watches it), expire launches that never connected,
        //    and welcome scaled-up workers
        tel.count("dist.master.wakeups", 1);
        let expired = m.fleet.expire_spawns(cfg);
        if expired > 0 {
            tel.count("fleet.spawn_timeouts", expired as u64);
        }
        if m.fleet.accept(cfg)? > 0 {
            tel.gauge("fleet.size", m.fleet.provisioned() as f64);
        }
        m.report.peak_workers = m.report.peak_workers.max(m.fleet.provisioned());
        obs.set_health(health_view(&m.fleet, "running"));
        // 1. admit dispatcher submissions into the job queue; resume hits
        //    and blacklisted inputs complete inline without touching a worker
        while let Some(req) = m.submits.pop_front() {
            match m.ctxs[req.activity].admit(&req.part) {
                Admitted::Settled(out) => m.finish(req.activity, out),
                Admitted::Run(key) => m.pending.push_back(Job {
                    activity: req.activity,
                    part: req.part,
                    part_index: req.part_index,
                    key,
                    attempt: 0,
                    crashes: 0,
                }),
            }
        }
        if m.pipe.done() {
            break 'run;
        }

        // 1b. the policy's first look: the whole seeded backlog, before
        //     any dispatch — the simulator evaluates at the same instant
        if !evaluated_initial {
            evaluated_initial = true;
            m.rescale()?;
        }

        // 2. dispatch queued jobs to workers with spare capacity; the
        //    policy places each activation (least-loaded by default)
        while !m.pending.is_empty() {
            let views: Vec<WorkerView> = m
                .fleet
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && !w.draining && w.in_flight.len() < cfg.max_in_flight)
                .map(|(i, w)| WorkerView { index: i, in_flight: w.in_flight.len() })
                .collect();
            if views.is_empty() {
                break;
            }
            let activity = m.pending.front().expect("loop guard").activity;
            let wi = m.controller.place(activity, &views).expect("views is non-empty");
            let job = m.pending.pop_front().expect("loop guard");
            let ctx = &m.ctxs[job.activity];
            let mut at = ctx.begin(&job.key, job.attempt);
            if at.hung() {
                // the activation would loop forever; the engine aborts it
                // without wasting a worker
                let aborted = ctx.settle(at, Exec::Hung);
                m.settled(job, aborted);
                continue 'run; // new submissions may precede queued work
            }
            at.worker = Some(wi);
            next_job += 1;
            let id = next_job;
            let frame = Frame::Run {
                job: id,
                activity: job.activity as u32,
                part_index: job.part_index as u64,
                attempt: job.attempt,
                fate: WireFate::injected(at.doomed()),
                workdir: ctx.workdir(job.part_index),
                part: job.part.clone(),
            };
            let w = &mut m.fleet.workers[wi];
            w.in_flight
                .insert(id, InFlight { job, at, dispatched: Instant::now(), straggler: false });
            let sent = proto::write_frame(&mut *w.writer.lock(), &frame).is_ok();
            w.runs_sent += 1;
            if let Some(plan) = cfg.kill_plan {
                if plan.worker == wi && plan.after_runs == w.runs_sent {
                    // SIGKILL mid-activation; in-process workers sever
                    // themselves via their own die_on_run counter
                    if let Some(child) = &mut w.child {
                        let _ = child.kill();
                    }
                }
            }
            if !sent {
                m.lose_worker(wi, "send_failed");
                continue 'run;
            }
        }

        // 3. wait for worker events, checking liveness on a tick
        match events.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Frame(wi, frame)) => {
                m.fleet.workers[wi].last_seen = Instant::now();
                match frame {
                    Frame::Heartbeat { job, job_elapsed_ms } => {
                        // the worker's own view of its current activation's
                        // age: the straggler detector cross-checks it and
                        // the hang detector quotes it on a loss
                        m.fleet.workers[wi].last_job = job.map(|j| (j, job_elapsed_ms));
                        if job.is_some() {
                            if let Some(h) = obs.tel.histogram("dist.heartbeat.job_elapsed") {
                                h.record(job_elapsed_ms.saturating_mul(1_000_000));
                            }
                        }
                    }
                    Frame::Stats { delta } => {
                        // periodic worker-local counter/histogram growth:
                        // merging it here keeps a continuously-current
                        // cluster-wide snapshot behind /metrics mid-run
                        obs.tel.absorb(&delta);
                    }
                    Frame::Done { job, outcome } => {
                        let w = &mut m.fleet.workers[wi];
                        let Some(InFlight { job, at, dispatched, .. }) = w.in_flight.remove(&job)
                        else {
                            continue 'run; // completion raced a reassignment
                        };
                        w.busy_ns += dispatched.elapsed().as_nanos() as u64;
                        // land the worker's artifacts in the shared store
                        // first, so recorded sizes are real and downstream
                        // fetches always hit. Even a failed attempt's files
                        // persist: the local backend shares one store, so
                        // parity demands the same here
                        let land = |shipped: Vec<(String, Arc<str>)>| -> Vec<String> {
                            shipped
                                .into_iter()
                                .map(|(path, contents)| {
                                    files.write(&path, contents);
                                    path
                                })
                                .collect()
                        };
                        let ctx = &m.ctxs[job.activity];
                        let settled = match outcome {
                            WireOutcome::Finished { tuples, files: shipped, params, spans } => {
                                import(tel, w.track, w.offset_ns, spans);
                                let paths = land(shipped);
                                let exec =
                                    Exec::Finished { tuples, files: &paths, params: &params };
                                ctx.settle(at, exec)
                            }
                            WireOutcome::Failed { error, files: shipped, spans } => {
                                import(tel, w.track, w.offset_ns, spans);
                                if error.starts_with("oversized result") {
                                    // the worker degraded an over-cap Done
                                    // frame into a failed attempt; the run
                                    // survives, but the cause stays countable
                                    tel.count("proto.oversized_done", 1);
                                }
                                land(shipped);
                                ctx.settle(at, Exec::Failed)
                            }
                        };
                        m.settled(job, settled);
                        // every processed completion is a scheduler tick
                        m.controller.note_completion();
                        m.rescale()?;
                    }
                    Frame::Bye { completed } => {
                        let w = &mut m.fleet.workers[wi];
                        if !w.draining || !w.in_flight.is_empty() {
                            return Err(CumulusError::Protocol(format!(
                                "unexpected Bye from worker {wi} (draining={}, in_flight={})",
                                w.draining,
                                w.in_flight.len()
                            )));
                        }
                        // drain-then-retire completed cleanly: this is not
                        // a loss, so nothing is reassigned or blacklisted
                        w.retired = true;
                        w.ended_at = Some(Instant::now());
                        w.sever();
                        tel.instant(
                            "fleet",
                            "retire",
                            Some(&format!("worker-{wi} completed={completed}")),
                        );
                        tel.gauge("fleet.size", m.fleet.provisioned() as f64);
                        scope.emit(
                            Severity::Info,
                            "worker_retired",
                            &[("worker", wi.to_string()), ("completed", completed.to_string())],
                        );
                    }
                    f => {
                        return Err(CumulusError::Protocol(format!(
                            "unexpected frame from worker {wi}: {f:?}"
                        )))
                    }
                }
            }
            Ok(Event::Gone(wi)) => {
                m.lose_worker(wi, "socket_closed");
                obs.set_health(health_view(&m.fleet, "running"));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Structurally unreachable — the fleet holds its own event
                // sender for its whole lifetime — but if it ever happens no
                // event can arrive again, so settle liveness for every
                // worker at once instead of spinning on the empty channel
                // until the heartbeat clock notices.
                for wi in 0..m.fleet.workers.len() {
                    m.lose_worker(wi, "event_channel_closed");
                }
            }
        }

        // straggler detection: an in-flight activation running beyond
        // `straggler_factor ×` its activity's rolling p95 (merged from
        // worker Stats frames) *and* past the `straggler_min_ms` floor is
        // flagged — once — as a straggler. The flag feeds the scheduler's
        // FleetSnapshot and the event log; the activation itself keeps
        // running (the hang detector, not this, cuts wedged workers).
        for (wi, w) in m.fleet.workers.iter_mut().enumerate().filter(|(_, w)| w.alive) {
            let reported = w.last_job;
            for (id, j) in w.in_flight.iter_mut().filter(|(_, j)| !j.straggler) {
                // trust whichever clock has seen more: the master's
                // dispatch age or the worker's own heartbeat report
                let mut elapsed_ms = j.dispatched.elapsed().as_millis() as u64;
                if let Some((rj, rms)) = reported {
                    if rj == *id {
                        elapsed_ms = elapsed_ms.max(rms);
                    }
                }
                if elapsed_ms < cfg.straggler_min_ms {
                    continue;
                }
                let threshold_ms = obs
                    .tel
                    .histogram(&act_hist[j.job.activity])
                    .filter(|h| h.count() >= 3)
                    .map(|h| (h.quantile(0.95) * cfg.straggler_factor / 1e6) as u64)
                    .unwrap_or(0)
                    .max(cfg.straggler_min_ms);
                if elapsed_ms > threshold_ms {
                    j.straggler = true;
                    obs.tel.count("dist.stragglers", 1);
                    scope.emit(
                        Severity::Warn,
                        "straggler",
                        &[
                            ("worker", wi.to_string()),
                            ("job", id.to_string()),
                            ("activity", m.ctxs[j.job.activity].tag.clone()),
                            ("key", j.job.key.clone()),
                            ("elapsed_ms", elapsed_ms.to_string()),
                            ("threshold_ms", threshold_ms.to_string()),
                        ],
                    );
                }
            }
        }

        // liveness: heartbeat silence and wedged activations
        let lost: Vec<(usize, &'static str)> = m
            .fleet
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive)
            .filter_map(|(i, w)| {
                if cfg.activation_timeout.is_some_and(|limit| {
                    w.in_flight.values().any(|j| j.dispatched.elapsed() > limit)
                }) {
                    Some((i, "activation_timeout"))
                } else if w.last_seen.elapsed() > cfg.heartbeat_timeout {
                    Some((i, "heartbeat_timeout"))
                } else {
                    None
                }
            })
            .collect();
        for (wi, reason) in lost {
            if reason == "activation_timeout" {
                // S1: the hang detector's detail quotes the worker's own
                // elapsed report alongside the master's view (the FAILED
                // provenance row itself stays byte-stable)
                let worker_ms = m.fleet.workers[wi]
                    .last_job
                    .map_or_else(|| "none".to_string(), |(j, ms)| format!("job={j} {ms}ms"));
                tel.instant(
                    "dist",
                    "hang",
                    Some(&format!("worker-{wi} worker_elapsed: {worker_ms}")),
                );
            }
            m.lose_worker(wi, reason);
        }
        if m.fleet.workers.iter().all(|w| !w.alive) && m.fleet.spawning.is_empty() && !m.pipe.done()
        {
            return Err(CumulusError::WorkerLost(format!(
                "all {} workers lost with work outstanding",
                m.fleet.workers.len()
            )));
        }
    }

    tel.instant("dist", "jobs", Some(&format!("submitted={}", m.pipe.submitted())));
    // per-worker utilisation, and the fleet bill if the policy carries a
    // cost model (per-started-hour, like the simulator's EC2 billing)
    let run_end = Instant::now();
    let billing = m.controller.billing();
    let mut fleet_cost = 0.0;
    for (i, w) in m.fleet.workers.iter().enumerate() {
        let life = w.ended_at.unwrap_or(run_end).saturating_duration_since(w.connected_at);
        let life_s = life.as_secs_f64();
        let busy_s = w.busy_ns as f64 / 1e9;
        let util = if life_s > 0.0 { (busy_s / life_s).min(1.0) } else { 0.0 };
        tel.instant(
            "fleet",
            "utilization",
            Some(&format!(
                "worker-{i} busy={busy_s:.3}s life={life_s:.3}s util={:.0}%",
                util * 100.0
            )),
        );
        if let Some(b) = billing {
            fleet_cost += b.charge(life_s);
        }
    }
    let mut report = m.report;
    report.fleet_cost_usd = billing.map(|_| fleet_cost);
    report.scale_events = m.controller.into_trace();
    report.outputs = m.pipe.into_outputs();
    report.total_seconds = scope.t0.elapsed().as_secs_f64();
    obs.set_health(health_view(&m.fleet, "draining"));
    m.fleet.drain();
    Ok(report)
}

/// The fleet as `/healthz` reports it.
fn health_view(fleet: &Fleet, phase: &str) -> HealthView {
    HealthView {
        phase: phase.to_string(),
        fleet: fleet.provisioned(),
        workers: fleet
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerHealth {
                id: i,
                alive: w.alive,
                draining: w.draining,
                last_seen_ms: w.last_seen.elapsed().as_millis() as u64,
                in_flight: w.in_flight.len(),
                stragglers: w.in_flight.values().filter(|j| j.straggler).count(),
            })
            .collect(),
    }
}

/// Apply a scale decision to the live fleet. Growth launches workers toward
/// the listener (they join in [`Fleet::accept`]); shrink marks targets as
/// draining and sends `Drain` — the worker finishes its queue, answers
/// `Bye`, and is retired without a single `FAILED` row. Returns workers
/// whose `Drain` could not be delivered; the caller declares those lost.
fn apply_scale(
    decision: ScaleDecision,
    fleet: &mut Fleet,
    cfg: &DistConfig,
    scope: &RunScope,
) -> Result<Vec<usize>, CumulusError> {
    let tel = &scope.tel;
    let scaled = |what: String, fleet: &Fleet| {
        tel.gauge("fleet.size", fleet.provisioned() as f64);
        scope.emit(
            Severity::Info,
            "fleet_scale",
            &[("decision", what), ("fleet", fleet.provisioned().to_string())],
        );
    };
    match decision {
        ScaleDecision::Hold => Ok(Vec::new()),
        ScaleDecision::Grow(n) => {
            for _ in 0..n {
                fleet.launch(cfg)?;
            }
            tel.instant("fleet", "grow", Some(&format!("+{n} -> {}", fleet.provisioned())));
            scaled(format!("grow {n}"), fleet);
            Ok(Vec::new())
        }
        ScaleDecision::Shrink(n) => {
            // idle workers first, lowest index first; whatever the policy
            // asked for, at least one worker keeps serving
            let mut targets: Vec<usize> = fleet
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && !w.draining)
                .map(|(i, _)| i)
                .collect();
            targets.sort_by_key(|&i| (!fleet.workers[i].in_flight.is_empty(), i));
            let n = n.min((targets.len() + fleet.spawning.len()).saturating_sub(1));
            let mut undeliverable = Vec::new();
            for &wi in targets.iter().take(n) {
                let w = &mut fleet.workers[wi];
                w.draining = true;
                if proto::write_frame(&mut *w.writer.lock(), &Frame::Drain).is_err() {
                    undeliverable.push(wi);
                }
            }
            if n > 0 {
                tel.instant("fleet", "drain", Some(&format!("-{n} -> {}", fleet.provisioned())));
                scaled(format!("drain {n}"), fleet);
            }
            Ok(undeliverable)
        }
    }
}

fn import(tel: &Telemetry, track: u64, offset_ns: i64, spans: Vec<proto::WireSpan>) {
    if spans.is_empty() {
        return;
    }
    let remote: Vec<RemoteSpan> = spans
        .into_iter()
        .map(|s| RemoteSpan {
            name: s.name,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            detail: s.detail,
        })
        .collect();
    tel.import_spans(track, offset_ns, &remote);
}

// ------------------------------------------------------------------- fleet

/// The connected worker fleet plus everything needed to grow it mid-run:
/// the listening socket stays open for the run's lifetime, and the fleet
/// keeps a clone of the master's event sender so readers spawned for
/// scaled-up workers feed the same channel (this also guarantees the
/// channel can never disconnect while the fleet exists).
struct Fleet {
    workers: Vec<WorkerHandle>,
    listener: TcpListener,
    addr: String,
    events_tx: mpsc::Sender<Event>,
    /// Shared file store reader threads answer `FileReq` from.
    files: Arc<FileStore>,
    /// Spawned OS processes not yet matched to a connection (by pid).
    children: Vec<Child>,
    /// In-process serve threads not yet matched to a connection.
    threads: VecDeque<std::thread::JoinHandle<()>>,
    /// Launch instants of workers that have not completed the handshake.
    spawning: VecDeque<Instant>,
    /// Total launches ever (drives per-launch test options).
    launched: usize,
}

impl Fleet {
    /// Provisioned fleet size the scheduler reasons about: serving workers
    /// (alive, not draining) plus launches still connecting.
    fn provisioned(&self) -> usize {
        self.workers.iter().filter(|w| w.alive && !w.draining).count() + self.spawning.len()
    }

    /// Launch one more worker (process or in-process thread) toward the
    /// listening socket. The handshake completes later in [`Fleet::accept`].
    fn launch(&mut self, cfg: &DistConfig) -> Result<(), CumulusError> {
        let seq = self.launched;
        self.launched += 1;
        if let Some((program, args)) = &cfg.worker_cmd {
            let child = Command::new(program)
                .args(args)
                .arg("--connect")
                .arg(&self.addr)
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| CumulusError::Io(format!("spawning worker {seq} ({program}): {e}")))?;
            self.children.push(child);
        } else {
            let resolver = cfg.resolver.clone().expect("validated by run_dist");
            let addr = self.addr.clone();
            let opts = worker::ServeOptions {
                no_heartbeat: cfg.mute_heartbeat == Some(seq),
                die_on_run: cfg.kill_plan.filter(|p| p.worker == seq).map(|p| p.after_runs),
            };
            self.threads.push_back(std::thread::spawn(move || {
                let _ = worker::serve_with(&addr, resolver, opts);
            }));
        }
        self.spawning.push_back(Instant::now());
        Ok(())
    }

    /// Accept and handshake every connection currently waiting on the
    /// listener; spawn a reader thread per new worker. Returns how many
    /// workers joined. Non-blocking: returns 0 when nobody is knocking.
    fn accept(&mut self, cfg: &DistConfig) -> Result<usize, CumulusError> {
        let tel = &cfg.telemetry;
        let mut joined = 0;
        loop {
            let (mut stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(CumulusError::Io(e.to_string())),
            };
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(cfg.connect_timeout))?;
            let (pid, worker_now) = match proto::read_frame(&mut stream) {
                Ok(Frame::Ready { pid, now_ns }) => (pid, now_ns),
                Ok(f) => {
                    return Err(CumulusError::Protocol(format!("expected Ready, got {f:?}")));
                }
                Err(e) => return Err(CumulusError::Protocol(format!("bad handshake: {e}"))),
            };
            stream.set_read_timeout(None)?;
            let offset_ns = tel.now_ns() as i64 - worker_now as i64;
            let i = self.workers.len();
            let track = tel.alloc_track(&format!("worker-{i}"));
            proto::write_frame(
                &mut stream,
                &Frame::Hello {
                    worker_id: i as u32,
                    spec: cfg.spec.clone(),
                    heartbeat_ms: cfg.heartbeat.as_millis() as u64,
                },
            )?;
            // match the OS child (if any) to this connection by pid
            let child = self
                .children
                .iter()
                .position(|c| c.id() == pid)
                .map(|at| self.children.swap_remove(at));
            let writer = Arc::new(Mutex::new(stream));
            let reader = {
                let mut stream = writer
                    .lock()
                    .try_clone()
                    .map_err(|e| CumulusError::Io(format!("cloning worker {i} stream: {e}")))?;
                let writer = Arc::clone(&writer);
                let files = Arc::clone(&self.files);
                let tx = self.events_tx.clone();
                std::thread::spawn(move || loop {
                    match proto::read_frame(&mut stream) {
                        // answer file fetches right here so they never
                        // queue behind the master's dispatch loop
                        Ok(Frame::FileReq { req, path }) => {
                            let contents = files.read(&path);
                            if proto::write_frame(
                                &mut *writer.lock(),
                                &Frame::FileData { req, contents },
                            )
                            .is_err()
                            {
                                let _ = tx.send(Event::Gone(i));
                                break;
                            }
                        }
                        Ok(f) => {
                            if tx.send(Event::Frame(i, f)).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            let _ = tx.send(Event::Gone(i));
                            break;
                        }
                    }
                })
            };
            self.workers.push(WorkerHandle {
                writer,
                alive: true,
                draining: false,
                retired: false,
                child,
                thread: self.threads.pop_front(),
                reader: Some(reader),
                last_seen: Instant::now(),
                in_flight: HashMap::new(),
                track,
                offset_ns,
                runs_sent: 0,
                last_job: None,
                connected_at: Instant::now(),
                ended_at: None,
                busy_ns: 0,
            });
            self.spawning.pop_front();
            joined += 1;
        }
        Ok(joined)
    }

    /// Forget launches that never completed the handshake within the
    /// connect deadline, so the scheduler stops counting them. Returns how
    /// many expired.
    fn expire_spawns(&mut self, cfg: &DistConfig) -> usize {
        let before = self.spawning.len();
        self.spawning.retain(|at| at.elapsed() <= cfg.connect_timeout);
        before - self.spawning.len()
    }

    /// Graceful shutdown: ask every live worker to drain, give processes a
    /// moment to exit, then reap whatever is left.
    fn drain(&mut self) {
        for w in self.workers.iter_mut().filter(|w| w.alive) {
            let _ = proto::write_frame(&mut *w.writer.lock(), &Frame::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut waiting = false;
            for w in &mut self.workers {
                if let Some(child) = &mut w.child {
                    match child.try_wait() {
                        Ok(Some(_)) => w.child = None,
                        Ok(None) => waiting = true,
                        Err(_) => w.child = None,
                    }
                }
            }
            if !waiting || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.teardown();
    }

    /// Sever everything and join every handle, including launches that
    /// never finished connecting.
    fn teardown(&mut self) {
        for w in &mut self.workers {
            w.sever();
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
            if let Some(r) = w.reader.take() {
                let _ = r.join();
            }
        }
        for mut c in self.children.drain(..) {
            let _ = c.kill();
            let _ = c.wait();
        }
        // Unmatched in-process threads detach rather than join: one could
        // still be blocked in its handshake read, which only fails once
        // the listener drops — joining here would deadlock against it.
        self.threads.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // safety net for error paths: never leave worker processes behind
        self.teardown();
    }
}

/// Bind, launch the initial fleet, and complete the `Ready`/`Hello`
/// handshake with every worker. Returns the fleet plus the receiving end
/// of its event channel.
fn connect_fleet(
    cfg: &DistConfig,
    files: &Arc<FileStore>,
) -> Result<(Fleet, mpsc::Receiver<Event>), CumulusError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    listener.set_nonblocking(true)?;
    let (events_tx, events) = mpsc::channel::<Event>();
    let mut fleet = Fleet {
        workers: Vec::with_capacity(cfg.workers),
        listener,
        addr,
        events_tx,
        files: Arc::clone(files),
        children: Vec::new(),
        threads: VecDeque::new(),
        spawning: VecDeque::new(),
        launched: 0,
    };
    for _ in 0..cfg.workers {
        fleet.launch(cfg)?;
    }
    let deadline = Instant::now() + cfg.connect_timeout;
    while fleet.workers.len() < cfg.workers {
        if fleet.accept(cfg)? == 0 {
            if Instant::now() > deadline {
                // Fleet::drop reaps the children and joins the threads
                return Err(CumulusError::Timeout(format!(
                    "only {}/{} workers connected within {:?}",
                    fleet.workers.len(),
                    cfg.workers,
                    cfg.connect_timeout
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok((fleet, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Operator;
    use crate::fleet::{QueueDepthConfig, QueueDepthScheduler, ScaleEvent};
    use crate::localbackend::LocalConfig;
    use crate::workflow::Activity;
    use provenance::{export_provn_canonical, Value};

    /// Three activities: stage (writes a file per tuple), score (reads the
    /// staged file — exercising cross-worker fetch), and reduce (a barrier
    /// summing everything).
    fn test_def(sleep_ms: u64) -> WorkflowDef {
        WorkflowDef {
            tag: "dist-test".into(),
            description: "distbackend test workflow".into(),
            expdir: "/exp/dist".into(),
            activities: vec![
                Activity::map(
                    "stage",
                    &["x", "path"],
                    Arc::new(move |t, ctx| {
                        if sleep_ms > 0 {
                            std::thread::sleep(Duration::from_millis(sleep_ms));
                        }
                        Ok(t.iter()
                            .map(|row| {
                                let x = match row[0] {
                                    Value::Int(i) => i,
                                    _ => 0,
                                };
                                let path = ctx.write_file(&format!("in-{x}.txt"), x.to_string());
                                vec![Value::Int(x), Value::Text(path)]
                            })
                            .collect())
                    }),
                ),
                Activity::map(
                    "score",
                    &["y"],
                    Arc::new(|t, ctx| {
                        ctx.record_param("factor", Some(3.0), None);
                        t.iter()
                            .map(|row| {
                                let path = row[1].to_string();
                                let staged: i64 = ctx.read_file(&path)?.trim().parse().unwrap_or(0);
                                Ok(vec![Value::Int(staged * 3)])
                            })
                            .collect()
                    }),
                ),
                Activity::map(
                    "reduce",
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
            deps: vec![vec![], vec![0], vec![1]],
        }
    }

    fn test_input(n: i64) -> Relation {
        let mut r = Relation::new(&["x"]);
        for i in 0..n {
            r.push(vec![Value::Int(i)]);
        }
        r
    }

    fn resolver(sleep_ms: u64) -> worker::WorkflowResolver {
        Arc::new(move |spec| (spec == "dist-test").then(|| test_def(sleep_ms)))
    }

    fn dist_cfg(workers: usize) -> DistConfig {
        DistConfig::new().with_workers(workers).with_resolver(resolver(0)).with_spec("dist-test")
    }

    fn run(cfg: &DistConfig) -> (RunReport, Arc<ProvenanceStore>, Arc<FileStore>) {
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let report =
            run_dist(&test_def(0), test_input(4), Arc::clone(&files), Arc::clone(&prov), cfg)
                .expect("distributed run");
        (report, prov, files)
    }

    #[test]
    fn dist_matches_local_canonical_provenance() {
        let (report, prov, _) = run(&dist_cfg(2));
        assert_eq!(report.finished, 9); // 4 stage + 4 score + 1 reduce
                                        // 0+1+2+3 staged, ×3 scored, summed
        let last = report.outputs.last().unwrap();
        assert_eq!(last.tuples, vec![vec![Value::Int(18)]]);

        let lprov = Arc::new(ProvenanceStore::new());
        let lreport = crate::localbackend::run_local_impl(
            &test_def(0),
            test_input(4),
            Arc::new(FileStore::new()),
            Arc::clone(&lprov),
            &LocalConfig::new().with_threads(2),
        )
        .expect("local run");
        assert_eq!(lreport.finished, report.finished);
        assert_eq!(
            export_provn_canonical(&prov),
            export_provn_canonical(&lprov),
            "local and distributed canonical PROV-N must be byte-identical"
        );
    }

    #[test]
    fn workers_fetch_files_through_the_master() {
        // serialize hard so stage and score land on different workers
        let cfg = dist_cfg(2).with_max_in_flight(1);
        let (report, _, files) = run(&cfg);
        assert_eq!(report.finished, 9);
        assert_eq!(report.outputs.last().unwrap().tuples, vec![vec![Value::Int(18)]]);
        // every staged artifact landed in the master's shared store
        assert_eq!(files.list("/exp/dist").len(), 4);
    }

    #[test]
    fn injected_failures_stay_in_parity_with_local() {
        let failures =
            FailureModel { fail_rate: 0.35, hang_rate: 0.15, fail_at_fraction: 0.5, seed: 7 };
        let cfg = dist_cfg(2).with_failures(failures).with_max_retries(2);
        let (report, prov, _) = run(&cfg);

        let lprov = Arc::new(ProvenanceStore::new());
        let lreport = crate::localbackend::run_local_impl(
            &test_def(0),
            test_input(4),
            Arc::new(FileStore::new()),
            Arc::clone(&lprov),
            &LocalConfig::new().with_threads(2).with_failures(failures).with_max_retries(2),
        )
        .expect("local run");
        assert_eq!(report.finished, lreport.finished);
        assert_eq!(report.failed_attempts, lreport.failed_attempts);
        assert_eq!(report.aborted, lreport.aborted);
        assert!(
            report.failed_attempts > 0 || report.aborted > 0,
            "seed 7 must actually inject faults for this test to mean anything"
        );
        assert_eq!(export_provn_canonical(&prov), export_provn_canonical(&lprov));
    }

    #[test]
    fn killed_worker_is_reassigned_and_the_run_completes() {
        let fair = dist_cfg(2).with_max_in_flight(1);
        let (clean, _, _) = run(&fair);

        // worker 0 dies the moment it receives its first activation
        let cfg = fair.clone().with_kill_plan(KillPlan { worker: 0, after_runs: 1 });
        let (report, prov, _) = run(&cfg);
        assert_eq!(report.finished, clean.finished);
        assert_eq!(report.failed_attempts, 1, "exactly the activation lost with the worker");
        assert_eq!(report.blacklisted, 0);
        let sorted = |r: &RunReport| {
            let mut t = r.outputs.last().unwrap().tuples.clone();
            t.sort_by_key(|row| row.first().map(|v| v.to_string()));
            t
        };
        assert_eq!(sorted(&report), sorted(&clean));
        // the crash left exactly one FAILED attempt in provenance
        let failed = prov
            .query_rows("SELECT taskid FROM hactivation WHERE status = 'FAILED'", &[])
            .unwrap()
            .rows
            .len();
        assert_eq!(failed, 1);
    }

    #[test]
    fn silent_worker_trips_the_heartbeat_timeout() {
        let mut cfg = DistConfig::new()
            .with_workers(1)
            .with_resolver(resolver(600))
            .with_spec("dist-test")
            .with_heartbeat(Duration::from_millis(20))
            .with_heartbeat_timeout(Duration::from_millis(250))
            .with_reassign_budget(0);
        cfg.mute_heartbeat = Some(0);
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_dist(
            &test_def(600),
            test_input(1),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .expect("run must complete by blacklisting the lost activation");
        assert_eq!(report.finished, 0);
        assert_eq!(report.failed_attempts, 1);
        assert_eq!(report.blacklisted, 1, "budget 0 turns the crash into poison");
    }

    #[test]
    fn wedged_activation_trips_the_hang_detector() {
        // tuple 0 wedges its worker for 2s; the detector fires at 300ms
        let def = WorkflowDef {
            tag: "hang-test".into(),
            description: "hang detector".into(),
            expdir: "/exp/hang".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(|t, _| {
                    for row in t {
                        if row[0] == Value::Int(0) {
                            std::thread::sleep(Duration::from_secs(2));
                        }
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let hung = def.clone();
        let cfg = DistConfig::new()
            .with_workers(2)
            .with_resolver(Arc::new(move |spec| (spec == "hang-test").then(|| hung.clone())))
            .with_spec("hang-test")
            .with_max_in_flight(1)
            .with_activation_timeout(Duration::from_millis(300))
            .with_reassign_budget(0);
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&def, test_input(3), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .expect("the healthy worker must finish the rest");
        assert_eq!(report.finished, 2);
        assert_eq!(report.blacklisted, 1);
    }

    // -------------------------------------------------- elastic fleet

    /// One Map activity over `x`, each activation sleeping `sleep_ms`.
    fn flat_def(sleep_ms: u64) -> WorkflowDef {
        WorkflowDef {
            tag: "flat-test".into(),
            description: "flat elastic workload".into(),
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

    fn qd_factory(max_workers: usize) -> SchedulerFactory {
        SchedulerFactory::new(move || {
            Box::new(QueueDepthScheduler::new(QueueDepthConfig {
                max_workers,
                ..QueueDepthConfig::default()
            }))
        })
    }

    fn flat_cfg(sleep_ms: u64) -> DistConfig {
        DistConfig::new()
            .with_workers(1)
            .with_resolver(Arc::new(move |spec| (spec == "flat-test").then(|| flat_def(sleep_ms))))
            .with_spec("flat-test")
            .with_max_in_flight(1)
    }

    /// The decision trace a queue-depth policy (factor 2, step 1, cooldown
    /// 2, fleet 1..=3) must produce over 10 flat activations starting from
    /// one single-slot worker — and the simulator must reproduce it
    /// event-for-event (see tests/fleet.rs).
    fn expected_qd_trace() -> Vec<ScaleEvent> {
        vec![
            ScaleEvent {
                completions: 0,
                fleet: 1,
                outstanding: 10,
                decision: ScaleDecision::Grow(1),
            },
            ScaleEvent {
                completions: 2,
                fleet: 2,
                outstanding: 8,
                decision: ScaleDecision::Grow(1),
            },
            ScaleEvent {
                completions: 8,
                fleet: 3,
                outstanding: 2,
                decision: ScaleDecision::Shrink(1),
            },
            ScaleEvent {
                completions: 10,
                fleet: 2,
                outstanding: 0,
                decision: ScaleDecision::Shrink(1),
            },
        ]
    }

    fn sorted_ints(report: &RunReport) -> Vec<i64> {
        let mut got: Vec<i64> = report
            .outputs
            .last()
            .unwrap()
            .tuples
            .iter()
            .map(|row| match row[0] {
                Value::Int(i) => i,
                _ => panic!("unexpected value"),
            })
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn elastic_fleet_grows_and_retires() {
        let cfg = flat_cfg(25).with_scheduler(qd_factory(3));
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&flat_def(25), test_input(10), Arc::new(FileStore::new()), prov, &cfg)
                .expect("elastic run");
        assert_eq!(report.finished, 10);
        assert_eq!(report.failed_attempts, 0, "drain-then-retire loses no work");
        assert_eq!(report.blacklisted, 0);
        assert_eq!(report.peak_workers, 3, "the policy grew to its cap");
        assert_eq!(report.scale_events, expected_qd_trace());
        assert_eq!(sorted_ints(&report), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_killed_during_scale_up_is_reassigned() {
        // launch-sequence 1 is the first *scaled-up* worker: it dies the
        // moment it receives its first activation, mid-growth
        let cfg = flat_cfg(25)
            .with_scheduler(qd_factory(3))
            .with_kill_plan(KillPlan { worker: 1, after_runs: 1 });
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_dist(
            &flat_def(25),
            test_input(10),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .expect("run completes despite losing a scaled-up worker");
        assert_eq!(report.finished, 10);
        assert_eq!(report.failed_attempts, 1, "exactly the activation lost with the worker");
        assert_eq!(report.blacklisted, 0);
        assert!(report.peak_workers <= 3);
        assert_eq!(sorted_ints(&report), (0..10).collect::<Vec<_>>());
        let failed = prov
            .query_rows("SELECT taskid FROM hactivation WHERE status = 'FAILED'", &[])
            .unwrap()
            .rows
            .len();
        assert_eq!(failed, 1);
    }

    #[test]
    fn autoscaling_preserves_canonical_provenance() {
        let fixed = dist_cfg(1).with_max_in_flight(1);
        let (freport, fprov, _) = run(&fixed);

        let elastic = fixed.clone().with_scheduler(qd_factory(3));
        let (ereport, eprov, _) = run(&elastic);
        assert_eq!(ereport.finished, freport.finished);
        assert!(!ereport.scale_events.is_empty(), "the policy must actually scale");
        assert_eq!(
            export_provn_canonical(&eprov),
            export_provn_canonical(&fprov),
            "fixed and autoscaled canonical PROV-N must be byte-identical"
        );
    }

    // ------------------------------------------- wire-protocol hardening

    #[test]
    fn oversized_result_degrades_to_failed_attempt() {
        // tuple 1 produces a >64 MiB artifact: its Done frame is refused
        // before a byte hits the wire, the worker degrades to a Failed
        // outcome, and with a zero retry budget the attempt lands as a
        // FAILED row — never a worker loss or a blacklist
        let def = WorkflowDef {
            tag: "big-test".into(),
            description: "oversized result drill".into(),
            expdir: "/exp/big".into(),
            activities: vec![Activity::map(
                "big",
                &["x"],
                Arc::new(|t, ctx| {
                    for row in t {
                        if row[0] == Value::Int(1) {
                            ctx.write_file("huge.bin", "x".repeat(65 << 20));
                        }
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let resolver_def = def.clone();
        let tel = Telemetry::attached();
        let cfg = DistConfig::new()
            .with_workers(1)
            .with_resolver(Arc::new(move |spec| (spec == "big-test").then(|| resolver_def.clone())))
            .with_spec("big-test")
            .with_max_in_flight(1)
            .with_max_retries(0)
            .with_telemetry(tel);
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&def, test_input(3), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .expect("run survives the oversized frame");
        assert_eq!(report.finished, 2);
        assert_eq!(report.failed_attempts, 1);
        assert_eq!(report.blacklisted, 0, "both peers stayed alive: no loss, no poison");
        let snap = report.metrics.expect("telemetry attached");
        assert_eq!(snap.counter("proto.oversized_done"), Some(1));
    }

    #[test]
    fn master_loop_does_not_busy_spin() {
        // ~0.7 s of real waiting on slow activations: an event-driven
        // master wakes on its 50 ms tick plus one wakeup per frame (tens
        // of iterations); a busy-spinning one would log thousands
        let tel = Telemetry::attached();
        let cfg = DistConfig::new()
            .with_workers(1)
            .with_resolver(resolver(300))
            .with_spec("dist-test")
            .with_max_in_flight(1)
            .with_telemetry(tel);
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_dist(
            &test_def(300),
            test_input(2),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .expect("slow run");
        assert_eq!(report.finished, 5); // 2 stage + 2 score + 1 reduce
        let snap = report.metrics.expect("telemetry attached");
        let wakeups = snap.counter("dist.master.wakeups").expect("counted every iteration");
        assert!(wakeups > 0);
        assert!(wakeups < 200, "master loop spun {wakeups} times for a ~0.7 s run");
    }

    #[test]
    fn dist_runs_resume_from_prior_dist_runs() {
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let cfg = dist_cfg(2);
        let first =
            run_dist(&test_def(0), test_input(4), Arc::clone(&files), Arc::clone(&prov), &cfg)
                .expect("first run");
        assert_eq!(first.finished, 9);

        let resumed = run_dist(
            &test_def(0),
            test_input(4),
            Arc::clone(&files),
            Arc::clone(&prov),
            &cfg.clone().with_resume_from(first.workflow),
        )
        .expect("resumed run");
        assert_eq!(resumed.finished, 0, "nothing re-executes");
        assert_eq!(resumed.resumed, first.finished);
        assert_eq!(
            resumed.outputs.last().unwrap().tuples,
            vec![vec![Value::Int(18)]],
            "resumed outputs reconstruct from provenance"
        );
    }

    // ------------------------------------------- observability plane

    use crate::obs::http_get;

    #[test]
    fn live_endpoint_streams_metrics_health_and_events_mid_run() {
        let events = EventLog::new();
        let bound = BoundAddr::new();
        let cfg = DistConfig::new()
            .with_workers(2)
            .with_resolver(resolver(80))
            .with_spec("dist-test")
            .with_max_in_flight(1)
            .with_heartbeat(Duration::from_millis(15))
            .with_metrics_addr("127.0.0.1:0")
            .with_metrics_bound(bound.clone())
            .with_events(events.clone());
        let handle = std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            run_dist(&test_def(80), test_input(12), Arc::new(FileStore::new()), prov, &cfg)
                .expect("observed run")
        });
        let addr = bound.wait(Duration::from_secs(10)).expect("endpoint must come up");
        let get = |path: &str| {
            http_get(addr, path, Duration::from_secs(2)).expect("endpoint reachable mid-run")
        };

        // two mid-run scrapes of valid Prometheus text, with the merged
        // worker activation counter strictly increasing between them. The
        // first scrape waits for the first streamed Stats frame — with 25
        // activations at ≥80 ms each over 2 serialized workers, that is
        // early in a >1 s run, so everything up to the second scrape
        // happens safely mid-run.
        let finished_total = |body: &str| -> Option<f64> {
            let samples = telemetry::prom::parse(body)
                .unwrap_or_else(|off| panic!("exposition must parse, bad line {off}:\n{body}"));
            samples.into_iter().find(|s| s.name == "scidock_worker_finished_total").map(|s| s.value)
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let first = loop {
            assert!(Instant::now() < deadline, "no Stats frame ever reached /metrics");
            let (status, body) = get("/metrics");
            assert_eq!(status, 200);
            match finished_total(&body) {
                Some(v) if v > 0.0 => break v,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };

        // the other exposition formats hold up mid-run
        let (status, body) = get("/snapshot.json");
        assert_eq!(status, 200);
        telemetry::json::validate(&body)
            .unwrap_or_else(|off| panic!("invalid snapshot JSON at byte {off}"));
        let (status, body) = get("/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"phase\":\"running\""), "mid-run phase: {body}");
        let (status, body) = get("/events");
        assert_eq!(status, 200);
        for line in body.lines() {
            telemetry::json::validate(line)
                .unwrap_or_else(|off| panic!("invalid event JSON at byte {off}: {line}"));
        }

        let second = loop {
            assert!(
                Instant::now() < deadline,
                "activation counter never increased past {first} between scrapes"
            );
            let (status, body) = get("/metrics");
            assert_eq!(status, 200);
            match finished_total(&body) {
                Some(v) if v > first => break v,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        assert!(second > first);

        let report = handle.join().expect("run thread");
        assert_eq!(report.finished, 25); // 12 stage + 12 score + 1 reduce
        let evs = events.events();
        assert_eq!(evs.first().map(|e| e.kind.as_str()), Some("run_started"));
        assert_eq!(evs.last().map(|e| e.kind.as_str()), Some("run_finished"));
        assert_eq!(evs.iter().filter(|e| e.kind == "activation_finished").count(), 25);
    }

    #[test]
    fn healthz_reports_a_killed_worker_dead_mid_run() {
        let bound = BoundAddr::new();
        let cfg = DistConfig::new()
            .with_workers(2)
            .with_resolver(resolver(100))
            .with_spec("dist-test")
            .with_max_in_flight(1)
            .with_heartbeat(Duration::from_millis(15))
            .with_metrics_addr("127.0.0.1:0")
            .with_metrics_bound(bound.clone())
            // worker 0 dies on its first activation, early in the run
            .with_kill_plan(KillPlan { worker: 0, after_runs: 1 });
        let handle = std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            run_dist(&test_def(100), test_input(8), Arc::new(FileStore::new()), prov, &cfg)
                .expect("run survives the kill")
        });
        let addr = bound.wait(Duration::from_secs(10)).expect("endpoint must come up");
        // the master sees the socket drop the moment the worker dies; the
        // health view must flip alive=false while the run is still going
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut saw_dead_mid_run = false;
        while Instant::now() < deadline && !saw_dead_mid_run {
            let (status, body) =
                http_get(addr, "/healthz", Duration::from_secs(2)).expect("healthz reachable");
            assert_eq!(status, 200);
            saw_dead_mid_run = body.contains("\"alive\":false");
            if !saw_dead_mid_run {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let report = handle.join().expect("run thread");
        assert!(saw_dead_mid_run, "/healthz never reported the killed worker dead mid-run");
        assert_eq!(report.finished, 17); // 8 stage + 8 score + 1 reduce
    }

    #[test]
    fn straggler_is_flagged_before_its_activation_completes() {
        // tuple 0 runs ~30× longer than its peers; with a 150 ms floor and
        // a 1× p95 factor the sweep must flag it while it is in flight
        let def = WorkflowDef {
            tag: "strag-test".into(),
            description: "straggler drill".into(),
            expdir: "/exp/strag".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(|t, _| {
                    for row in t {
                        let ms = if row[0] == Value::Int(0) { 1200 } else { 40 };
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let resolver_def = def.clone();
        let events = EventLog::new();
        let tel = Telemetry::attached();
        let cfg = DistConfig::new()
            .with_workers(2)
            .with_resolver(Arc::new(move |spec| {
                (spec == "strag-test").then(|| resolver_def.clone())
            }))
            .with_spec("strag-test")
            .with_max_in_flight(1)
            .with_heartbeat(Duration::from_millis(15))
            .with_straggler(1.0, 150)
            .with_telemetry(tel)
            .with_events(events.clone());
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&def, test_input(6), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .expect("straggler run completes");
        assert_eq!(report.finished, 6, "a straggler is observed, never killed");

        let evs = events.events();
        let strag = evs
            .iter()
            .find(|e| e.kind == "straggler")
            .expect("the slow activation must be flagged");
        let key = strag
            .fields
            .iter()
            .find(|(k, _)| k == "key")
            .map(|(_, v)| v.clone())
            .expect("straggler event names its activation");
        assert_eq!(key, "0", "the slow tuple is the straggler");
        let finished_seq = evs
            .iter()
            .find(|e| {
                e.kind == "activation_finished"
                    && e.fields.iter().any(|(k, v)| k == "key" && v == &key)
            })
            .map(|e| e.seq)
            .expect("the straggler still finishes");
        assert!(
            strag.seq < finished_seq,
            "straggler must be flagged before its activation completes \
             (straggler seq {}, finished seq {finished_seq})",
            strag.seq
        );
        let snap = report.metrics.expect("telemetry attached");
        assert!(snap.counter("dist.stragglers").unwrap_or(0) >= 1);
    }

    #[test]
    fn observability_plane_never_perturbs_canonical_provenance() {
        let (plain_report, plain_prov, _) = run(&dist_cfg(2));

        let events = EventLog::new();
        let bound = BoundAddr::new();
        let observed = dist_cfg(2)
            .with_metrics_addr("127.0.0.1:0")
            .with_metrics_bound(bound)
            .with_events(events.clone())
            .with_straggler(1.0, 100);
        let (obs_report, obs_prov, _) = run(&observed);

        assert_eq!(obs_report.finished, plain_report.finished);
        assert!(!events.is_empty(), "the observed run must actually emit events");
        assert_eq!(
            export_provn_canonical(&obs_prov),
            export_provn_canonical(&plain_prov),
            "canonical PROV-N must be byte-identical with the obs plane on or off"
        );
    }

    /// S3 guard: every metric name emitted by a fully-exercised run of all
    /// three backends must appear in `telemetry::registry` (and hence in the
    /// DESIGN.md §12 table) — a silent rename breaks dashboards scraping
    /// `/metrics`, so it must break this test first.
    #[test]
    fn every_emitted_metric_name_is_in_the_registry() {
        use telemetry::{registry, Telemetry};

        // distributed: master wakeups, fleet size, worker.* counters,
        // activation histograms, heartbeat/straggler plumbing
        let dtel = Telemetry::attached();
        let cfg = dist_cfg(2)
            .with_telemetry(dtel)
            .with_max_in_flight(1)
            .with_straggler(1.0, 1)
            .with_heartbeat(Duration::from_millis(10));
        let (report, _, _) = run(&cfg);
        let dsnap = report.metrics.expect("dist telemetry attached");
        assert!(!dsnap.counters.is_empty(), "dist run must emit counters");
        assert_eq!(registry::unregistered(&dsnap), Vec::<String>::new());

        // local: pool.* counters/histograms/gauges + activation histograms
        let ltel = Telemetry::attached();
        let lreport = crate::localbackend::run_local_impl(
            &test_def(0),
            test_input(4),
            Arc::new(FileStore::new()),
            Arc::new(ProvenanceStore::new()),
            &LocalConfig::new().with_threads(2).with_telemetry(ltel.clone()),
        )
        .expect("local run");
        assert_eq!(lreport.finished, 9);
        let lsnap = ltel.snapshot().expect("local telemetry attached");
        assert!(!lsnap.histograms.is_empty(), "local run must emit histograms");
        assert_eq!(registry::unregistered(&lsnap), Vec::<String>::new());

        // simulated: sim.* counters, vm acquire/release, ready-queue gauge
        let stel = Telemetry::attached();
        let tasks: Vec<crate::simbackend::SimTask> = (0..6)
            .map(|i| crate::simbackend::SimTask {
                activity_index: 0,
                pair_key: format!("pair{i}"),
                nominal_s: 1.0 + i as f64 * 0.1,
                in_bytes: 0,
                out_bytes: 0,
                deps: vec![],
                poison: false,
            })
            .collect();
        let scfg = crate::simbackend::SimConfig::new().with_seed(11).with_telemetry(stel);
        let sreport = crate::simbackend::simulate_tasks(&tasks, &scfg, None);
        let ssnap = sreport.metrics.expect("sim telemetry attached");
        assert!(ssnap.counter("sim.dispatched").unwrap_or(0) >= 6);
        assert_eq!(registry::unregistered(&ssnap), Vec::<String>::new());

        // served: campaign.* counters/gauges/histograms layered over the
        // local activation machinery, on a durable store reporting to the
        // same sink (provstore.*), as `scidockd --wal --metrics-addr` runs
        let vtel = Telemetry::attached();
        let durable = provenance::DurableOptions { telemetry: vtel.clone(), ..Default::default() };
        let vprov =
            ProvenanceStore::open_env(Box::new(provenance::durable::io::MemEnv::new()), durable)
                .expect("fresh env");
        let resolver: crate::serve::CampaignResolver = Arc::new(|spec: &str| {
            (spec == "ok").then(|| crate::backend::Workflow::new(test_def(0), test_input(4)))
        });
        let daemon = crate::serve::Daemon::start(
            crate::serve::ServeConfig::new().with_workers(2).with_telemetry(vtel.clone()),
            resolver,
            Arc::new(vprov),
        )
        .expect("daemon starts");
        let mut client = crate::serve::ServeClient::connect(daemon.addr()).expect("connect");
        assert!(matches!(
            client.submit("t0", 0, "nope").expect("submit io"),
            crate::serve::SubmitOutcome::Rejected { .. }
        ));
        let crate::serve::SubmitOutcome::Accepted { id } =
            client.submit("t0", 0, "ok").expect("submit io")
        else {
            panic!("valid spec must be admitted");
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let st = client.status(id).expect("status io");
            if st.state == crate::serve::CampaignState::Finished {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "campaign stuck in {:?}", st.state);
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon.shutdown();
        let vsnap = vtel.snapshot().expect("serve telemetry attached");
        assert_eq!(vsnap.counter("campaign.finished"), Some(1));
        assert_eq!(vsnap.counter("campaign.rejected"), Some(1));
        assert!(
            vsnap.histograms.iter().any(|h| h.name == "campaign.first_result"),
            "first-result latency must be recorded"
        );
        for name in ["provstore.lock_hold", "provstore.lock_wait", "provstore.group_commit"] {
            assert!(vsnap.histograms.iter().any(|h| h.name == name), "{name} must be recorded");
        }
        assert_eq!(registry::unregistered(&vsnap), Vec::<String>::new());
    }
}
