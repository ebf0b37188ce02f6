//! The one engine under `scidockd`, `run_dist` and the local backend: the
//! paper's SciCumulus master, brokering the activations of its live runs to
//! an elastic fleet.
//!
//! [`Engine`] owns, once: the table of *live* runs (dispatcher, activity
//! contexts, queue of admitted [`Job`]s), the worker table with what each
//! worker has in flight, admit → fair-share pick → affinity pick → place →
//! dispatch, the completion tick that feeds the fleet policy, the
//! [`FleetSnapshot`] and the application of scale decisions, worker loss →
//! [`Exec::Lost`] → reassign → poison, the straggler and liveness sweeps,
//! and the `/healthz` view.
//!
//! It never touches a thread or a socket: workers are behind a
//! [`WorkerPort`] and report back as [`PortEvent`]s on the channel the
//! engine's owner reads. Two ports ship — worker threads of this process
//! (`threadport`, under `scidockd` and the local backend) and `run_dist`'s
//! `SDW2` connections (`distbackend`) — and the tests below drive a third
//! that has neither. Every owner drives it from one loop, the campaign
//! directory's turn (`serve`): `scidockd` on its engine thread, the local
//! backend and `run_dist` on the calling thread for their one campaign.
//!
//! Which thread runs the lifecycle's steps is the one thing the ports differ
//! in. The engine always `admit`s (and aborts a hung fate) on its own
//! thread. The thread port runs `begin` → execute → `settle` on the worker
//! thread. The `SDW2` port calls `begin` where it writes the `Run` frame
//! (the frame carries the fate, and the store's interval runs from
//! dispatch) and `settle` on the connection's reader thread. On every thread
//! `settle` only queues the attempt's rows for the owner's committer, so no
//! step waits on the store.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use telemetry::Telemetry;

use crate::algebra::{Relation, Tuple};
use crate::dispatch::{PipelineState, SubmitReq};
use crate::error::CumulusError;
use crate::fleet::{
    drain_targets, least_loaded, FleetController, FleetSnapshot, ScaleDecision, SchedulerFactory,
    WorkerView,
};
use crate::lifecycle::{ActOutcome, ActivityCtx, Admitted, Attempt, Exec, Settled};
use crate::obs::{EventLog, HealthView, ObsState, Severity, WorkerHealth};
use crate::serve::RunConfig;
use crate::workflow::WorkflowDef;

/// How long the directory's loop waits for a [`PortEvent`] before it pumps and
/// ticks anyway.
pub(crate) const TICK: Duration = Duration::from_millis(25);

/// One admitted activation, waiting for a worker slot or holding one.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub(crate) activity: usize,
    /// Names the working directory only.
    pub(crate) part_index: usize,
    pub(crate) part: Arc<Vec<Tuple>>,
    pub(crate) key: Arc<str>,
    /// The dispatcher's affinity key, when the activity declares one: a
    /// slot skips a job whose key an attempt in flight holds while the run
    /// has ready work with a free key.
    affinity: Option<u64>,
    pub(crate) attempt: u32,
    /// Worker losses this activation has survived.
    crashes: u32,
}

/// What a port tells the engine, through the owner's channel.
pub(crate) enum PortEvent {
    /// The attempt dispatched as `job` on `worker` is recorded in
    /// provenance; `settled` is the lifecycle's verdict on it.
    Settled { worker: usize, job: u64, settled: Settled },
    /// `worker` is alive; `job` is the `(job, elapsed ms)` it reports running.
    Seen { worker: usize, job: Option<(u64, u64)> },
    /// `worker` finished what it held after a drain and left cleanly.
    Retired { worker: usize, completed: u64 },
    /// `worker` is gone, or unusable.
    Lost { worker: usize, reason: &'static str },
    /// A panic escaped the lifecycle on a worker, or the owner's committer
    /// panicked: a fault of the engine itself, e.g. a store fault in a
    /// provenance write. [`Engine::handle`] re-raises it.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The engine's whole view of the worker substrate.
pub(crate) trait WorkerPort {
    /// Activations one worker runs at a time.
    fn slots(&self) -> usize;

    /// Start one more worker; [`WorkerPort::joined`] reports what became of
    /// it.
    fn launch(&mut self) -> Result<(), CumulusError>;

    /// `(joined, given up on)` launches since the last call; workers that
    /// joined take the next worker indices, in order. Never blocks.
    fn joined(&mut self) -> Result<(usize, usize), CumulusError>;

    /// Run `job`'s current attempt on `worker` and answer with a
    /// [`PortEvent::Settled`] naming `id`. `false`: it could not be handed
    /// over, and `worker` is to be treated as lost.
    fn run(&mut self, worker: usize, id: u64, ctx: &Arc<ActivityCtx>, job: &Job) -> bool;

    /// No more work follows for `worker`: it finishes what it holds and
    /// answers [`PortEvent::Retired`]. `false`: undeliverable.
    fn drain(&mut self, worker: usize) -> bool;

    /// Cut `worker` off and release what the port holds for it. Returns the
    /// attempts the port began for it and will now never settle: the engine
    /// settles those as lost.
    fn sever(&mut self, worker: usize) -> Vec<(u64, Attempt)>;

    /// Stop every worker, letting running attempts finish, and join them.
    fn shutdown(&mut self);
}

/// What differs between the engine's owners that is not the port: each
/// derives its own from the scope's [`RunConfig`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EngineCfg {
    /// `Shrink` never drains below this many workers.
    pub(crate) floor: usize,
    /// `Grow` never provisions above this many workers.
    pub(crate) ceiling: usize,
    /// Worker losses an activation survives before its input is poison.
    pub(crate) reassign_budget: u32,
    /// A worker silent for longer is lost (`None`: workers cannot go silent).
    pub(crate) heartbeat_timeout: Option<Duration>,
    /// An attempt running longer wedges its worker, which is then lost.
    pub(crate) activation_timeout: Option<Duration>,
    /// Flag an attempt running longer than `factor ×` its activity's p95
    /// and longer than `min_ms`.
    pub(crate) straggler: Option<(f64, u64)>,
}

impl EngineCfg {
    /// Threads of this process within `cfg`'s fleet bounds, which are
    /// neither lost nor silent.
    pub(crate) fn threads(cfg: &RunConfig) -> EngineCfg {
        EngineCfg {
            floor: cfg.min_workers.max(1),
            ceiling: cfg.max_workers,
            reassign_budget: 0,
            heartbeat_timeout: None,
            activation_timeout: None,
            straggler: None,
        }
    }

    /// `SDW2` connections within `cfg`'s fleet bounds, watched by the
    /// liveness settings of its port fields.
    pub(crate) fn sdw(cfg: &RunConfig) -> EngineCfg {
        EngineCfg {
            reassign_budget: cfg.reassign_budget,
            heartbeat_timeout: Some(cfg.heartbeat_timeout),
            activation_timeout: cfg.activation_timeout,
            straggler: Some((cfg.straggler_factor, cfg.straggler_min_ms)),
            ..EngineCfg::threads(cfg)
        }
    }
}

/// Where the engine reports, shared with its owner: telemetry, the event
/// log and the clock its events are stamped on, the observability state.
pub(crate) struct Sinks {
    pub(crate) tel: Telemetry,
    pub(crate) events: Option<EventLog>,
    /// Time origin of event timestamps.
    pub(crate) epoch: Instant,
    /// `/healthz` is published here; its collector holds the workers' merged
    /// latency histograms the straggler sweep reads.
    pub(crate) obs: Option<ObsState>,
}

/// A dispatched attempt, as the engine remembers it.
struct InFlight {
    id: u64,
    run: u64,
    job: Job,
    ctx: Arc<ActivityCtx>,
    dispatched: Instant,
    /// Flagged by the straggler sweep (each attempt alarms at most once).
    straggler: bool,
}

struct Worker {
    alive: bool,
    /// Sent a drain: no new work; retires once it answers.
    draining: bool,
    in_flight: Vec<InFlight>,
    last_seen: Instant,
    /// The worker's own last `(job, elapsed ms)` report.
    last_job: Option<(u64, u64)>,
    joined_at: Instant,
    /// Retirement or loss; `None` while serving.
    ended_at: Option<Instant>,
    /// Dispatch → settled time of its completed attempts.
    busy_ns: u64,
}

/// One run. It leaves [`Engine::runs`] for [`Engine::closed`] the moment it
/// has nothing left, so every pass the engine makes is over live runs only.
pub(crate) struct Run {
    pub(crate) id: u64,
    tenant: String,
    priority: u8,
    pipe: PipelineState,
    ctxs: Vec<Arc<ActivityCtx>>,
    /// Dispatcher submissions not yet admitted.
    submits: VecDeque<SubmitReq>,
    /// Admitted activations waiting for a worker slot.
    ready: VecDeque<Job>,
    in_flight: usize,
    pub(crate) tally: ActOutcome,
    /// Terminal activations so far.
    pub(crate) done: u64,
    /// Dispatch → settled latency per attempt, nanoseconds.
    lat_ns: Vec<u64>,
    pub(crate) cancelled: bool,
    /// The fleet policy has not been shown this run's backlog yet.
    unseen: bool,
}

impl Run {
    /// Activations the dispatcher has submitted so far.
    pub(crate) fn submitted(&self) -> u64 {
        self.pipe.submitted() as u64
    }

    /// p95 of the attempt latencies so far, milliseconds (one sort).
    pub(crate) fn p95_ms(&self, tel: &Telemetry) -> f64 {
        if self.lat_ns.is_empty() {
            return 0.0;
        }
        tel.count("campaign.p95_sorts", 1);
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        let idx = ((v.len() as f64 * 0.95).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx] as f64 / 1e6
    }

    /// The output relation of every activity of a run that finished.
    pub(crate) fn into_outputs(self) -> Vec<Relation> {
        self.pipe.into_outputs()
    }

    /// A terminal activation: count it and let its tuples flow downstream.
    fn finish(&mut self, activity: usize, out: ActOutcome) {
        self.tally.add(&out);
        self.done += 1;
        if !self.cancelled {
            let reqs = self.pipe.on_completion(activity, &out.tuples);
            self.submits.extend(reqs);
        }
    }

    /// Act on what the lifecycle decided about `job`'s latest attempt.
    fn settled(&mut self, mut job: Job, settled: Settled) {
        match settled {
            Settled::Terminal(out) => self.finish(job.activity, out),
            Settled::Retry => {
                self.tally.failed_attempts += 1;
                job.attempt += 1;
                if !self.cancelled {
                    self.ready.push_front(job);
                }
            }
        }
    }

    fn has_nothing_left(&self) -> bool {
        let drained = self.ready.is_empty() && self.submits.is_empty();
        self.in_flight == 0 && (self.cancelled || (self.pipe.done() && drained))
    }
}

/// See the module docs.
pub(crate) struct Engine<P: WorkerPort> {
    pub(crate) port: P,
    cfg: EngineCfg,
    sinks: Sinks,
    /// The fleet policy, with the decisions it has taken; `None`: a fixed
    /// fleet, placed least loaded.
    pub(crate) controller: Option<FleetController>,
    /// The live runs, in the order they were taken on.
    pub(crate) runs: Vec<Run>,
    /// Runs that finished, or were cancelled and have drained, for the owner
    /// to take.
    pub(crate) closed: Vec<Run>,
    workers: Vec<Worker>,
    /// Launches the port has not reported on yet.
    spawning: usize,
    next_job: u64,
    /// Largest provisioned fleet so far.
    pub(crate) peak_workers: usize,
    phase: &'static str,
    last_tick: Instant,
}

impl<P: WorkerPort> Engine<P> {
    pub(crate) fn new(
        port: P,
        cfg: EngineCfg,
        sinks: Sinks,
        scheduler: Option<&SchedulerFactory>,
    ) -> Engine<P> {
        Engine {
            port,
            cfg,
            sinks,
            controller: scheduler.map(FleetController::new),
            runs: Vec::new(),
            closed: Vec::new(),
            workers: Vec::new(),
            spawning: 0,
            next_job: 0,
            peak_workers: 0,
            phase: "running",
            last_tick: Instant::now(),
        }
    }

    /// Emit an event into the owner's log, stamped on the owner's clock.
    pub(crate) fn emit(&self, severity: Severity, kind: &str, fields: &[(&str, String)]) {
        if let Some(ev) = &self.sinks.events {
            ev.emit(self.sinks.epoch.elapsed().as_secs_f64(), severity, kind, fields);
        }
    }

    // --------------------------------------------------------------- runs

    /// Take on a run: seed its dispatcher from `input`. The fleet policy
    /// sees the new backlog at the next [`Engine::pump`], before any of it
    /// is dispatched.
    pub(crate) fn add_run(
        &mut self,
        id: u64,
        tenant: &str,
        priority: u8,
        def: Arc<WorkflowDef>,
        input: &Relation,
        ctxs: Vec<Arc<ActivityCtx>>,
    ) {
        let (pipe, seeds) = PipelineState::new(def, input, self.sinks.tel.clone());
        self.runs.push(Run {
            id,
            tenant: tenant.to_string(),
            priority,
            pipe,
            ctxs,
            submits: seeds.into(),
            ready: VecDeque::new(),
            in_flight: 0,
            tally: ActOutcome::default(),
            done: 0,
            lat_ns: Vec::new(),
            cancelled: false,
            unseen: true,
        });
    }

    /// The live run `id`.
    pub(crate) fn run(&self, id: u64) -> Option<&Run> {
        self.runs.iter().find(|r| r.id == id)
    }

    /// Stop feeding run `id`: its queued work is dropped, what is in flight
    /// drains, then it closes as cancelled. `false`: no such live run.
    pub(crate) fn cancel(&mut self, id: u64) -> bool {
        let Some(run) = self.runs.iter_mut().find(|r| r.id == id) else { return false };
        run.cancelled = true;
        run.ready.clear();
        run.submits.clear();
        self.close_runs();
        true
    }

    fn close_runs(&mut self) {
        let mut i = 0;
        while i < self.runs.len() {
            if self.runs[i].has_nothing_left() {
                self.closed.push(self.runs.remove(i));
            } else {
                i += 1;
            }
        }
    }

    // ------------------------------------------------------------ workers

    /// Provisioned fleet the policy reasons about: serving workers (alive,
    /// not draining) plus launches still joining.
    pub(crate) fn provisioned(&self) -> usize {
        self.workers.iter().filter(|w| w.alive && !w.draining).count() + self.spawning
    }

    /// `(lifetime, busy)` of every worker that ever joined, by index.
    pub(crate) fn worker_lives(&self) -> impl Iterator<Item = (Duration, Duration)> + '_ {
        let now = Instant::now();
        self.workers.iter().map(move |w| {
            let life = w.ended_at.unwrap_or(now).saturating_duration_since(w.joined_at);
            (life, Duration::from_nanos(w.busy_ns))
        })
    }

    /// Launch `n` more workers.
    pub(crate) fn launch(&mut self, n: usize) -> Result<(), CumulusError> {
        for _ in 0..n {
            self.port.launch()?;
            self.spawning += 1;
        }
        Ok(())
    }

    fn fleet_changed(&mut self) {
        self.peak_workers = self.peak_workers.max(self.provisioned());
        self.sinks.tel.gauge("fleet.size", self.provisioned() as f64);
        self.publish_health();
    }

    /// The fleet as `/healthz` reports it.
    fn publish_health(&self) {
        let Some(obs) = &self.sinks.obs else { return };
        let worker = |(i, w): (usize, &Worker)| WorkerHealth {
            id: i,
            alive: w.alive,
            draining: w.draining,
            last_seen_ms: w.last_seen.elapsed().as_millis() as u64,
            in_flight: w.in_flight.len(),
            stragglers: w.in_flight.iter().filter(|f| f.straggler).count(),
        };
        obs.set_health(HealthView {
            phase: self.phase.to_string(),
            fleet: self.provisioned(),
            workers: self.workers.iter().enumerate().map(worker).collect(),
        });
    }

    /// The scheduler's view: logical quantities only (queue depths,
    /// provisioned fleet, capacity), never wall-clock state, so the
    /// simulator can reproduce the exact decision sequence.
    fn snapshot(&self) -> FleetSnapshot {
        let alive = self.workers.iter().filter(|w| w.alive);
        FleetSnapshot {
            completions: 0, // the controller stamps its own count
            queued: self.runs.iter().map(|r| r.submits.len() + r.ready.len()).sum(),
            in_flight: self.workers.iter().map(|w| w.in_flight.len()).sum(),
            fleet: self.provisioned(),
            slots_per_worker: self.port.slots(),
            stragglers: alive.flat_map(|w| &w.in_flight).filter(|f| f.straggler).count(),
        }
    }

    /// One scheduler tick: show the policy the fleet and apply its decision
    /// — the only place a [`ScaleDecision`] takes effect outside the
    /// simulator. `Grow` launches up to the ceiling; `Shrink` drains the
    /// workers [`drain_targets`] picks above the floor: a drained worker
    /// finishes what it holds and retires without a `FAILED` row. A fixed
    /// fleet takes no snapshot.
    fn rescale(&mut self) -> Result<(), CumulusError> {
        let Some(mut controller) = self.controller.take() else { return Ok(()) };
        let decision = controller.evaluate(self.snapshot());
        self.controller = Some(controller);
        let (verb, sign, n) = match decision {
            ScaleDecision::Hold => return Ok(()),
            ScaleDecision::Grow(n) => {
                let n = n.min(self.cfg.ceiling.saturating_sub(self.provisioned()));
                self.launch(n)?;
                ("grow", '+', n)
            }
            ScaleDecision::Shrink(n) => {
                let serving = (self.workers.iter().enumerate())
                    .filter(|(_, w)| w.alive && !w.draining)
                    .map(|(i, w)| (i, !w.in_flight.is_empty()));
                let targets = drain_targets(serving, self.spawning, self.cfg.floor, n);
                for &wi in &targets {
                    self.workers[wi].draining = true;
                }
                for &wi in &targets {
                    if !self.port.drain(wi) {
                        self.lose_worker(wi, "drain_undeliverable");
                    }
                }
                ("drain", '-', targets.len())
            }
        };
        if n > 0 {
            let fleet = self.provisioned();
            self.sinks.tel.instant("fleet", verb, Some(&format!("{sign}{n} -> {fleet}")));
            self.fleet_changed();
            let fields = [("decision", format!("{verb} {n}")), ("fleet", fleet.to_string())];
            self.emit(Severity::Info, "fleet_scale", &fields);
        }
        Ok(())
    }

    /// Declare worker `wi` lost: cut it off, settle every attempt it was
    /// running as lost, and reassign each — or blacklist its input as poison
    /// once its crash budget is spent.
    fn lose_worker(&mut self, wi: usize, reason: &str) {
        let w = &mut self.workers[wi];
        if !w.alive {
            return;
        }
        w.alive = false;
        w.ended_at = Some(Instant::now());
        let mut fields = vec![
            ("worker", wi.to_string()),
            ("reason", reason.to_string()),
            ("in_flight", w.in_flight.len().to_string()),
        ];
        if let Some((job, ms)) = w.last_job {
            // the worker's own last elapsed report: for a hang this is how
            // long the wedged attempt really ran
            fields.push(("last_job", job.to_string()));
            fields.push(("job_elapsed_ms", ms.to_string()));
        }
        // an attempt the port no longer holds is being settled by the port
        // right now: it stays in flight until that `Settled` arrives
        let mut lost = Vec::new();
        for (id, at) in self.port.sever(wi) {
            if let Some(i) = w.in_flight.iter().position(|f| f.id == id) {
                lost.push((w.in_flight.swap_remove(i), at));
            }
        }
        self.emit(Severity::Error, "worker_lost", &fields);
        // each goes back to the front of its queue: walked in descending
        // order, the queue then reads in `(activity, part_index)` order,
        // whatever order the attempts were held in
        lost.sort_by_key(|(f, _)| std::cmp::Reverse((f.job.activity, f.job.part_index)));
        for (InFlight { run, mut job, ctx, .. }, at) in lost {
            let retry = ctx.settle(at, Exec::Lost);
            let run = self.runs.iter_mut().find(|r| r.id == run).expect("in-flight run is live");
            run.in_flight -= 1;
            job.crashes += 1;
            if job.crashes > self.cfg.reassign_budget {
                // this input has now taken down too many workers: poison
                run.tally.failed_attempts += 1;
                run.finish(job.activity, ctx.poison(&job.key, job.attempt));
            } else {
                run.settled(job, retry);
            }
        }
        self.fleet_changed();
    }

    // ----------------------------------------------------------- the loop

    /// Everything the engine does unprompted: welcome workers that joined,
    /// admit what the dispatchers submitted, show the policy a new backlog,
    /// fill free slots, close runs with nothing left. Call it after every
    /// [`Engine::handle`] and on every tick.
    pub(crate) fn pump(&mut self) -> Result<(), CumulusError> {
        let (joined, expired) = self.port.joined()?;
        if expired > 0 {
            self.sinks.tel.count("fleet.spawn_timeouts", expired as u64);
        }
        self.spawning = self.spawning.saturating_sub(joined + expired);
        let now = Instant::now();
        self.workers.extend((0..joined).map(|_| Worker {
            alive: true,
            draining: false,
            in_flight: Vec::new(),
            last_seen: now,
            last_job: None,
            joined_at: now,
            ended_at: None,
            busy_ns: 0,
        }));
        if joined + expired > 0 {
            self.fleet_changed();
        }
        // the policy's first look at a run: its whole seeded backlog, less
        // what resumes or is blacklisted, before any dispatch — the simulator
        // evaluates at the same instant
        if self.runs.iter().any(|r| r.unseen) {
            self.admit();
            let mut fresh = false;
            for r in &mut self.runs {
                fresh |= std::mem::take(&mut r.unseen) && !r.pipe.done();
            }
            if fresh {
                self.rescale()?;
            }
        }
        self.dispatch();
        self.close_runs();
        if !self.runs.is_empty() && self.spawning == 0 && self.workers.iter().all(|w| !w.alive) {
            return Err(CumulusError::WorkerLost(format!(
                "all {} workers lost with work outstanding",
                self.workers.len()
            )));
        }
        Ok(())
    }

    /// Admit dispatcher submissions into the job queues; resume hits and
    /// blacklisted inputs complete inline without touching a worker. `true`
    /// when there was anything to admit.
    fn admit(&mut self) -> bool {
        let mut any = false;
        for run in &mut self.runs {
            while let Some(req) = run.submits.pop_front() {
                any = true;
                match run.ctxs[req.activity].admit(&req.part) {
                    Admitted::Settled(out) => run.finish(req.activity, out),
                    Admitted::Run(key) => run.ready.push_back(Job {
                        activity: req.activity,
                        part_index: req.part_index,
                        part: Arc::new(req.part),
                        key: key.into(),
                        affinity: req.affinity,
                        attempt: 0,
                        crashes: 0,
                    }),
                }
            }
        }
        any
    }

    /// Fair share: the run with ready work whose tenant holds the fewest
    /// slots right now; ties to the higher priority, then the older run.
    fn pick_run(&self) -> Option<usize> {
        let load = |tenant: &str| -> usize {
            self.runs.iter().filter(|r| r.tenant == tenant).map(|r| r.in_flight).sum()
        };
        (0..self.runs.len()).filter(|&i| !self.runs[i].ready.is_empty()).min_by_key(|&i| {
            let r = &self.runs[i];
            (load(&r.tenant), std::cmp::Reverse(r.priority), r.id)
        })
    }

    /// Hand every free slot one attempt, fair-share across runs, placed by
    /// the fleet policy (least loaded by default). Within the picked run the
    /// slot takes the oldest ready job whose affinity key no attempt in
    /// flight holds, or the oldest job when every key is held: two workers
    /// never build one receptor's grids at once while other work is ready.
    /// Free slots are filled from what is already admitted: admission runs a
    /// workflow's own rules and store lookups, so it waits until every slot
    /// is busy — or until nothing admitted is left to fill one with — and
    /// costs no worker any time.
    fn dispatch(&mut self) {
        let slots = self.port.slots();
        loop {
            let candidates: Vec<WorkerView> = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && !w.draining && w.in_flight.len() < slots)
                .map(|(i, w)| WorkerView { index: i, in_flight: w.in_flight.len() })
                .collect();
            let picked = if candidates.is_empty() { None } else { self.pick_run() };
            let Some(ri) = picked else {
                if self.admit() && !candidates.is_empty() {
                    continue;
                }
                return;
            };
            let workers = &self.workers;
            let held = |key| {
                workers.iter().flat_map(|w| &w.in_flight).any(|f| f.job.affinity == Some(key))
            };
            let run = &mut self.runs[ri];
            let at = run.ready.iter().position(|j| !j.affinity.is_some_and(held)).unwrap_or(0);
            let job = run.ready.remove(at).expect("a ready job's position");
            let ctx = Arc::clone(&run.ctxs[job.activity]);
            if ctx.hangs(&job.key, job.attempt) {
                // the activation would loop forever: abort it here rather
                // than waste a worker slot on it
                let aborted = ctx.settle(ctx.begin(&job.key, job.attempt), Exec::Hung);
                run.settled(job, aborted);
                continue;
            }
            run.in_flight += 1;
            let run = run.id;
            let wi = match &mut self.controller {
                Some(c) => c.place(job.activity, &candidates),
                None => least_loaded(&candidates),
            };
            let wi = wi.expect("candidates is non-empty");
            self.next_job += 1;
            let id = self.next_job;
            let sent = self.port.run(wi, id, &ctx, &job);
            let dispatched = Instant::now();
            let attempt = InFlight { id, run, job, ctx, dispatched, straggler: false };
            self.workers[wi].in_flight.push(attempt);
            if !sent {
                self.lose_worker(wi, "send_failed");
            }
        }
    }

    /// Take in one port event. Follow with [`Engine::pump`].
    pub(crate) fn handle(&mut self, ev: PortEvent) -> Result<(), CumulusError> {
        match ev {
            PortEvent::Settled { worker, job, settled } => {
                let w = &mut self.workers[worker];
                w.last_seen = Instant::now();
                let Some(at) = w.in_flight.iter().position(|f| f.id == job) else {
                    return Ok(()); // completion raced a reassignment
                };
                let f = w.in_flight.swap_remove(at);
                let elapsed_ns = f.dispatched.elapsed().as_nanos() as u64;
                w.busy_ns += elapsed_ns;
                let run =
                    self.runs.iter_mut().find(|r| r.id == f.run).expect("in-flight run is live");
                run.in_flight -= 1;
                run.lat_ns.push(elapsed_ns);
                run.settled(f.job, settled);
                // every processed completion is a scheduler tick
                if let Some(c) = &mut self.controller {
                    c.note_completion();
                }
                self.rescale()?;
            }
            PortEvent::Seen { worker, job } => {
                let w = &mut self.workers[worker];
                w.last_seen = Instant::now();
                w.last_job = job;
            }
            PortEvent::Retired { worker, completed } => {
                let w = &mut self.workers[worker];
                if !w.draining || !w.in_flight.is_empty() {
                    self.lose_worker(worker, "unexpected_bye");
                    return Ok(());
                }
                // drain-then-retire completed cleanly: this is not a loss,
                // so nothing is reassigned or blacklisted
                w.alive = false;
                w.ended_at = Some(Instant::now());
                self.port.sever(worker);
                let detail = format!("worker-{worker} completed={completed}");
                self.sinks.tel.instant("fleet", "retire", Some(&detail));
                self.fleet_changed();
                let fields = [("worker", worker.to_string()), ("completed", completed.to_string())];
                self.emit(Severity::Info, "worker_retired", &fields);
            }
            PortEvent::Lost { worker, reason } => self.lose_worker(worker, reason),
            // the owner dies of it, as the process it stands for would,
            // instead of waiting forever for an attempt that never settles
            PortEvent::Panicked(payload) => std::panic::resume_unwind(payload),
        }
        Ok(())
    }

    /// Call on every wakeup of the owner's loop. Once per [`TICK`] it runs
    /// the straggler and liveness sweeps, republishes `/healthz`, and
    /// answers `true` so the owner can hang its own periodic work on it.
    pub(crate) fn tick(&mut self) -> bool {
        if self.last_tick.elapsed() < TICK {
            return false;
        }
        self.last_tick = Instant::now();
        self.flag_stragglers();
        self.check_liveness();
        self.publish_health();
        true
    }

    /// An attempt running beyond `factor ×` its activity's rolling p95 *and*
    /// past the `min_ms` floor is flagged — once — as a straggler. The flag
    /// feeds the scheduler's snapshot and the event log; the attempt itself
    /// keeps running (the hang detector, not this, cuts wedged workers).
    fn flag_stragglers(&mut self) {
        let Some((factor, min_ms)) = self.cfg.straggler else { return };
        let sinks = &self.sinks;
        let tel = sinks.obs.as_ref().map_or(&sinks.tel, |o| &o.tel);
        for (wi, w) in self.workers.iter_mut().enumerate().filter(|(_, w)| w.alive) {
            for f in w.in_flight.iter_mut().filter(|f| !f.straggler) {
                // trust whichever clock has seen more: the engine's dispatch
                // age or the worker's own report
                let reported = w.last_job.filter(|(job, _)| *job == f.id).map_or(0, |(_, ms)| ms);
                let elapsed_ms = reported.max(f.dispatched.elapsed().as_millis() as u64);
                if elapsed_ms < min_ms {
                    continue;
                }
                let threshold_ms = tel
                    .histogram(&f.ctx.hist)
                    .filter(|h| h.count() >= 3)
                    .map_or(0, |h| (h.quantile(0.95) * factor / 1e6) as u64)
                    .max(min_ms);
                if elapsed_ms > threshold_ms {
                    f.straggler = true;
                    tel.count("dist.stragglers", 1);
                    let Some(events) = &sinks.events else { continue };
                    events.emit(
                        sinks.epoch.elapsed().as_secs_f64(),
                        Severity::Warn,
                        "straggler",
                        &[
                            ("worker", wi.to_string()),
                            ("job", f.id.to_string()),
                            ("activity", f.ctx.tag.clone()),
                            ("key", f.job.key.to_string()),
                            ("elapsed_ms", elapsed_ms.to_string()),
                            ("threshold_ms", threshold_ms.to_string()),
                        ],
                    );
                }
            }
        }
    }

    /// Heartbeat silence and wedged attempts cost a worker its place.
    fn check_liveness(&mut self) {
        let cfg = &self.cfg;
        let verdict = |w: &Worker| {
            let wedged = |limit| w.in_flight.iter().any(|f| f.dispatched.elapsed() > limit);
            if cfg.activation_timeout.is_some_and(wedged) {
                Some("activation_timeout")
            } else if cfg.heartbeat_timeout.is_some_and(|limit| w.last_seen.elapsed() > limit) {
                Some("heartbeat_timeout")
            } else {
                None
            }
        };
        let lost: Vec<(usize, &'static str)> = (0..self.workers.len())
            .filter(|&i| self.workers[i].alive)
            .filter_map(|i| Some((i, verdict(&self.workers[i])?)))
            .collect();
        for (wi, reason) in lost {
            if reason == "activation_timeout" {
                // quote the worker's own elapsed report alongside the
                // engine's view (the FAILED row itself stays byte-stable)
                let worker_ms = self.workers[wi]
                    .last_job
                    .map_or_else(|| "none".to_string(), |(j, ms)| format!("job={j} {ms}ms"));
                let detail = format!("worker-{wi} worker_elapsed: {worker_ms}");
                self.sinks.tel.instant("dist", "hang", Some(&detail));
            }
            self.lose_worker(wi, reason);
        }
    }

    /// Stop the fleet: running attempts finish (and record themselves),
    /// queued work is left where it is.
    pub(crate) fn shutdown(&mut self) {
        self.phase = "draining";
        self.publish_health();
        self.port.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::Committer;
    use crate::fleet::Scheduler;
    use crate::lifecycle::RunCtx;
    use crate::workflow::{Activity, FileStore};
    use cloudsim::FailureModel;
    use provenance::{ProvenanceStore, Value};

    /// A port with no threads and no sockets: workers join the moment they
    /// are launched, `run` begins the attempt (as the `SDW2` port does) and
    /// holds it until the test settles it or the engine severs the worker.
    struct FakePort {
        slots: usize,
        launched: usize,
        held: Vec<Vec<(u64, Attempt)>>,
        drained: Vec<usize>,
        /// `(worker, part_index)` of every attempt handed over, in order.
        ran: Vec<(usize, usize)>,
    }

    impl FakePort {
        fn new(slots: usize) -> FakePort {
            FakePort { slots, launched: 0, held: Vec::new(), drained: Vec::new(), ran: Vec::new() }
        }
    }

    impl WorkerPort for FakePort {
        fn slots(&self) -> usize {
            self.slots
        }

        fn launch(&mut self) -> Result<(), CumulusError> {
            self.launched += 1;
            Ok(())
        }

        fn joined(&mut self) -> Result<(usize, usize), CumulusError> {
            let joined = std::mem::take(&mut self.launched);
            self.held.extend((0..joined).map(|_| Vec::new()));
            Ok((joined, 0))
        }

        fn run(&mut self, worker: usize, id: u64, ctx: &Arc<ActivityCtx>, job: &Job) -> bool {
            let held = &mut self.held[worker];
            held.push((id, ctx.begin(&job.key, job.attempt)));
            assert!(held.len() <= self.slots, "worker {worker} holds {} jobs", held.len());
            self.ran.push((worker, job.part_index));
            true
        }

        fn drain(&mut self, worker: usize) -> bool {
            self.drained.push(worker);
            true
        }

        fn sever(&mut self, worker: usize) -> Vec<(u64, Attempt)> {
            std::mem::take(&mut self.held[worker])
        }

        fn shutdown(&mut self) {}
    }

    /// One Map activity over `x`.
    fn flat_def() -> Arc<WorkflowDef> {
        Arc::new(WorkflowDef {
            tag: "flat".into(),
            description: "engine test".into(),
            expdir: "/exp/flat".into(),
            activities: vec![Activity::map("work", &["x"], Arc::new(|p, _| Ok(p.to_vec())))],
            deps: vec![vec![]],
        })
    }

    fn ints(n: i64) -> Relation {
        let mut r = Relation::new(&["x"]);
        for i in 0..n {
            r.push(vec![Value::Int(i)]);
        }
        r
    }

    fn engine(
        slots: usize,
        workers: usize,
        floor: usize,
        scheduler: Option<&SchedulerFactory>,
    ) -> Engine<FakePort> {
        let cfg = EngineCfg { floor, reassign_budget: 2, ..EngineCfg::threads(&RunConfig::new()) };
        let sinks =
            Sinks { tel: Telemetry::disabled(), events: None, epoch: Instant::now(), obs: None };
        let mut e = Engine::new(FakePort::new(slots), cfg, sinks, scheduler);
        e.launch(workers).unwrap();
        e.pump().unwrap();
        e
    }

    /// One Map activity over receptor × ligand pairs, with `affinity` as its
    /// affinity column when given.
    fn dock_def(affinity: Option<&str>) -> Arc<WorkflowDef> {
        let dock = Activity::map("dock", &["receptor", "ligand"], Arc::new(|p, _| Ok(p.to_vec())));
        Arc::new(WorkflowDef {
            tag: "dock".into(),
            description: "engine test".into(),
            expdir: "/exp/dock".into(),
            activities: vec![match affinity {
                Some(column) => dock.with_affinity(column),
                None => dock,
            }],
            deps: vec![vec![]],
        })
    }

    /// `receptors × ligands` pairs, receptor-major, as SciDock stages them.
    fn receptor_major(receptors: usize, ligands: usize) -> Relation {
        let mut r = Relation::new(&["receptor", "ligand"]);
        for i in 0..receptors {
            for j in 0..ligands {
                r.push(vec![Value::from(format!("r{i}")), Value::from(format!("l{j}"))]);
            }
        }
        r
    }

    /// Take on `n` flat activations as run `id` of `tenant`, recorded in
    /// `prov`.
    fn add_flat(
        e: &mut Engine<FakePort>,
        id: u64,
        tenant: &str,
        n: i64,
        prov: &Store,
        failures: FailureModel,
    ) {
        add_def(e, id, tenant, flat_def(), &ints(n), prov, failures);
    }

    /// Take on `def` over `input` as run `id` of `tenant`, recorded in `prov`.
    fn add_def(
        e: &mut Engine<FakePort>,
        id: u64,
        tenant: &str,
        def: Arc<WorkflowDef>,
        input: &Relation,
        prov: &Store,
        failures: FailureModel,
    ) {
        let (wkf, acts) = prov.commit.register(&prov.prov, &def);
        let run = Arc::new(RunCtx {
            wkf,
            files: Arc::new(FileStore::new()),
            prov: Arc::clone(&prov.prov),
            failures,
            max_retries: 0,
            resume_from: None,
            start_base: Instant::now(),
            tel: Telemetry::disabled(),
            commit: Arc::clone(&prov.commit),
            events: None,
        });
        let ctxs = ActivityCtx::build_all(&def, &run, &acts);
        e.add_run(id, tenant, 0, def, input, ctxs);
    }

    /// Settle the attempt `worker` took last as finished, its input passed
    /// downstream as its output.
    fn settle_ok(e: &mut Engine<FakePort>, worker: usize) {
        let (job, _) = e.port.held[worker].pop().expect("worker holds an attempt");
        let f = e.workers[worker].in_flight.iter().find(|f| f.id == job).expect("in flight");
        let out = ActOutcome { finished: 1, tuples: f.job.part.to_vec(), ..Default::default() };
        e.handle(PortEvent::Settled { worker, job, settled: Settled::Terminal(out) }).unwrap();
    }

    /// Affinity keys of the attempts in flight.
    fn keys_in_flight(e: &Engine<FakePort>) -> Vec<Option<u64>> {
        e.workers.iter().flat_map(|w| &w.in_flight).map(|f| f.job.affinity).collect()
    }

    fn finished() -> Settled {
        Settled::Terminal(ActOutcome { finished: 1, ..Default::default() })
    }

    /// A store and its committer, as an owner holds them.
    struct Store {
        prov: Arc<ProvenanceStore>,
        commit: Arc<Committer>,
    }

    impl Store {
        fn new() -> Store {
            let prov = Arc::new(ProvenanceStore::new());
            let (events, _) = std::sync::mpsc::channel::<PortEvent>();
            let tel = Telemetry::disabled();
            let commit = Committer::start(Arc::clone(&prov), Instant::now(), None, &tel, events);
            Store { prov, commit }
        }

        /// `(pair key, status)` of every row in task order, once every row
        /// sent so far is in.
        fn statuses(&self) -> Vec<(String, String)> {
            assert!(self.commit.drain());
            let sql = "SELECT pairkey, status FROM hactivation ORDER BY taskid";
            let rows = self.prov.query_rows(sql, &[]).unwrap().rows;
            rows.iter().map(|r| (r[0].to_string(), r[1].to_string())).collect()
        }
    }

    /// Fair share as a count: while every tenant has ready work, filling
    /// the free slots never leaves two tenants' in-flight counts more than
    /// one apart, whatever completed in between.
    #[test]
    fn fair_share_keeps_tenants_within_one_slot_of_each_other() {
        const SLOTS: usize = 5;
        let prov = Store::new();
        let mut e = engine(1, SLOTS, 1, None);
        // three, two and one runs: the share is the tenant's, not the run's
        let tenants = ["a", "b", "c"];
        for (id, tenant) in ["a", "a", "a", "b", "b", "c"].into_iter().enumerate() {
            add_flat(&mut e, id as u64, tenant, 40, &prov, FailureModel::none());
        }
        for round in 0..30 {
            e.pump().unwrap();
            let loads = tenants.map(|t| {
                let of_tenant = e.runs.iter().filter(|r| r.tenant == t);
                assert!(of_tenant.clone().any(|r| !r.ready.is_empty()), "{t} ran dry");
                of_tenant.map(|r| r.in_flight).sum::<usize>()
            });
            assert_eq!(loads.iter().sum::<usize>(), SLOTS, "every free slot is filled");
            let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
            assert!(spread <= 1, "round {round}: in flight per tenant {loads:?}");
            // a different three or four of the five complete each round
            for worker in (0..SLOTS).filter(|i| (i + round) % 3 != 0) {
                let (job, _) = e.port.held[worker].pop().expect("slot was filled");
                e.handle(PortEvent::Settled { worker, job, settled: finished() }).unwrap();
            }
        }
    }

    /// A lost worker's attempts each get a `FAILED` row and re-enter the
    /// queue, ahead of queued work, in `(activity, part_index)` order; an
    /// input that has cost more workers than `reassign_budget` is
    /// `BLACKLISTED` and the run goes on without it.
    #[test]
    fn a_lost_workers_jobs_are_requeued_in_order_and_poison_is_blacklisted() {
        let prov = Store::new();
        let mut e = engine(3, 1, 1, None);
        add_flat(&mut e, 7, "t", 5, &prov, FailureModel::none());
        e.pump().unwrap();
        let held: Vec<u64> = e.port.held[0].iter().map(|(id, _)| *id).collect();
        assert_eq!(held.len(), 3, "three slots, three jobs");
        // the port hands the attempts back in an order of its own
        e.port.held[0].reverse();

        // the only worker dies: with none left, the run cannot go on
        e.handle(PortEvent::Lost { worker: 0, reason: "test" }).unwrap();
        let front: Vec<(usize, u32, u32)> =
            e.runs[0].ready.iter().map(|j| (j.part_index, j.attempt, j.crashes)).collect();
        assert_eq!(front, [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 0, 0), (4, 0, 0)]);
        assert_eq!(e.runs[0].in_flight, 0);
        assert!(matches!(e.pump(), Err(CumulusError::WorkerLost(_))));

        // each replacement takes the same three inputs down with it
        for worker in 1..=2 {
            e.launch(1).unwrap();
            e.pump().unwrap();
            assert_eq!(e.port.held[worker].len(), 3);
            e.handle(PortEvent::Lost { worker, reason: "test" }).unwrap();
        }
        // budget 2: the third loss is one too many for inputs 0, 1 and 2
        assert_eq!(e.runs[0].tally.blacklisted, 3);
        assert_eq!(e.runs[0].tally.failed_attempts, 9);
        let rows = prov.statuses();
        for key in ["0", "1", "2"] {
            let of_key: Vec<&str> =
                rows.iter().filter(|(k, _)| k == key).map(|(_, s)| s.as_str()).collect();
            assert_eq!(of_key, ["FAILED", "FAILED", "FAILED", "BLACKLISTED"], "input {key}");
        }

        // a healthy worker finishes what is left, and the run closes
        e.launch(1).unwrap();
        e.pump().unwrap();
        for (job, _) in std::mem::take(&mut e.port.held[3]) {
            e.handle(PortEvent::Settled { worker: 3, job, settled: finished() }).unwrap();
        }
        e.pump().unwrap();
        assert!(e.runs.is_empty(), "a closed run leaves the table");
        assert_eq!(e.closed.len(), 1);
        assert_eq!((e.closed[0].id, e.closed[0].tally.finished, e.closed[0].done), (7, 2, 5));
    }

    /// A policy that asks for one thing, once per entry.
    struct Scripted(VecDeque<ScaleDecision>);

    impl Scheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn decide(&mut self, _: &FleetSnapshot) -> ScaleDecision {
            self.0.pop_front().unwrap_or(ScaleDecision::Hold)
        }
    }

    #[test]
    fn shrink_drains_idle_workers_first_lowest_index_first_and_keeps_the_floor() {
        let script = [ScaleDecision::Hold, ScaleDecision::Shrink(2), ScaleDecision::Shrink(9)];
        let factory = SchedulerFactory::new(move || Box::new(Scripted(script.into())));
        let prov = Store::new();
        let mut e = engine(1, 5, 2, Some(&factory));
        // three jobs on five single-slot workers: 0, 1, 2 busy; 3, 4 idle
        add_flat(&mut e, 1, "t", 3, &prov, FailureModel::none());
        e.pump().unwrap();
        assert_eq!(e.port.held.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1, 0, 0]);

        // worker 1 completes: idle workers are now 1, 3, 4 — Shrink(2)
        // takes the two lowest of them, not busy worker 0
        let (job, _) = e.port.held[1].pop().unwrap();
        e.handle(PortEvent::Settled { worker: 1, job, settled: finished() }).unwrap();
        assert_eq!(e.port.drained, [1, 3]);
        assert_eq!(e.provisioned(), 3);

        // Shrink(9) may only take one more: two workers stay whatever the
        // policy says
        let (job, _) = e.port.held[0].pop().unwrap();
        e.handle(PortEvent::Settled { worker: 0, job, settled: finished() }).unwrap();
        assert_eq!(e.port.drained, [1, 3, 0]);
        assert_eq!(e.provisioned(), 2);

        // a drained worker that says goodbye is retired, not lost
        e.handle(PortEvent::Retired { worker: 3, completed: 0 }).unwrap();
        assert!(prov.statuses().is_empty(), "nothing failed, nothing was reassigned");
    }

    #[test]
    fn a_port_with_k_slots_never_has_more_than_k_jobs_on_one_worker() {
        const K: usize = 3;
        let prov = Store::new();
        let mut e = engine(K, 2, 1, None);
        add_flat(&mut e, 1, "t", 20, &prov, FailureModel::none());
        let mut done = 0;
        while done < 20 {
            // `FakePort::run` asserts the bound on every hand-over
            e.pump().unwrap();
            assert_eq!(e.port.held.iter().map(Vec::len).sum::<usize>(), (20 - done).min(2 * K));
            let worker = (0..2).max_by_key(|&w| e.port.held[w].len()).unwrap();
            let (job, _) = e.port.held[worker].remove(0);
            e.handle(PortEvent::Settled { worker, job, settled: finished() }).unwrap();
            done += 1;
        }
        e.pump().unwrap();
        assert_eq!(e.closed[0].done, 20);
    }

    #[test]
    fn a_hung_fate_is_aborted_without_occupying_a_slot() {
        // every attempt hangs
        let hangs = FailureModel { fail_rate: 0.0, hang_rate: 1.0, fail_at_fraction: 0.5, seed: 3 };
        let prov = Store::new();
        let mut e = engine(1, 2, 1, None);
        add_flat(&mut e, 1, "t", 4, &prov, hangs);
        e.pump().unwrap();
        assert!(e.port.held.iter().all(Vec::is_empty), "no worker was handed a hung attempt");
        assert_eq!((e.closed[0].tally.aborted, e.closed[0].done), (4, 4));
        assert!(prov.statuses().iter().all(|(_, s)| s == "ABORTED"));
        assert_eq!(prov.statuses().len(), 4);
    }

    /// Receptor-major pairs on two one-slot workers, affinity on the
    /// receptor: while the run has a ready pair of a receptor nobody holds,
    /// the two workers never hold the same receptor.
    #[test]
    fn affinity_keeps_two_workers_off_one_receptor_while_other_work_is_ready() {
        let prov = Store::new();
        let mut e = engine(1, 2, 1, None);
        let input = receptor_major(3, 4);
        add_def(&mut e, 1, "t", dock_def(Some("receptor")), &input, &prov, FailureModel::none());
        let mut shared = 0;
        for step in 0..12 {
            e.pump().unwrap();
            let keys = keys_in_flight(&e);
            assert!(keys.iter().all(Option::is_some), "every pair has a key");
            if keys.len() == 2 && keys[0] == keys[1] {
                shared += 1;
                let free = e.runs[0].ready.iter().find(|j| !keys.contains(&j.affinity));
                assert!(free.is_none(), "step {step}: one receptor twice, {free:?} ready");
            }
            // the workers take turns finishing
            let worker = [step % 2, 1 - step % 2].into_iter().find(|&w| !e.port.held[w].is_empty());
            settle_ok(&mut e, worker.expect("a worker holds work"));
        }
        e.pump().unwrap();
        assert_eq!(e.closed[0].done, 12);
        // the second worker starts on the second receptor, not the first's
        // next ligand; only the last receptor's tail, with nothing else
        // ready, runs side by side
        assert_eq!(e.port.ran[..2], [(0, 0), (1, 4)]);
        assert_eq!(shared, 3);
    }

    /// With no affinity declared — or one on a column the input does not
    /// have, which sets no key, as a route on a missing column matches
    /// nothing — the dispatch sequence is FIFO: pinned.
    #[test]
    fn without_an_affinity_key_the_dispatch_sequence_is_fifo() {
        for affinity in [None, Some("target")] {
            let prov = Store::new();
            let mut e = engine(1, 2, 1, None);
            let input = receptor_major(3, 4);
            add_def(&mut e, 1, "t", dock_def(affinity), &input, &prov, FailureModel::none());
            for step in 0..12 {
                e.pump().unwrap();
                assert!(keys_in_flight(&e).iter().all(Option::is_none), "{affinity:?}");
                let worker =
                    [step % 2, 1 - step % 2].into_iter().find(|&w| !e.port.held[w].is_empty());
                settle_ok(&mut e, worker.expect("a worker holds work"));
            }
            let fifo = [(0, 0), (1, 1), (0, 2), (1, 3), (0, 4), (1, 5)];
            let fifo = fifo.into_iter().chain([(0, 6), (1, 7), (0, 8), (1, 9), (0, 10), (1, 11)]);
            assert_eq!(e.port.ran, fifo.collect::<Vec<_>>(), "{affinity:?}");
        }
    }

    /// A retried attempt and a lost worker's attempt each go back to the
    /// front of the queue with their key, and are the next dispatched.
    #[test]
    fn a_retried_and_a_requeued_job_keep_their_key_and_the_front() {
        let prov = Store::new();
        let mut e = engine(1, 2, 1, None);
        let input = receptor_major(2, 3);
        add_def(&mut e, 1, "t", dock_def(Some("receptor")), &input, &prov, FailureModel::none());
        e.pump().unwrap();
        assert_eq!(e.port.ran, [(0, 0), (1, 3)]);
        let [r0, r1] = [0, 1].map(|w| e.workers[w].in_flight[0].job.affinity);
        let front = |e: &Engine<FakePort>| {
            let j = e.runs[0].ready.front().expect("ready work");
            (j.part_index, j.attempt, j.crashes, j.affinity)
        };

        let (job, _) = e.port.held[0].pop().unwrap();
        e.handle(PortEvent::Settled { worker: 0, job, settled: Settled::Retry }).unwrap();
        assert_eq!(front(&e), (0, 1, 0, r0));
        e.pump().unwrap();
        assert_eq!(e.port.ran.last(), Some(&(0, 0)));

        e.handle(PortEvent::Lost { worker: 1, reason: "test" }).unwrap();
        assert_eq!(front(&e), (3, 1, 1, r1));
        e.launch(1).unwrap();
        e.pump().unwrap();
        assert_eq!(e.port.ran.last(), Some(&(2, 3)));
    }

    /// The backlog the fleet policy reads equals a full recount of both
    /// queues after every step: admission (a blacklisted input settles
    /// there), dispatch and the affinity pick, completion, retry, worker
    /// loss and cancel.
    #[test]
    fn queued_counts_equal_a_full_recount_after_every_step() {
        fn check(e: &Engine<FakePort>, step: usize) {
            let mut recount = vec![0; e.runs.iter().map(|r| r.ctxs.len()).max().unwrap_or(0)];
            for r in &e.runs {
                let ready = r.ready.iter().map(|j| j.activity);
                for activity in ready.chain(r.submits.iter().map(|s| s.activity)) {
                    recount[activity] += 1;
                }
            }
            assert_eq!(e.snapshot().queued, recount.iter().sum::<usize>(), "step {step}");
        }
        let ident: crate::workflow::ActivityFn = Arc::new(|p, _| Ok(p.to_vec()));
        let cols = ["receptor", "ligand"];
        let def = Arc::new(WorkflowDef {
            tag: "chain".into(),
            description: "engine test".into(),
            expdir: "/exp/chain".into(),
            activities: vec![
                Activity::map("stage", &cols, Arc::clone(&ident)),
                Activity::map("dock", &cols, ident)
                    .with_affinity("receptor")
                    .with_blacklist(Arc::new(|t| t[1] == Value::from("l1"))),
            ],
            deps: vec![vec![], vec![0]],
        });
        let prov = Store::new();
        let mut e = engine(1, 2, 1, None);
        add_def(&mut e, 1, "a", def, &receptor_major(3, 3), &prov, FailureModel::none());
        add_flat(&mut e, 2, "b", 6, &prov, FailureModel::none());
        check(&e, 0);
        for step in 1..100 {
            e.pump().unwrap();
            check(&e, step);
            if e.runs.is_empty() {
                assert_eq!(e.closed.len(), 2);
                return;
            }
            let busy = (0..e.port.held.len()).find(|&w| !e.port.held[w].is_empty());
            let worker = busy.expect("a live run has work in flight");
            match step {
                3 | 8 => {
                    let (job, _) = e.port.held[worker].pop().unwrap();
                    e.handle(PortEvent::Settled { worker, job, settled: Settled::Retry }).unwrap();
                }
                5 => {
                    e.handle(PortEvent::Lost { worker, reason: "test" }).unwrap();
                    e.launch(1).unwrap();
                }
                7 => assert!(e.cancel(2)),
                _ => settle_ok(&mut e, worker),
            }
            check(&e, step);
        }
        panic!("the runs never closed");
    }
}
