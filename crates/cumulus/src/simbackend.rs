//! The paper's simulator: a discrete-event model of the SciCumulus master
//! running an activation DAG on an elastic EC2 fleet.
//!
//! It produces the paper's cloud-scale numbers (Figures 7–9): Total
//! Execution Time, speedup, and efficiency at 2–128 virtual cores,
//! including the effects the paper discusses — VM heterogeneity and
//! virtualization noise, shared-filesystem staging, ~10% activation
//! failures with re-execution, hang detection, poison-input blacklisting,
//! serialized master dispatch whose planning cost grows with queue × VMs
//! (§V.C's cost model with its greedy pick: a started pair's next
//! activation before a new pair's first — [`crate::sched::ReadyQueue`] —
//! on the fastest free VM), and an elastic fleet under a
//! [`crate::fleet::Scheduler`] policy.
//!
//! It is a cost model, not a backend: it runs no activity and moves no
//! data, and it keeps its own event loop rather than driving the engine.
//! What it shares with the engine is the fleet layer — the same policy
//! objects, snapshot shape and drain rule ([`crate::fleet`]) — so a policy
//! takes the same decisions here as on real workers. Without a policy the
//! fleet is fixed and no snapshot is taken.

use cloudsim::{
    sim_ns, Cluster, EventQueue, FailureModel, Fate, InstanceType, NoiseModel, SharedFsModel,
    SimTime, VmId,
};
use provenance::{
    ActivationRecord, ActivationStatus, ActivityId, MachineId, ProvenanceStore, WorkflowId,
};
use telemetry::{MetricsSnapshot, Telemetry};

use crate::fleet::{
    drain_targets, FleetController, FleetSnapshot, ScaleDecision, ScaleEvent, SchedulerFactory,
};
use crate::obs::{EventLog, Severity};
use crate::sched::{MasterCostModel, ReadyQueue};

/// The hang detector aborts a hanging activation after this many times its
/// runtime on the VM it landed on.
const HANG_TIMEOUT_FACTOR: f64 = 10.0;

/// One activation to simulate.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Position of this task's activity in the workflow (indexes
    /// [`SimWorkflow::activities`]).
    pub activity_index: usize,
    /// Which receptor–ligand pair (or other tuple) this activation serves.
    pub pair_key: String,
    /// Nominal compute seconds on a 1.0-speed core.
    pub nominal_s: f64,
    /// Input bytes staged in through the shared FS.
    pub in_bytes: u64,
    /// Output bytes staged out.
    pub out_bytes: u64,
    /// Indices of tasks that must finish first.
    pub deps: Vec<usize>,
    /// Poison input (Hg receptor): blacklisted when the rule is on,
    /// guaranteed hang when it is off.
    pub poison: bool,
}

/// A workflow to simulate: its activation DAG and the names provenance and
/// the event log record it under.
#[derive(Debug, Clone, Default)]
pub struct SimWorkflow {
    /// Workflow tag recorded in provenance.
    pub tag: String,
    /// Activity tags by [`SimTask::activity_index`].
    pub activities: Vec<String>,
    /// The activations; [`SimTask::deps`] index into this list.
    pub tasks: Vec<SimTask>,
}

/// Simulation configuration. The default is one m3.xlarge, no failure
/// injection, three retries, the Hg rule on and telemetry disabled; set
/// the fields, or build one with struct-update syntax.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed for every stochastic component.
    pub seed: u64,
    /// Initial fleet.
    pub fleet: Vec<&'static InstanceType>,
    /// VM performance-noise model.
    pub noise: NoiseModel,
    /// Failure injection.
    pub failures: FailureModel,
    /// Retry budget per activation.
    pub max_retries: u32,
    /// Shared-filesystem model.
    pub sharedfs: SharedFsModel,
    /// Master dispatch cost model.
    pub master: MasterCostModel,
    /// Elastic fleet policy — the same [`crate::fleet::Scheduler`] the
    /// distributed backend runs. `None` = fixed fleet. When set, the
    /// controller evaluates once over the seeded backlog and then after
    /// every completion, exactly like the distributed master, so the
    /// decision traces are comparable event-for-event.
    pub scheduler: Option<SchedulerFactory>,
    /// Instance type acquired on a `Grow` decision.
    pub scale_itype: &'static InstanceType,
    /// Is the provenance-driven Hg blacklist rule installed?
    pub hg_rule: bool,
    /// Telemetry sink. Spans are recorded at *simulated* timestamps, one
    /// trace lane per VM, so a Chrome trace of a simulated run lays out like
    /// a real one.
    pub telemetry: Telemetry,
    /// Structured event log. Events are emitted at *simulated* timestamps
    /// with the same kinds and lifecycle ordering as the real backends, so a
    /// sim mirror of a run produces the same event sequence (modulo
    /// timestamps and resource names, which the test-only
    /// `ObsEvent::parity_signature` leaves out).
    pub events: Option<EventLog>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            fleet: vec![&cloudsim::M3_XLARGE],
            noise: NoiseModel::default(),
            failures: FailureModel::none(),
            max_retries: 3,
            sharedfs: SharedFsModel::default(),
            master: MasterCostModel::default(),
            scheduler: None,
            scale_itype: &cloudsim::M3_XLARGE,
            hg_rule: true,
            telemetry: Telemetry::disabled(),
            events: None,
        }
    }
}

/// The fields naming the campaign a simulated run mirrors: a one-shot run
/// is campaign 1 of the anonymous tenant.
fn campaign_fields() -> Vec<(&'static str, String)> {
    vec![("campaign", "1".to_string()), ("tenant", String::new())]
}

/// Simulation outcome.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Provenance id the run was recorded under (`None` without a store).
    pub workflow: Option<WorkflowId>,
    /// Total execution time (TET) in simulated seconds.
    pub tet_s: f64,
    /// Activations that finished.
    pub finished: usize,
    /// Failed attempts (all retried or dropped).
    pub failed_attempts: usize,
    /// Activations aborted by the hang detector.
    pub aborted: usize,
    /// Activations skipped by the blacklist rule.
    pub blacklisted: usize,
    /// Tasks cancelled because an upstream task was dropped.
    pub cancelled: usize,
    /// Core-seconds of actual compute (including lost failed work).
    pub busy_core_seconds: f64,
    /// Seconds the master spent planning dispatches.
    pub master_overhead_s: f64,
    /// Seconds spent staging files through the shared FS.
    pub staging_s: f64,
    /// Total cloud bill in USD.
    pub cost_usd: f64,
    /// Peak number of alive VMs.
    pub peak_vms: usize,
    /// Final number of virtual cores.
    pub final_cores: u32,
    /// Aggregated telemetry over the simulated timeline — `None` when no
    /// sink was attached.
    pub metrics: Option<MetricsSnapshot>,
    /// Scale decisions taken by the fleet policy, in order (empty unless
    /// [`SimConfig::scheduler`] is set).
    pub scale_events: Vec<ScaleEvent>,
}

#[derive(Debug)]
enum Event {
    VmReady(VmId),
    TaskDone { task: usize, vm: VmId, attempt: u32, fate: Fate },
}

/// Run the discrete-event simulation over a workflow's [`SimTask`] DAG.
/// When `prov` is given, every activation is recorded with its simulated
/// timestamps, so the paper's provenance queries run against simulated
/// executions too.
pub fn simulate_tasks(
    wf: &SimWorkflow,
    cfg: &SimConfig,
    prov: Option<&ProvenanceStore>,
) -> SimReport {
    let mut sim = Sim::new(wf, cfg, prov);
    // the policy's first look: the whole seeded backlog, before any
    // dispatch — the distributed master evaluates at the same instant
    sim.rescale();
    loop {
        sim.dispatch();
        let Some((t, ev)) = sim.events.pop() else { break };
        cfg.telemetry.count("sim.events", 1);
        sim.now = t;
        sim.report.tet_s = sim.report.tet_s.max(t);
        match ev {
            Event::VmReady(vm) => sim.boot(vm),
            Event::TaskDone { task, vm, attempt, fate } => {
                sim.complete(task, vm, attempt, fate);
                // every completion is a scheduler tick, exactly like the
                // distributed master processing a Done frame
                if let Some(ctrl) = sim.controller.as_mut() {
                    ctrl.note_completion();
                }
                sim.rescale();
            }
        }
    }
    sim.finish()
}

/// One VM of a simulated fleet, at its `VmId` index.
struct SimVm {
    /// When it finishes booting.
    ready_at: SimTime,
    /// Tasks running on it.
    busy: u32,
    /// Its `hmachine` row, when the run records provenance.
    machine: Option<MachineId>,
    /// The fleet policy asked it to retire: it takes no new task and is
    /// released the moment its last one lands (drain-then-retire).
    draining: bool,
    /// Handed back to the cloud.
    released: bool,
}

impl SimVm {
    /// Provisioned and not retiring: the VM counts toward the fleet.
    fn serving(&self) -> bool {
        !self.released && !self.draining
    }
}

/// The state of one [`simulate_tasks`] run.
struct Sim<'a> {
    wf: &'a SimWorkflow,
    cfg: &'a SimConfig,
    prov: Option<&'a ProvenanceStore>,
    /// The run's activities by index, when `prov` is set.
    act_ids: Vec<ActivityId>,
    cluster: Cluster,
    events: EventQueue<Event>,
    vms: Vec<SimVm>,
    /// One entry per free core of a booted, serving VM.
    free_slots: Vec<VmId>,
    ready: ReadyQueue,
    in_flight: usize,
    /// Dependencies of each task not yet finished.
    dep_count: Vec<usize>,
    successors: Vec<Vec<usize>>,
    attempts: Vec<u32>,
    /// Blacklisted, aborted, out of retries, or cancelled by an upstream.
    dropped: Vec<bool>,
    /// Fleet-policy state, mirroring the distributed master: the controller
    /// owns the completion counter and the snapshot carries logical
    /// quantities only, so the decision trace is reproducible across
    /// substrates.
    controller: Option<FleetController>,
    /// Cores of the initial fleet: the master plans for them while they boot.
    fleet_cores: u32,
    slots_per_worker: usize,
    /// When the master is done planning its last dispatch.
    master_free: SimTime,
    now: SimTime,
    report: SimReport,
}

impl<'a> Sim<'a> {
    /// Register the run, boot the initial fleet and seed the ready queue.
    fn new(wf: &'a SimWorkflow, cfg: &'a SimConfig, prov: Option<&'a ProvenanceStore>) -> Self {
        assert!(!cfg.fleet.is_empty(), "fleet must contain at least one VM");
        let (wkf, act_ids) = match prov {
            Some(p) => {
                let w = p.begin_workflow(&wf.tag, "simulated run", "/root/scidock/");
                (Some(w), wf.activities.iter().map(|t| p.register_activity(w, t, "Map")).collect())
            }
            None => (None, Vec::new()),
        };
        // structured events at simulated timestamps, mirroring a real run:
        // campaign 1 of the anonymous tenant, submitted under its tag
        if let Some(ev) = &cfg.events {
            let mut submitted = campaign_fields();
            submitted.extend([("spec", wf.tag.clone()), ("priority", "0".into())]);
            ev.emit(0.0, Severity::Info, "campaign_submitted", &submitted);
            let mut started = campaign_fields();
            started.extend(wkf.map(|w| ("wkfid", w.0.to_string())));
            ev.emit(0.0, Severity::Info, "campaign_started", &started);
        }
        let tasks = &wf.tasks;
        let n = tasks.len();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                assert!(d < n, "task {i} depends on out-of-range {d}");
                successors[d].push(i);
            }
        }
        let mut sim = Sim {
            wf,
            cfg,
            prov,
            act_ids,
            cluster: Cluster::with_telemetry(cfg.seed, cfg.noise, cfg.telemetry.clone()),
            events: EventQueue::new(),
            vms: Vec::new(),
            free_slots: Vec::new(),
            ready: ReadyQueue::new(),
            in_flight: 0,
            dep_count: tasks.iter().map(|t| t.deps.len()).collect(),
            successors,
            attempts: vec![0; n],
            dropped: vec![false; n],
            controller: cfg.scheduler.as_ref().map(FleetController::new),
            fleet_cores: cfg.fleet.iter().map(|f| f.cores).sum(),
            slots_per_worker: cfg.fleet.iter().map(|f| f.cores as usize).max().unwrap_or(1),
            master_free: 0.0,
            now: 0.0,
            report: SimReport { workflow: wkf, peak_vms: cfg.fleet.len(), ..Default::default() },
        };
        for itype in &cfg.fleet {
            sim.acquire(itype);
        }
        for (i, task) in tasks.iter().enumerate() {
            if task.deps.is_empty() {
                sim.admit(i);
            }
        }
        sim
    }

    /// Acquire one VM of `itype` now; it joins the fleet once booted.
    fn acquire(&mut self, itype: &'static InstanceType) {
        let id = self.cluster.acquire(itype, self.now);
        let ready_at = self.cluster.vm(id).ready_at;
        self.events.push(ready_at, Event::VmReady(id));
        let machine = self
            .prov
            .map(|p| p.register_machine(&format!("vm-{}", id.0), itype.name, itype.cores as i64));
        self.vms.push(SimVm { ready_at, busy: 0, machine, draining: false, released: false });
    }

    /// VM `vm` finished booting: its cores take work unless a drain came first.
    fn boot(&mut self, vm: VmId) {
        if self.vms[vm.0].serving() {
            for _ in 0..self.cluster.vm(vm).itype.cores {
                self.free_slots.push(vm);
            }
        }
    }

    /// Every dependency of task `i` finished: the provenance-driven Hg rule
    /// blacklists a poison input before it runs; anything else is queued.
    fn admit(&mut self, i: usize) {
        if self.wf.tasks[i].poison && self.cfg.hg_rule {
            self.blacklist(i);
            self.report.blacklisted += 1;
            self.dropped[i] = true;
            self.cancel_downstream(i);
        } else {
            self.enqueue(i);
        }
    }

    fn enqueue(&mut self, i: usize) {
        self.ready.push(i, !self.wf.tasks[i].deps.is_empty());
    }

    /// Cancel everything downstream of task `start`.
    fn cancel_downstream(&mut self, start: usize) {
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &s in &self.successors[u] {
                if !self.dropped[s] {
                    self.dropped[s] = true;
                    self.report.cancelled += 1;
                    stack.push(s);
                }
            }
        }
    }

    /// Dispatch as long as both a free slot and a ready task exist, each
    /// planned in turn by the one master.
    fn dispatch(&mut self) {
        let (cfg, tel, now) = (self.cfg, &self.cfg.telemetry, self.now);
        while !self.ready.is_empty() && !self.free_slots.is_empty() {
            let total_cores = self.cluster.cores_at(now).max(self.fleet_cores);
            let overhead = cfg.master.dispatch_overhead(self.ready.len(), total_cores);
            let dispatch_at = self.master_free.max(now) + overhead;
            self.master_free = dispatch_at;
            self.report.master_overhead_s += overhead;

            let ti = self.ready.pop().expect("non-empty");
            let task = &self.wf.tasks[ti];
            self.in_flight += 1;
            // the greedy pick: the task goes to the fastest free VM
            let cluster = &self.cluster;
            let slot_idx = (self.free_slots.iter().enumerate())
                .max_by(|(_, a), (_, b)| {
                    cluster.vm(**a).core_speed().total_cmp(&cluster.vm(**b).core_speed())
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            let vm_id = self.free_slots.swap_remove(slot_idx);
            self.vms[vm_id.0].busy += 1;

            let attempt = self.attempts[ti];
            let fate = if task.poison && !cfg.hg_rule {
                Fate::Hang // without the rule, poison inputs always hang
            } else {
                cfg.failures.fate(&format!("{}#{}", task.pair_key, task.activity_index), attempt)
            };
            let alive_vms = self.vms.iter().filter(|v| !v.released).count();
            let n_vms = self.vms.iter().filter(|v| v.busy > 0).count().max(1) as u32;
            let staging = cfg.sharedfs.transfer_time(task.in_bytes, n_vms)
                + cfg.sharedfs.transfer_time(task.out_bytes, n_vms)
                + cfg.master.distribution_latency(alive_vms);
            let compute = cluster.vm(vm_id).runtime_for(task.nominal_s);
            let duration = match fate {
                Fate::Ok => staging + compute,
                Fate::Fail => staging + compute * cfg.failures.fail_at_fraction,
                Fate::Hang => staging + HANG_TIMEOUT_FACTOR * compute,
            };
            self.report.staging_s += staging;
            self.report.busy_core_seconds += duration;
            let done_at = dispatch_at + duration;
            if tel.is_enabled() {
                // the full timing is known at dispatch: record the task's
                // span on its VM's trace lane at simulated timestamps, with
                // the shared-FS stage-in/out windows at its edges
                let lane = Some(cluster.track(vm_id));
                tel.record_span_at(
                    "sim.task",
                    self.tag(task.activity_index),
                    lane,
                    sim_ns(dispatch_at),
                    sim_ns(done_at),
                    Some(&format!("pair={} attempt={attempt} fate={fate:?}", task.pair_key)),
                );
                let stage_in = cfg.sharedfs.transfer_time(task.in_bytes, n_vms);
                if task.in_bytes > 0 {
                    tel.record_span_at(
                        "sim.sharedfs",
                        "stage_in",
                        lane,
                        sim_ns(dispatch_at),
                        sim_ns(dispatch_at + stage_in),
                        Some(&format!("bytes={}", task.in_bytes)),
                    );
                }
                if task.out_bytes > 0 && fate == Fate::Ok {
                    let stage_out = cfg.sharedfs.transfer_time(task.out_bytes, n_vms);
                    tel.record_span_at(
                        "sim.sharedfs",
                        "stage_out",
                        lane,
                        sim_ns(done_at - stage_out),
                        sim_ns(done_at),
                        Some(&format!("bytes={}", task.out_bytes)),
                    );
                }
                tel.gauge_at("sim.ready_queue", sim_ns(now), self.ready.len() as f64);
                tel.count("sim.dispatched", 1);
            }
            self.events.push(done_at, Event::TaskDone { task: ti, vm: vm_id, attempt, fate });
        }
    }

    /// Attempt `attempt` of task `ti` on `vm` ended now with `fate`.
    fn complete(&mut self, ti: usize, vm: VmId, attempt: u32, fate: Fate) {
        let v = &mut self.vms[vm.0];
        v.busy = v.busy.saturating_sub(1);
        self.in_flight = self.in_flight.saturating_sub(1);
        if v.draining {
            // no new work for a draining VM; retire it the moment its last
            // in-flight task lands
            if v.busy == 0 && !v.released {
                v.released = true;
                self.cluster.release(vm, self.now);
            }
        } else {
            self.free_slots.push(vm);
        }
        match fate {
            Fate::Ok => {
                self.record(ti, vm, ActivationStatus::Finished, attempt);
                self.report.finished += 1;
                self.emit(ti, attempt, Severity::Info, "activation_finished");
                for k in 0..self.successors[ti].len() {
                    let s = self.successors[ti][k];
                    if self.dropped[s] {
                        continue;
                    }
                    self.dep_count[s] -= 1;
                    if self.dep_count[s] == 0 {
                        self.admit(s);
                    }
                }
            }
            Fate::Fail => {
                self.record(ti, vm, ActivationStatus::Failed, attempt);
                self.report.failed_attempts += 1;
                // warn while the attempt will be retried, error once terminal
                let retried = attempt < self.cfg.max_retries;
                let severity = if retried { Severity::Warn } else { Severity::Error };
                self.emit(ti, attempt, severity, "activation_failed");
                if retried {
                    self.attempts[ti] = attempt + 1;
                    self.enqueue(ti);
                } else {
                    self.dropped[ti] = true;
                    self.cancel_downstream(ti);
                }
            }
            Fate::Hang => {
                self.record(ti, vm, ActivationStatus::Aborted, attempt);
                self.report.aborted += 1;
                self.emit(ti, attempt, Severity::Warn, "activation_aborted");
                self.dropped[ti] = true;
                self.cancel_downstream(ti);
            }
        }
    }

    /// The scheduler's view, shaped identically to the engine's: logical
    /// queue depths, provisioned fleet (booted + booting, minus draining),
    /// and per-worker slot capacity.
    fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            completions: 0, // the controller stamps its own count
            queued: self.ready.len(),
            in_flight: self.in_flight,
            fleet: self.vms.iter().filter(|v| v.serving()).count(),
            slots_per_worker: self.slots_per_worker,
            // the simulator has no wall-clock variance, so nothing straggles
            stragglers: 0,
        }
    }

    /// One scheduler tick: show the policy the fleet and apply its decision.
    /// `Grow` acquires VMs of the scale type; `Shrink` drains by the
    /// engine's rule ([`drain_targets`]) with a floor of one VM, and an idle
    /// VM it drains is released at once.
    fn rescale(&mut self) {
        let Some(mut ctrl) = self.controller.take() else { return };
        let decision = ctrl.evaluate(self.snapshot());
        self.controller = Some(ctrl);
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Grow(k) => {
                for _ in 0..k {
                    self.acquire(self.cfg.scale_itype);
                }
                self.report.peak_vms = self.report.peak_vms.max(self.vms.len());
                self.scale_event(format!("grow {k}"));
            }
            ScaleDecision::Shrink(k) => {
                if k > 0 {
                    self.scale_event(format!("drain {k}"));
                }
                let now = self.now;
                let serving = self.vms.iter().enumerate().filter(|(_, v)| v.serving());
                let booting = serving.clone().filter(|(_, v)| v.ready_at > now).count();
                let booted =
                    serving.filter(|(_, v)| v.ready_at <= now).map(|(i, v)| (i, v.busy > 0));
                for i in drain_targets(booted, booting, 1, k) {
                    let vm = &mut self.vms[i];
                    vm.draining = true;
                    self.free_slots.retain(|s| s.0 != i);
                    if vm.busy == 0 {
                        // idle: the drain completes immediately
                        vm.released = true;
                        self.cluster.release(VmId(i), now);
                    }
                }
            }
        }
    }

    /// A scale decision's event, naming the fleet it leaves.
    fn scale_event(&self, decision: String) {
        if let Some(ev) = &self.cfg.events {
            let fleet = self.vms.iter().filter(|v| !v.released).count().to_string();
            ev.emit(
                self.now,
                Severity::Info,
                "fleet_scale",
                &[("decision", decision), ("fleet", fleet)],
            );
        }
    }

    fn tag(&self, activity: usize) -> &str {
        self.wf.activities.get(activity).map_or("task", String::as_str)
    }

    /// The lifecycle event of attempt `attempt` of task `ti`.
    fn emit(&self, ti: usize, attempt: u32, severity: Severity, kind: &str) {
        if let Some(ev) = &self.cfg.events {
            let task = &self.wf.tasks[ti];
            let fields = [
                ("activity", self.tag(task.activity_index).to_string()),
                ("key", task.pair_key.clone()),
                ("attempt", attempt.to_string()),
            ];
            ev.emit(self.now, severity, kind, &fields);
        }
    }

    /// Blacklist task `i` now: its event and its `BLACKLISTED` row.
    fn blacklist(&self, i: usize) {
        let task = &self.wf.tasks[i];
        if let Some(ev) = &self.cfg.events {
            let fields = [
                ("activity", self.tag(task.activity_index).to_string()),
                ("key", task.pair_key.clone()),
            ];
            ev.emit(self.now, Severity::Error, "activation_blacklisted", &fields);
        }
        if let Some(p) = self.prov {
            p.record_activation(&self.row(i, ActivationStatus::Blacklisted, self.now, None, 0));
        }
    }

    /// The terminal row of attempt `attempt` of task `ti` on `vm`, ending
    /// now. A `FINISHED` row is committed in one record with the output
    /// file the shared FS staged out (what Query 2 and the data-volume
    /// bookkeeping read), as the engine's lifecycle commits an activation.
    fn record(&self, ti: usize, vm: VmId, status: ActivationStatus, attempt: u32) {
        let Some(p) = self.prov else { return };
        let task = &self.wf.tasks[ti];
        // a finished attempt spans its nominal runtime, any other one second
        let span = if status == ActivationStatus::Finished { task.nominal_s } else { 1.0 };
        let rec =
            self.row(ti, status, self.now - span.min(self.now), self.vms[vm.0].machine, attempt);
        if status != ActivationStatus::Finished {
            p.record_activation(&rec);
            return;
        }
        let tag = self.tag(task.activity_index);
        let ext = if tag.contains("dock") { "dlg" } else { "out" };
        let fname = format!("{}.{ext}", task.pair_key.replace(':', "_"));
        let fdir = format!("/root/exp_SciDock/{tag}/");
        p.commit_activation(None, &rec, &[(&fname, task.out_bytes as i64, &fdir)], &[], &[]);
    }

    fn row(
        &self,
        ti: usize,
        status: ActivationStatus,
        start_time: f64,
        machine: Option<MachineId>,
        attempt: u32,
    ) -> ActivationRecord {
        let task = &self.wf.tasks[ti];
        ActivationRecord {
            activity: *self.act_ids.get(task.activity_index).expect("registered activity"),
            workflow: self.report.workflow.expect("workflow registered"),
            status,
            start_time,
            end_time: self.now,
            machine,
            retries: attempt as i64,
            pair_key: task.pair_key.clone(),
        }
    }

    fn finish(mut self) -> SimReport {
        let r = &mut self.report;
        r.cost_usd = self.cluster.total_cost(r.tet_s);
        r.final_cores = self.cluster.cores_at(r.tet_s);
        r.peak_vms = r.peak_vms.max(self.cluster.vms().len());
        r.metrics = self.cfg.telemetry.snapshot();
        if let Some(ctrl) = self.controller {
            r.scale_events = ctrl.into_trace();
        }
        if let Some(ev) = &self.cfg.events {
            // every task an upstream drop did not cancel ended once
            let activations = self.wf.tasks.len() - r.cancelled;
            let mut fields = campaign_fields();
            fields.push(("activations", activations.to_string()));
            ev.emit(r.tet_s, Severity::Info, "campaign_finished", &fields);
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    /// `pairs` chains of `acts` activities, each activation `nominal_s`.
    fn chain_tasks(pairs: usize, acts: usize, nominal_s: f64) -> SimWorkflow {
        let mut tasks = Vec::new();
        for p in 0..pairs {
            for a in 0..acts {
                let deps = if a == 0 { vec![] } else { vec![p * acts + a - 1] };
                tasks.push(SimTask {
                    activity_index: a,
                    pair_key: format!("pair{p}"),
                    nominal_s,
                    in_bytes: 0,
                    out_bytes: 0,
                    deps,
                    poison: false,
                });
            }
        }
        let activities = (0..acts).map(|i| format!("act{i}")).collect();
        SimWorkflow { tag: "SciDock".into(), activities, tasks }
    }

    fn base_cfg(cores: u32) -> SimConfig {
        SimConfig {
            fleet: cloudsim::fleet_for_cores(cores),
            noise: NoiseModel { amplitude: 0.0 },
            sharedfs: SharedFsModel { latency_s: 0.0, bandwidth_bps: 1e12, contention: 0.0 },
            master: MasterCostModel { c0: 0.0, c1: 0.0, window: 1, latency_per_vm: 0.0 },
            ..Default::default()
        }
    }

    #[test]
    fn all_tasks_finish() {
        let tasks = chain_tasks(10, 3, 5.0);
        let r = simulate_tasks(&tasks, &base_cfg(8), None);
        assert_eq!(r.finished, 30);
        assert_eq!(r.failed_attempts, 0);
        assert_eq!(r.cancelled, 0);
        assert!(r.tet_s > 0.0);
    }

    #[test]
    fn ideal_speedup_without_overheads() {
        // 64 independent 10 s tasks: 4 cores → ~160 s + boot; 16 cores → ~40 s + boot
        let tasks = chain_tasks(64, 1, 10.0);
        let t4 = simulate_tasks(&tasks, &base_cfg(4), None).tet_s;
        let t16 = simulate_tasks(&tasks, &base_cfg(16), None).tet_s;
        let boot = cloudsim::M3_2XLARGE.boot_seconds.max(cloudsim::M3_XLARGE.boot_seconds);
        let s = (t4 - boot) / (t16 - boot);
        assert!(
            (3.0..5.0).contains(&s),
            "speedup 4→16 cores should be ~4, got {s} ({t4} vs {t16})"
        );
    }

    #[test]
    fn chains_respect_dependencies() {
        // 1 pair, 5 sequential 10 s activities on plenty of cores: TET ≈ 50 s
        // + boot — dependencies force serialization
        let tasks = chain_tasks(1, 5, 10.0);
        let r = simulate_tasks(&tasks, &base_cfg(16), None);
        // the chain can start no earlier than the fastest-booting VM type
        let boot = cloudsim::M3_XLARGE.boot_seconds.min(cloudsim::M3_2XLARGE.boot_seconds);
        assert!(r.tet_s >= boot + 50.0 - 1e-6, "TET {} must serialize the chain", r.tet_s);
    }

    /// A started pair's next activation goes before a new pair's first, even
    /// when the new pair's first is the heavier task.
    #[test]
    fn a_started_chain_runs_before_a_new_one() {
        let mut tasks = chain_tasks(2, 2, 1.0);
        tasks.tasks[0].nominal_s = 20.0; // A's source, first either way
        tasks.tasks[1].nominal_s = 2.0; // A's second task
        tasks.tasks[2].nominal_s = 10.0; // B's source
        let events = EventLog::new();
        let cfg = SimConfig {
            fleet: vec![&cloudsim::M1_SMALL],
            events: Some(events.clone()),
            ..base_cfg(1)
        };
        assert_eq!(simulate_tasks(&tasks, &cfg, None).finished, 4);
        // one slot: tasks finish in the order they start
        let order: Vec<String> = events
            .events()
            .iter()
            .filter(|e| e.kind == "activation_finished")
            .map(|e| {
                let field = |k: &str| e.fields.iter().find(|f| f.0 == k).unwrap().1.clone();
                format!("{}/{}", field("key"), field("activity"))
            })
            .collect();
        assert_eq!(order, ["pair0/act0", "pair0/act1", "pair1/act0", "pair1/act1"]);
    }

    #[test]
    fn failures_retried_and_counted() {
        let mut cfg = base_cfg(8);
        cfg.failures =
            FailureModel { fail_rate: 0.25, hang_rate: 0.0, fail_at_fraction: 0.5, seed: 3 };
        cfg.max_retries = 10;
        let tasks = chain_tasks(40, 2, 5.0);
        let r = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.finished, 80, "with retries everything finishes");
        assert!(r.failed_attempts > 5);
        // failures cost extra wall-clock vs a failure-free run
        let clean = simulate_tasks(&tasks, &base_cfg(8), None);
        assert!(r.tet_s > clean.tet_s);
    }

    #[test]
    fn hangs_abort_and_cancel_downstream() {
        let mut cfg = base_cfg(8);
        cfg.failures =
            FailureModel { fail_rate: 0.0, hang_rate: 0.9, fail_at_fraction: 0.5, seed: 1 };
        let tasks = chain_tasks(20, 3, 2.0);
        let r = simulate_tasks(&tasks, &cfg, None);
        assert!(r.aborted > 10, "most first activations hang");
        assert!(r.cancelled > 10, "downstream activations get cancelled");
        assert_eq!(r.finished + r.aborted + r.cancelled + r.failed_attempts, 60);
    }

    #[test]
    fn poison_blacklisted_with_rule() {
        let mut tasks = chain_tasks(10, 2, 2.0);
        for p in 0..3 {
            tasks.tasks[p * 2].poison = true;
        }
        let mut cfg = base_cfg(4);
        cfg.hg_rule = true;
        let r = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.blacklisted, 3);
        assert_eq!(r.cancelled, 3, "their second activations are cancelled");
        assert_eq!(r.finished, 14);
    }

    #[test]
    fn poison_hangs_without_rule() {
        let mut tasks = chain_tasks(10, 2, 2.0);
        tasks.tasks[0].poison = true;
        let mut cfg = base_cfg(4);
        cfg.hg_rule = false;
        let r = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.blacklisted, 0);
        assert_eq!(r.aborted, 1);
        // the hang burned HANG_TIMEOUT_FACTOR × the nominal runtime
        let clean = simulate_tasks(
            &chain_tasks(10, 2, 2.0),
            &{
                let mut c = base_cfg(4);
                c.hg_rule = false;
                c
            },
            None,
        );
        assert!(r.busy_core_seconds > clean.busy_core_seconds);
    }

    #[test]
    fn master_overhead_slows_large_fleets() {
        let tasks = chain_tasks(400, 1, 5.0);
        let mut cheap = base_cfg(32);
        cheap.master = MasterCostModel { c0: 0.0, c1: 0.0, window: 1, latency_per_vm: 0.0 };
        let mut costly = base_cfg(32);
        costly.master = MasterCostModel { c0: 0.05, c1: 1e-4, window: 512, latency_per_vm: 0.0 };
        let fast = simulate_tasks(&tasks, &cheap, None);
        let slow = simulate_tasks(&tasks, &costly, None);
        assert!(slow.tet_s > fast.tet_s, "{} vs {}", slow.tet_s, fast.tet_s);
        assert!(slow.master_overhead_s > 0.0);
        assert_eq!(fast.master_overhead_s, 0.0);
    }

    #[test]
    fn provenance_recorded_with_simulated_times() {
        let prov = ProvenanceStore::new();
        let mut tasks = chain_tasks(5, 2, 3.0);
        tasks.activities = vec!["prep".into(), "dock".into()];
        let cfg = base_cfg(4);
        let r = simulate_tasks(&tasks, &cfg, Some(&prov));
        assert_eq!(r.finished, 10);
        let q = prov
            .query_rows(
                "SELECT a.tag, count(*) FROM hactivity a, hactivation t \
                 WHERE a.actid = t.actid GROUP BY a.tag ORDER BY a.tag",
                &[],
            )
            .unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.cell(0, 1), &provenance::Value::Int(5));
        // durations queryable via extract(epoch …)
        let d = prov
            .query_rows(
                "SELECT max(extract('epoch' from (endtime - starttime))) FROM hactivation",
                &[],
            )
            .unwrap();
        assert!(d.cell(0, 0).as_f64().unwrap() > 0.0);
    }

    /// A crash at any WAL append of a simulated run keeps the store's write
    /// unit: every `FINISHED` row it recovers has its output file.
    #[test]
    fn a_crash_at_any_append_leaves_no_finished_row_without_its_file() {
        use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};
        use std::collections::BTreeSet;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut tasks = chain_tasks(4, 2, 3.0);
        for t in &mut tasks.tasks {
            t.out_bytes = 1_000;
        }
        tasks.activities = vec!["prep".into(), "dock".into()];
        let mut cfg = base_cfg(4);
        cfg.failures =
            FailureModel { fail_rate: 0.3, hang_rate: 0.0, fail_at_fraction: 0.5, seed: 5 };
        let open = |plan: &Arc<FaultPlan>, env: &MemEnv| {
            let fault = FaultEnv::new(Box::new(env.clone()), Arc::clone(plan));
            ProvenanceStore::open_env(Box::new(fault), Default::default()).unwrap()
        };
        let whole = Arc::new(FaultPlan::default());
        let prov = open(&whole, &MemEnv::new());
        assert_eq!(simulate_tasks(&tasks, &cfg, Some(&prov)).finished, 8);
        let appends = whole.appends_seen();

        let taskids = |prov: &ProvenanceStore, sql: &str| -> BTreeSet<String> {
            let rows = prov.query_rows(sql, &[]).unwrap().rows;
            rows.iter().map(|r| r[0].to_string()).collect()
        };
        // the first append opens the store
        for k in 2..=appends {
            let env = MemEnv::new();
            let prov = open(&Arc::new(FaultPlan::panic_after(k)), &env);
            let crashed =
                catch_unwind(AssertUnwindSafe(|| simulate_tasks(&tasks, &cfg, Some(&prov))));
            assert!(crashed.is_err(), "append {k} of {appends}: the crash must kill the run");
            // a killed process runs no destructors
            std::mem::forget(prov);

            let prov = ProvenanceStore::open_env(Box::new(env), Default::default()).unwrap();
            let finished =
                taskids(&prov, "SELECT taskid FROM hactivation WHERE status = 'FINISHED'");
            let filed = taskids(&prov, "SELECT taskid FROM hfile");
            let bare: Vec<_> = finished.difference(&filed).collect();
            assert!(bare.is_empty(), "append {k}: FINISHED without its file: {bare:?}");
        }
    }

    #[test]
    fn elasticity_grows_fleet_under_backlog() {
        use crate::fleet::{QueueDepthConfig, QueueDepthScheduler};
        let tasks = chain_tasks(3000, 1, 10.0);
        let cfg = SimConfig {
            scheduler: Some(SchedulerFactory::new(|| {
                Box::new(QueueDepthScheduler::new(QueueDepthConfig {
                    max_workers: 8,
                    ..QueueDepthConfig::default()
                }))
            })),
            ..base_cfg(4)
        };
        let r = simulate_tasks(&tasks, &cfg, None);
        assert!(r.peak_vms > cfg.fleet.len(), "fleet should grow, peak {}", r.peak_vms);
        // grown fleet must beat the fixed one
        let fixed = simulate_tasks(&tasks, &base_cfg(4), None);
        assert!(r.tet_s < fixed.tet_s);
    }

    #[test]
    fn fleet_policy_drives_simulated_scaling() {
        use crate::fleet::{QueueDepthConfig, QueueDepthScheduler};
        let tasks = chain_tasks(10, 1, 5.0);
        let cfg = SimConfig {
            fleet: vec![&cloudsim::M1_SMALL],
            scale_itype: &cloudsim::M1_SMALL,
            scheduler: Some(SchedulerFactory::new(|| {
                Box::new(QueueDepthScheduler::new(QueueDepthConfig {
                    max_workers: 3,
                    ..QueueDepthConfig::default()
                }))
            })),
            noise: NoiseModel { amplitude: 0.0 },
            sharedfs: SharedFsModel { latency_s: 0.0, bandwidth_bps: 1e12, contention: 0.0 },
            master: MasterCostModel { c0: 0.0, c1: 0.0, window: 1, latency_per_vm: 0.0 },
            ..Default::default()
        };
        let r = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.finished, 10);
        assert_eq!(r.peak_vms, 3, "the policy grew to its cap");
        use crate::fleet::ScaleDecision::{Grow, Shrink};
        let got: Vec<_> = r
            .scale_events
            .iter()
            .map(|e| (e.completions, e.fleet, e.outstanding, e.decision))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 1, 10, Grow(1)),
                (2, 2, 8, Grow(1)),
                (8, 3, 2, Shrink(1)),
                (10, 2, 0, Shrink(1))
            ],
            "queue-depth decisions over a 10-task flat backlog"
        );
        // determinism: the same config reproduces the same trace
        let again = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.scale_events, again.scale_events);
        assert_eq!(r.tet_s, again.tet_s);
    }

    #[test]
    fn deterministic_given_seed() {
        let tasks = chain_tasks(50, 2, 4.0);
        let mut cfg = base_cfg(8);
        cfg.noise = NoiseModel { amplitude: 0.1 };
        cfg.failures =
            FailureModel { fail_rate: 0.1, hang_rate: 0.01, fail_at_fraction: 0.5, seed: 7 };
        let a = simulate_tasks(&tasks, &cfg, None);
        let b = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(a.tet_s, b.tet_s);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.failed_attempts, b.failed_attempts);
        assert_eq!(a.cost_usd, b.cost_usd);
    }

    #[test]
    fn cost_scales_with_fleet() {
        let tasks = chain_tasks(100, 1, 10.0);
        let small = simulate_tasks(&tasks, &base_cfg(4), None);
        let big = simulate_tasks(&tasks, &base_cfg(64), None);
        assert!(big.cost_usd > small.cost_usd, "{} vs {}", big.cost_usd, small.cost_usd);
    }

    #[test]
    #[should_panic(expected = "fleet must contain")]
    fn empty_fleet_panics() {
        let cfg = SimConfig { fleet: vec![], ..Default::default() };
        simulate_tasks(&SimWorkflow::default(), &cfg, None);
    }

    #[test]
    fn telemetry_records_simulated_timeline() {
        let tel = Telemetry::attached();
        let mut cfg = base_cfg(4);
        cfg.sharedfs = SharedFsModel { latency_s: 0.05, bandwidth_bps: 1e6, contention: 0.0 };
        cfg.telemetry = tel.clone();
        let mut tasks = chain_tasks(6, 2, 3.0);
        for t in &mut tasks.tasks {
            t.in_bytes = 500_000;
            t.out_bytes = 250_000;
        }
        let r = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.finished, 12);

        let snap = r.metrics.expect("sink attached => metrics present");
        assert_eq!(snap.counter("sim.dispatched"), Some(12));
        assert!(snap.counter("sim.events").unwrap() >= 12, "every DES event counted");
        assert!(snap.counter("sim.vm_acquired").unwrap() >= 1);
        let vm_lane = snap.tracks.iter().find(|t| t.name.starts_with("vm-0")).expect("vm lane");
        assert!(vm_lane.spans >= 2, "boot + task spans on the VM lane");
        // records carry *simulated* timestamps, so the snapshot's wall clock
        // tracks the TET, not the microseconds the simulation took for real
        assert!(
            snap.wall_s >= r.tet_s * 0.9,
            "snapshot wall {} vs simulated TET {}",
            snap.wall_s,
            r.tet_s
        );
        assert!(!snap.gauges.is_empty(), "ready-queue depth series present");

        let trace = tel.export_chrome_trace().unwrap();
        telemetry::json::validate(&trace)
            .unwrap_or_else(|off| panic!("invalid trace JSON at byte {off}"));
        assert!(trace.contains("stage_in") && trace.contains("stage_out"));
        assert!(trace.contains("\"cat\":\"sim.task\""));
    }
}
