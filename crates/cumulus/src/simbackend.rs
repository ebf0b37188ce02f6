//! The simulated execution backend: a discrete-event simulation of
//! SciCumulus running an activation DAG on an elastic EC2 fleet.
//!
//! This backend produces the paper's cloud-scale numbers (Figures 7–9):
//! Total Execution Time, speedup, and efficiency at 2–128 virtual cores,
//! including the effects the paper discusses — VM heterogeneity and
//! virtualization noise, shared-filesystem staging, ~10% activation
//! failures with re-execution, hang detection, poison-input blacklisting,
//! serialized master dispatch whose planning cost grows with queue × VMs,
//! and an elastic fleet under a [`crate::fleet::Scheduler`] policy.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use cloudsim::{
    sim_ns, Cluster, EventQueue, FailureModel, Fate, InstanceType, NoiseModel, SharedFsModel,
    SimTime, VmId,
};
use provenance::{
    ActivationRecord, ActivationStatus, ActivityId, MachineId, ProvenanceStore, WorkflowId,
};
use telemetry::{MetricsSnapshot, Telemetry};

use crate::fleet::{FleetController, FleetSnapshot, ScaleDecision, ScaleEvent, SchedulerFactory};
use crate::obs::{EventLog, Severity};
use crate::sched::{MasterCostModel, Policy, ReadyQueue, ReadyTask};

/// One activation to simulate.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Position of this task's activity in the workflow (indexes
    /// [`SimConfig`]-registered activity tags).
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

/// Simulation configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`SimConfig::new`] (or
/// `Default`) and the `with_*` builder methods rather than a struct
/// literal, so new knobs can be added without breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
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
    /// A hanging activation is aborted after `hang_timeout_factor ×
    /// nominal_s` (the engine's hang detector).
    pub hang_timeout_factor: f64,
    /// Shared-filesystem model.
    pub sharedfs: SharedFsModel,
    /// Scheduling policy.
    pub policy: Policy,
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
    /// Workflow tag recorded in provenance.
    pub workflow_tag: String,
    /// Activity tags by `activity_index`.
    pub activity_tags: Vec<String>,
    /// Scheduling weights per `activity_index` mined from a prior run's
    /// provenance (see [`crate::sched::activity_profiles`]). `None` = the
    /// scheduler sees each task's true nominal cost (oracle weights).
    pub weight_profile: Option<Vec<f64>>,
    /// Telemetry sink. Spans are recorded at *simulated* timestamps, one
    /// trace lane per VM, so a Chrome trace of a simulated run lays out like
    /// a real one.
    pub telemetry: Telemetry,
    /// Structured event log. Events are emitted at *simulated* timestamps
    /// with the same kinds and lifecycle ordering as the real backends, so a
    /// sim mirror of a run produces the same event sequence (modulo
    /// timestamps and resource names — see
    /// [`crate::obs::ObsEvent::parity_signature`]).
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
            hang_timeout_factor: 10.0,
            sharedfs: SharedFsModel::default(),
            policy: Policy::GreedyWeighted,
            master: MasterCostModel::default(),
            scheduler: None,
            scale_itype: &cloudsim::M3_XLARGE,
            hg_rule: true,
            workflow_tag: "SciDock".to_string(),
            activity_tags: Vec::new(),
            weight_profile: None,
            telemetry: Telemetry::disabled(),
            events: None,
        }
    }
}

impl SimConfig {
    /// The default configuration (one m3.xlarge, greedy-weighted policy,
    /// no failure injection, Hg rule on, telemetry disabled).
    pub fn new() -> SimConfig {
        SimConfig::default()
    }

    /// Set the master seed for every stochastic component.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Set the initial fleet.
    pub fn with_fleet(mut self, fleet: Vec<&'static InstanceType>) -> SimConfig {
        self.fleet = fleet;
        self
    }

    /// Set the VM performance-noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> SimConfig {
        self.noise = noise;
        self
    }

    /// Set the failure-injection model.
    pub fn with_failures(mut self, failures: FailureModel) -> SimConfig {
        self.failures = failures;
        self
    }

    /// Set the per-activation retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> SimConfig {
        self.max_retries = max_retries;
        self
    }

    /// Set the hang-detector timeout factor.
    pub fn with_hang_timeout_factor(mut self, factor: f64) -> SimConfig {
        self.hang_timeout_factor = factor;
        self
    }

    /// Set the shared-filesystem model.
    pub fn with_sharedfs(mut self, sharedfs: SharedFsModel) -> SimConfig {
        self.sharedfs = sharedfs;
        self
    }

    /// Set the scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> SimConfig {
        self.policy = policy;
        self
    }

    /// Set the master dispatch cost model.
    pub fn with_master(mut self, master: MasterCostModel) -> SimConfig {
        self.master = master;
        self
    }

    /// Drive the fleet elastically with a [`SchedulerFactory`] — the same
    /// policy object the distributed backend accepts.
    pub fn with_scheduler(mut self, factory: SchedulerFactory) -> SimConfig {
        self.scheduler = Some(factory);
        self
    }

    /// Set the instance type acquired on `Grow` decisions.
    pub fn with_scale_instance(mut self, itype: &'static InstanceType) -> SimConfig {
        self.scale_itype = itype;
        self
    }

    /// Install (or remove) the provenance-driven Hg blacklist rule.
    pub fn with_hg_rule(mut self, on: bool) -> SimConfig {
        self.hg_rule = on;
        self
    }

    /// Set the workflow tag recorded in provenance.
    pub fn with_workflow_tag(mut self, tag: impl Into<String>) -> SimConfig {
        self.workflow_tag = tag.into();
        self
    }

    /// Set the activity tags by `activity_index`.
    pub fn with_activity_tags(mut self, tags: Vec<String>) -> SimConfig {
        self.activity_tags = tags;
        self
    }

    /// Feed the scheduler per-activity weights mined from a prior run.
    pub fn with_weight_profile(mut self, profile: Vec<f64>) -> SimConfig {
        self.weight_profile = Some(profile);
        self
    }

    /// Attach a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> SimConfig {
        self.telemetry = telemetry;
        self
    }

    /// Attach a structured event log (events carry simulated timestamps).
    pub fn with_events(mut self, events: EventLog) -> SimConfig {
        self.events = Some(events);
        self
    }
}

/// Simulation outcome.
#[derive(Debug, Clone)]
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

/// Run the discrete-event simulation over a raw [`SimTask`] DAG. When
/// `prov` is given, every activation is recorded with its simulated
/// timestamps, so the paper's provenance queries run against simulated
/// executions too.
///
/// This is the engine behind [`crate::backend::SimBackend`]; it stays public
/// because task-level cost-model sweeps (the paper's scaling studies) have
/// no workflow definition to hand to the `Backend` trait.
pub fn simulate_tasks(
    tasks: &[SimTask],
    cfg: &SimConfig,
    prov: Option<&ProvenanceStore>,
) -> SimReport {
    assert!(!cfg.fleet.is_empty(), "fleet must contain at least one VM");
    let n = tasks.len();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5C4E_D01E);

    // provenance registration
    let (wkf, act_ids): (Option<_>, Vec<Option<ActivityId>>) = match prov {
        Some(p) => {
            let w = p.begin_workflow(&cfg.workflow_tag, "simulated run", "/root/scidock/");
            let ids =
                cfg.activity_tags.iter().map(|t| Some(p.register_activity(w, t, "Map"))).collect();
            (Some(w), ids)
        }
        None => (None, vec![None; cfg.activity_tags.len().max(1)]),
    };
    let act_id = |i: usize| -> Option<ActivityId> { act_ids.get(i).copied().flatten() };

    // structured events, mirroring the distributed master's lifecycle
    // emissions at simulated timestamps
    let evlog = cfg.events.clone();
    let tag_of =
        |i: usize| -> String { cfg.activity_tags.get(i).cloned().unwrap_or_else(|| "task".into()) };
    if let Some(ev) = &evlog {
        ev.emit(
            0.0,
            Severity::Info,
            "run_started",
            &[
                ("workflow", cfg.workflow_tag.clone()),
                ("backend", "sim".to_string()),
                ("workers", cfg.fleet.len().to_string()),
            ],
        );
    }

    // dependency bookkeeping
    let mut dep_count: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            assert!(d < n, "task {i} depends on out-of-range {d}");
            successors[d].push(i);
        }
    }
    let mut attempts = vec![0u32; n];
    let mut dropped = vec![false; n];

    // cluster + slots
    let tel = &cfg.telemetry;
    let mut cluster = Cluster::with_telemetry(cfg.seed, cfg.noise, tel.clone());
    let mut events: EventQueue<Event> = EventQueue::new();
    let mut free_slots: Vec<VmId> = Vec::new();
    let mut vm_busy: Vec<u32> = Vec::new();
    let mut vm_machine: Vec<Option<MachineId>> = Vec::new();
    let mut released: Vec<bool> = Vec::new();
    // fleet policy asked this VM to retire: no new tasks; released the
    // moment its last in-flight task completes (drain-then-retire)
    let mut draining: Vec<bool> = Vec::new();

    let acquire =
        |itype: &'static InstanceType,
         t: SimTime,
         cluster: &mut Cluster,
         events: &mut EventQueue<Event>,
         vm_busy: &mut Vec<u32>,
         vm_machine: &mut Vec<Option<MachineId>>,
         released: &mut Vec<bool>,
         draining: &mut Vec<bool>| {
            let id = cluster.acquire(itype, t);
            events.push(cluster.vm(id).ready_at, Event::VmReady(id));
            vm_busy.push(0);
            released.push(false);
            draining.push(false);
            vm_machine.push(prov.map(|p| {
                p.register_machine(&format!("vm-{}", id.0), itype.name, itype.cores as i64)
            }));
        };
    for itype in &cfg.fleet {
        acquire(
            itype,
            0.0,
            &mut cluster,
            &mut events,
            &mut vm_busy,
            &mut vm_machine,
            &mut released,
            &mut draining,
        );
    }

    // fleet-policy state, mirroring the distributed master: the controller
    // owns the completion counter, the snapshot carries logical quantities
    // only, so the decision trace is reproducible across substrates
    let mut controller = cfg.scheduler.as_ref().map(FleetController::new);
    let mut sim_in_flight: usize = 0;
    let n_acts = tasks
        .iter()
        .map(|t| t.activity_index + 1)
        .max()
        .unwrap_or(1)
        .max(cfg.activity_tags.len().max(1));
    let mut ready_by_activity = vec![0usize; n_acts];
    let slots_per_worker = cfg.fleet.iter().map(|f| f.cores as usize).max().unwrap_or(1);
    // a scale decision's event, naming the fleet it leaves
    let scale_event = |now, decision: String, released: &[bool]| {
        if let Some(ev) = &evlog {
            let fleet = released.iter().filter(|r| !**r).count().to_string();
            ev.emit(
                now,
                Severity::Info,
                "fleet_scale",
                &[("decision", decision), ("fleet", fleet)],
            );
        }
    };
    let apply_scale = |decision: ScaleDecision,
                       now: SimTime,
                       cluster: &mut Cluster,
                       events: &mut EventQueue<Event>,
                       vm_busy: &mut Vec<u32>,
                       vm_machine: &mut Vec<Option<MachineId>>,
                       released: &mut Vec<bool>,
                       draining: &mut Vec<bool>,
                       free_slots: &mut Vec<VmId>,
                       report: &mut SimReport| {
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Grow(k) => {
                for _ in 0..k {
                    acquire(
                        cfg.scale_itype,
                        now,
                        cluster,
                        events,
                        vm_busy,
                        vm_machine,
                        released,
                        draining,
                    );
                }
                report.peak_vms = report.peak_vms.max(vm_busy.len());
                scale_event(now, format!("grow {k}"), released);
            }
            ScaleDecision::Shrink(k) => {
                if k > 0 {
                    scale_event(now, format!("drain {k}"), released);
                }
                // booted VMs, idle first, lowest id first; whatever the
                // policy asked for, at least one VM keeps serving
                let mut targets: Vec<usize> = (0..released.len())
                    .filter(|&v| {
                        !released[v] && !draining[v] && cluster.vm(VmId(v)).ready_at <= now
                    })
                    .collect();
                targets.sort_by_key(|&v| (vm_busy[v] > 0, v));
                let booting = (0..released.len())
                    .filter(|&v| !released[v] && !draining[v] && cluster.vm(VmId(v)).ready_at > now)
                    .count();
                let k = k.min((targets.len() + booting).saturating_sub(1));
                for &v in targets.iter().take(k) {
                    draining[v] = true;
                    free_slots.retain(|s| s.0 != v);
                    if vm_busy[v] == 0 {
                        // idle: the drain completes immediately
                        released[v] = true;
                        cluster.release(VmId(v), now);
                    }
                }
            }
        }
    };

    let mut report = SimReport {
        workflow: wkf,
        tet_s: 0.0,
        finished: 0,
        failed_attempts: 0,
        aborted: 0,
        blacklisted: 0,
        cancelled: 0,
        busy_core_seconds: 0.0,
        master_overhead_s: 0.0,
        staging_s: 0.0,
        cost_usd: 0.0,
        peak_vms: cfg.fleet.len(),
        final_cores: 0,
        metrics: None,
        scale_events: Vec::new(),
    };

    let mut ready = ReadyQueue::new(cfg.policy);
    // scheduling weight: profiled per-activity mean if available, else the
    // task's true nominal cost
    let weight_of = |t: &SimTask| -> f64 {
        cfg.weight_profile
            .as_ref()
            .and_then(|p| p.get(t.activity_index))
            .copied()
            .unwrap_or(t.nominal_s)
    };
    // cancel a task and everything downstream of it
    let cancel_downstream = |start: usize,
                             dropped: &mut Vec<bool>,
                             report: &mut SimReport,
                             successors: &Vec<Vec<usize>>| {
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &s in &successors[u] {
                if !dropped[s] {
                    dropped[s] = true;
                    report.cancelled += 1;
                    stack.push(s);
                }
            }
        }
    };

    // seed ready queue; handle blacklisted roots
    for (i, t) in tasks.iter().enumerate() {
        if dep_count[i] != 0 {
            continue;
        }
        if t.poison && cfg.hg_rule {
            // provenance-driven rule fires before execution
            let act = (wkf, act_id(t.activity_index), tag_of(t.activity_index));
            blacklist(prov, evlog.as_ref(), act, t, 0.0);
            report.blacklisted += 1;
            dropped[i] = true;
            cancel_downstream(i, &mut dropped, &mut report, &successors);
        } else {
            ready_by_activity[t.activity_index] += 1;
            ready.push(ReadyTask { task: i, weight: weight_of(t) });
        }
    }

    let mut master_free: SimTime = 0.0;
    let mut now: SimTime = 0.0;

    // the policy's first look: the whole seeded backlog, before any
    // dispatch — the distributed master evaluates at the same instant
    if let Some(ctrl) = controller.as_mut() {
        let decision = ctrl.evaluate(sim_snapshot(
            ready.len(),
            &ready_by_activity,
            sim_in_flight,
            &released,
            &draining,
            &vm_busy,
            &cluster,
            now,
            slots_per_worker,
        ));
        apply_scale(
            decision,
            now,
            &mut cluster,
            &mut events,
            &mut vm_busy,
            &mut vm_machine,
            &mut released,
            &mut draining,
            &mut free_slots,
            &mut report,
        );
    }

    loop {
        // dispatch as long as both a free slot and a ready task exist
        loop {
            if ready.is_empty() || free_slots.is_empty() {
                break;
            }
            let total_cores = cluster.cores_at(now).max(
                cfg.fleet.iter().map(|f| f.cores).sum(), // before boot completes
            );
            let overhead = cfg.master.dispatch_overhead(ready.len(), total_cores);
            let master_start = master_free.max(now);
            let dispatch_at = master_start + overhead;
            master_free = dispatch_at;
            report.master_overhead_s += overhead;

            let rt = ready.pop(&mut rng).expect("non-empty");
            let task = &tasks[rt.task];
            ready_by_activity[task.activity_index] =
                ready_by_activity[task.activity_index].saturating_sub(1);
            sim_in_flight += 1;
            // slot choice: greedy takes the fastest VM, others take the last
            let slot_idx = match cfg.policy {
                Policy::GreedyWeighted => free_slots
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        cluster.vm(**a).core_speed().total_cmp(&cluster.vm(**b).core_speed())
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty"),
                _ => free_slots.len() - 1,
            };
            let vm_id = free_slots.swap_remove(slot_idx);
            vm_busy[vm_id.0] += 1;

            let attempt = attempts[rt.task];
            let fate = if task.poison && !cfg.hg_rule {
                Fate::Hang // without the rule, poison inputs always hang
            } else {
                cfg.failures.fate(&format!("{}#{}", task.pair_key, task.activity_index), attempt)
            };
            let vm = cluster.vm(vm_id);
            let alive_vms = released.iter().filter(|r| !**r).count();
            let n_vms = vm_busy.iter().filter(|&&b| b > 0).count().max(1) as u32;
            let staging = cfg.sharedfs.transfer_time(task.in_bytes, n_vms)
                + cfg.sharedfs.transfer_time(task.out_bytes, n_vms)
                + cfg.master.distribution_latency(alive_vms);
            let compute = vm.runtime_for(task.nominal_s);
            let duration = match fate {
                Fate::Ok => staging + compute,
                Fate::Fail => staging + compute * cfg.failures.fail_at_fraction,
                Fate::Hang => staging + cfg.hang_timeout_factor * compute,
            };
            report.staging_s += staging;
            report.busy_core_seconds += duration;
            let done_at = dispatch_at + duration;
            if tel.is_enabled() {
                // the full timing is known at dispatch: record the task's
                // span on its VM's trace lane at simulated timestamps, with
                // the shared-FS stage-in/out windows at its edges
                let lane = Some(cluster.track(vm_id));
                let tag = cfg
                    .activity_tags
                    .get(task.activity_index)
                    .map(|s| s.as_str())
                    .unwrap_or("task");
                tel.record_span_at(
                    "sim.task",
                    tag,
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
                tel.gauge_at("sim.ready_queue", sim_ns(now), ready.len() as f64);
                tel.count("sim.dispatched", 1);
            }
            events.push(done_at, Event::TaskDone { task: rt.task, vm: vm_id, attempt, fate });
        }

        let Some((t, ev)) = events.pop() else { break };
        tel.count("sim.events", 1);
        now = t;
        report.tet_s = report.tet_s.max(now);
        match ev {
            Event::VmReady(vm) => {
                if !released[vm.0] && !draining[vm.0] {
                    for _ in 0..cluster.vm(vm).itype.cores {
                        free_slots.push(vm);
                    }
                }
            }
            Event::TaskDone { task: ti, vm, attempt, fate } => {
                vm_busy[vm.0] = vm_busy[vm.0].saturating_sub(1);
                sim_in_flight = sim_in_flight.saturating_sub(1);
                if draining[vm.0] {
                    // no new work for a draining VM; retire it the moment
                    // its last in-flight task lands
                    if vm_busy[vm.0] == 0 && !released[vm.0] {
                        released[vm.0] = true;
                        cluster.release(vm, now);
                    }
                } else {
                    free_slots.push(vm);
                }
                let task = &tasks[ti];
                let record = |status: ActivationStatus, start: f64, end: f64, retries: i64| {
                    if let Some(p) = prov {
                        return Some(p.record_activation(&ActivationRecord {
                            activity: act_id(task.activity_index).expect("registered activity"),
                            workflow: wkf.expect("workflow registered"),
                            status,
                            start_time: start,
                            end_time: end,
                            machine: vm_machine[vm.0],
                            retries,
                            pair_key: task.pair_key.clone(),
                        }));
                    }
                    None
                };
                // the attempt's lifecycle event
                let emit = |severity, kind| {
                    if let Some(ev) = &evlog {
                        let fields = [
                            ("activity", tag_of(task.activity_index)),
                            ("key", task.pair_key.clone()),
                            ("attempt", attempt.to_string()),
                        ];
                        ev.emit(now, severity, kind, &fields);
                    }
                };
                match fate {
                    Fate::Ok => {
                        let task_id = record(
                            ActivationStatus::Finished,
                            now - tasks[ti].nominal_s.min(now),
                            now,
                            attempt as i64,
                        );
                        // the activation's output artifact (what the shared
                        // FS staged out) — makes Query 2 and the data-volume
                        // bookkeeping work against simulated runs too
                        if let (Some(p), Some(tid)) = (prov, task_id) {
                            let tag = cfg
                                .activity_tags
                                .get(task.activity_index)
                                .map(|s| s.as_str())
                                .unwrap_or("act");
                            let safe_pair = task.pair_key.replace(':', "_");
                            let ext = if tag.contains("dock") { "dlg" } else { "out" };
                            p.record_file(
                                tid,
                                act_id(task.activity_index).expect("registered activity"),
                                wkf.expect("workflow registered"),
                                &format!("{safe_pair}.{ext}"),
                                task.out_bytes as i64,
                                &format!("/root/exp_SciDock/{tag}/"),
                            );
                        }
                        report.finished += 1;
                        emit(Severity::Info, "activation_finished");
                        for &s in &successors[ti] {
                            if dropped[s] {
                                continue;
                            }
                            dep_count[s] -= 1;
                            if dep_count[s] == 0 {
                                let st = &tasks[s];
                                if st.poison && cfg.hg_rule {
                                    let act =
                                        (wkf, act_id(st.activity_index), tag_of(st.activity_index));
                                    blacklist(prov, evlog.as_ref(), act, st, now);
                                    report.blacklisted += 1;
                                    dropped[s] = true;
                                    cancel_downstream(s, &mut dropped, &mut report, &successors);
                                } else {
                                    ready_by_activity[st.activity_index] += 1;
                                    ready.push(ReadyTask { task: s, weight: weight_of(st) });
                                }
                            }
                        }
                    }
                    Fate::Fail => {
                        record(
                            ActivationStatus::Failed,
                            now - 1.0_f64.min(now),
                            now,
                            attempt as i64,
                        );
                        report.failed_attempts += 1;
                        // warn while the attempt will be retried, error once terminal
                        let retried = attempt < cfg.max_retries;
                        emit(
                            if retried { Severity::Warn } else { Severity::Error },
                            "activation_failed",
                        );
                        if retried {
                            attempts[ti] = attempt + 1;
                            ready_by_activity[task.activity_index] += 1;
                            ready.push(ReadyTask { task: ti, weight: weight_of(task) });
                        } else {
                            dropped[ti] = true;
                            cancel_downstream(ti, &mut dropped, &mut report, &successors);
                        }
                    }
                    Fate::Hang => {
                        record(
                            ActivationStatus::Aborted,
                            now - 1.0_f64.min(now),
                            now,
                            attempt as i64,
                        );
                        report.aborted += 1;
                        emit(Severity::Warn, "activation_aborted");
                        dropped[ti] = true;
                        cancel_downstream(ti, &mut dropped, &mut report, &successors);
                    }
                }

                // every completion is a scheduler tick, exactly like the
                // distributed master processing a Done frame
                if let Some(ctrl) = controller.as_mut() {
                    ctrl.note_completion();
                    let decision = ctrl.evaluate(sim_snapshot(
                        ready.len(),
                        &ready_by_activity,
                        sim_in_flight,
                        &released,
                        &draining,
                        &vm_busy,
                        &cluster,
                        now,
                        slots_per_worker,
                    ));
                    apply_scale(
                        decision,
                        now,
                        &mut cluster,
                        &mut events,
                        &mut vm_busy,
                        &mut vm_machine,
                        &mut released,
                        &mut draining,
                        &mut free_slots,
                        &mut report,
                    );
                }
            }
        }
    }

    report.cost_usd = cluster.total_cost(report.tet_s);
    report.final_cores = cluster.cores_at(report.tet_s);
    report.peak_vms = report.peak_vms.max(cluster.vms().len());
    report.metrics = tel.snapshot();
    if let Some(ctrl) = controller {
        report.scale_events = ctrl.into_trace();
    }
    if let Some(ev) = &evlog {
        ev.emit(
            report.tet_s,
            Severity::Info,
            "run_finished",
            &[
                ("workflow", cfg.workflow_tag.clone()),
                ("finished", report.finished.to_string()),
                ("failed_attempts", report.failed_attempts.to_string()),
                ("aborted", report.aborted.to_string()),
                ("blacklisted", report.blacklisted.to_string()),
            ],
        );
    }
    report
}

/// The scheduler's view of a simulated run, shaped identically to the
/// distributed master's: logical queue depths, provisioned fleet (booted +
/// booting, minus draining), and per-worker slot capacity.
#[allow(clippy::too_many_arguments)]
fn sim_snapshot(
    ready_len: usize,
    ready_by_activity: &[usize],
    in_flight: usize,
    released: &[bool],
    draining: &[bool],
    vm_busy: &[u32],
    cluster: &Cluster,
    now: SimTime,
    slots_per_worker: usize,
) -> FleetSnapshot {
    let fleet = (0..released.len()).filter(|&v| !released[v] && !draining[v]).count();
    let idle = (0..released.len())
        .filter(|&v| {
            !released[v] && !draining[v] && vm_busy[v] == 0 && cluster.vm(VmId(v)).ready_at <= now
        })
        .count();
    FleetSnapshot {
        completions: 0, // the controller stamps its own count
        queued: ready_len,
        in_flight,
        fleet,
        idle,
        slots_per_worker,
        queued_by_activity: ready_by_activity.to_vec(),
        // the simulator has no wall-clock variance, so nothing straggles
        stragglers: 0,
    }
}

/// Blacklist `task` of activity `(workflow, id, tag)` at `now`: its event
/// and its `BLACKLISTED` row.
fn blacklist(
    prov: Option<&ProvenanceStore>,
    evlog: Option<&EventLog>,
    (wkf, act, tag): (Option<WorkflowId>, Option<ActivityId>, String),
    task: &SimTask,
    now: SimTime,
) {
    if let Some(ev) = evlog {
        let fields = [("activity", tag), ("key", task.pair_key.clone())];
        ev.emit(now, Severity::Error, "activation_blacklisted", &fields);
    }
    if let Some(p) = prov {
        p.record_activation(&ActivationRecord {
            activity: act.expect("registered activity"),
            workflow: wkf.expect("workflow registered"),
            status: ActivationStatus::Blacklisted,
            start_time: now,
            end_time: now,
            machine: None,
            retries: 0,
            pair_key: task.pair_key.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pairs` chains of `acts` activities, each activation `nominal_s`.
    fn chain_tasks(pairs: usize, acts: usize, nominal_s: f64) -> Vec<SimTask> {
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
        tasks
    }

    fn base_cfg(cores: u32) -> SimConfig {
        SimConfig {
            fleet: cloudsim::fleet_for_cores(cores),
            noise: NoiseModel { amplitude: 0.0 },
            sharedfs: SharedFsModel { latency_s: 0.0, bandwidth_bps: 1e12, contention: 0.0 },
            master: MasterCostModel { c0: 0.0, c1: 0.0, window: 1, latency_per_vm: 0.0 },
            activity_tags: (0..8).map(|i| format!("act{i}")).collect(),
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
            tasks[p * 2].poison = true;
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
        tasks[0].poison = true;
        let mut cfg = base_cfg(4);
        cfg.hg_rule = false;
        cfg.hang_timeout_factor = 20.0;
        let r = simulate_tasks(&tasks, &cfg, None);
        assert_eq!(r.blacklisted, 0);
        assert_eq!(r.aborted, 1);
        // the hang burned ~20× the nominal runtime
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
        let tasks = chain_tasks(5, 2, 3.0);
        let mut cfg = base_cfg(4);
        cfg.activity_tags = vec!["prep".into(), "dock".into()];
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

    #[test]
    fn elasticity_grows_fleet_under_backlog() {
        use crate::fleet::{QueueDepthConfig, QueueDepthScheduler};
        let tasks = chain_tasks(3000, 1, 10.0);
        let cfg = base_cfg(4).with_scheduler(SchedulerFactory::new(|| {
            Box::new(QueueDepthScheduler::new(QueueDepthConfig {
                max_workers: 8,
                ..QueueDepthConfig::default()
            }))
        }));
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
            activity_tags: vec!["work".into()],
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
        simulate_tasks(&[], &cfg, None);
    }

    #[test]
    fn telemetry_records_simulated_timeline() {
        let tel = Telemetry::attached();
        let mut cfg = base_cfg(4);
        cfg.sharedfs = SharedFsModel { latency_s: 0.05, bandwidth_bps: 1e6, contention: 0.0 };
        cfg.telemetry = tel.clone();
        let mut tasks = chain_tasks(6, 2, 3.0);
        for t in &mut tasks {
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

    #[test]
    fn greedy_beats_random_on_heterogeneous_tasks() {
        // mix of long and short tasks: greedy (LPT-style) should do no worse
        let mut tasks = Vec::new();
        for p in 0..120 {
            tasks.push(SimTask {
                activity_index: 0,
                pair_key: format!("p{p}"),
                nominal_s: if p % 10 == 0 { 120.0 } else { 4.0 },
                in_bytes: 0,
                out_bytes: 0,
                deps: vec![],
                poison: false,
            });
        }
        let mut greedy = base_cfg(16);
        greedy.policy = Policy::GreedyWeighted;
        let mut random = base_cfg(16);
        random.policy = Policy::Random;
        let g = simulate_tasks(&tasks, &greedy, None);
        let r = simulate_tasks(&tasks, &random, None);
        assert!(
            g.tet_s <= r.tet_s * 1.05,
            "greedy {} should not lose badly to random {}",
            g.tet_s,
            r.tet_s
        );
    }
}
