//! Elastic fleet control: the [`Scheduler`] trait and its policy.
//!
//! The paper's central claim is *elastic* cloud execution — acquire workers
//! when the activation queue backs up, drain and retire them when it
//! empties. This module separates those **decisions** from the resource
//! bookkeeping that executes them (the DSLab-style split): a [`Scheduler`]
//! only ever sees a [`FleetSnapshot`] and answers with a [`ScaleDecision`];
//! the distributed master and the simulator each apply that decision with
//! their own machinery (spawn a `scidock-worker` process vs. acquire a
//! simulated VM).
//!
//! Because both backends feed the policy the *same* deterministic signals —
//! outstanding activations, provisioned fleet size, completion count — a
//! policy produces the identical decision trace in sim and for real on the
//! same workflow. That is the point: validate a policy cheaply in the
//! simulator, then run it unchanged against real processes.
//!
//! One policy ships, [`QueueDepthScheduler`]: grow while the backlog exceeds
//! a multiple of fleet capacity, shrink when a smaller fleet still covers
//! it, with completion-count cooldown hysteresis. No policy is a fixed
//! fleet: the backends then hold no [`FleetController`], take no snapshot
//! and place every activation on the least-loaded worker.

use std::fmt;
use std::sync::Arc;

/// What a [`Scheduler`] sees when asked for a scale decision.
///
/// Every field is a *logical* quantity that evolves identically in the
/// simulator and the distributed master: no wall-clock, no socket state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// Completion events processed so far (any fate: finished or failed).
    pub completions: usize,
    /// Activations ready to dispatch but not yet sent to a worker.
    pub queued: usize,
    /// Activations dispatched and not yet completed.
    pub in_flight: usize,
    /// Provisioned workers: connected + still booting/connecting, minus
    /// any that are draining or gone.
    pub fleet: usize,
    /// Concurrent activations one worker runs (`max_in_flight` for the
    /// dist backend, cores-per-VM for the simulator).
    pub slots_per_worker: usize,
    /// In-flight activations currently flagged as stragglers (running far
    /// beyond their activity's latency baseline). Always 0 for backends
    /// without a straggler detector, which keeps decision traces identical
    /// across backends unless a detector actually fires.
    pub stragglers: usize,
}

impl FleetSnapshot {
    /// Activations not yet completed: queued plus in flight.
    pub fn outstanding(&self) -> usize {
        self.queued + self.in_flight
    }

    /// Activations the provisioned fleet can run concurrently.
    pub fn capacity(&self) -> usize {
        self.fleet * self.slots_per_worker
    }

    /// Capacity discounted by straggling slots: a straggler occupies a slot
    /// without making progress, so policies should not count it as
    /// throughput. Equals [`FleetSnapshot::capacity`] when no detector ran.
    fn effective_capacity(&self) -> usize {
        self.capacity().saturating_sub(self.stragglers)
    }
}

/// A scheduler's answer to a [`FleetSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the fleet as it is.
    Hold,
    /// Provision this many additional workers.
    Grow(usize),
    /// Drain-then-retire this many workers.
    Shrink(usize),
}

/// One non-[`Hold`](ScaleDecision::Hold) decision, as recorded in the
/// controller's trace. Two backends running the same policy over the same
/// workflow must produce equal traces — that equality is asserted by the
/// sim-vs-dist parity test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Completion count at decision time.
    pub completions: usize,
    /// Provisioned fleet size the decision was made against.
    pub fleet: usize,
    /// Outstanding activations (queued + in flight) at decision time.
    pub outstanding: usize,
    /// The decision itself (never `Hold`).
    pub decision: ScaleDecision,
}

/// Where the dispatcher may place one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerView {
    /// Stable worker index (accept order in dist, VM id in sim).
    pub index: usize,
    /// Activations currently running on this worker.
    pub in_flight: usize,
}

/// Placement + scale decisions, separated from resource bookkeeping.
///
/// Implementations must be deterministic functions of the snapshots they
/// are shown (plus their own construction-time config): the sim-vs-dist
/// parity guarantee depends on it.
pub trait Scheduler: Send {
    /// Short policy name, used in telemetry and reports.
    fn name(&self) -> &'static str;

    /// Answer a snapshot with a scale decision. Called once before the
    /// first dispatch and once after every completion event.
    fn decide(&mut self, snap: &FleetSnapshot) -> ScaleDecision;

    /// Pick a worker for the next activation of `activity` among
    /// `candidates` (each with spare slots). Default: least loaded, ties
    /// to the lowest index — exactly the pre-elastic dispatcher.
    fn place(&mut self, activity: usize, candidates: &[WorkerView]) -> Option<usize> {
        let _ = activity;
        least_loaded(candidates)
    }
}

/// The default placement: least loaded, ties to the lowest index.
pub(crate) fn least_loaded(candidates: &[WorkerView]) -> Option<usize> {
    candidates.iter().min_by_key(|w| (w.in_flight, w.index)).map(|w| w.index)
}

/// The workers a `Shrink(n)` drains, in drain order: booted serving workers,
/// idle before busy and lowest index first, never so many that fewer than
/// `floor` stay provisioned — workers still booting count toward the floor.
/// `serving` yields `(index, busy)` of every booted worker that is neither
/// draining nor gone. The engine and the simulator both drain by this rule.
pub(crate) fn drain_targets(
    serving: impl Iterator<Item = (usize, bool)>,
    booting: usize,
    floor: usize,
    n: usize,
) -> Vec<usize> {
    let mut targets: Vec<(bool, usize)> = serving.map(|(i, busy)| (busy, i)).collect();
    let spare = (targets.len() + booting).saturating_sub(floor);
    targets.sort_unstable();
    targets.truncate(n.min(spare));
    targets.into_iter().map(|(_, i)| i).collect()
}

/// Builds a fresh [`Scheduler`] per run, so one config can drive many runs
/// (and the parity test can hand the *same* factory to both backends).
#[derive(Clone)]
pub struct SchedulerFactory(Arc<dyn Fn() -> Box<dyn Scheduler> + Send + Sync>);

impl SchedulerFactory {
    /// Wrap a closure producing a fresh scheduler.
    pub fn new(f: impl Fn() -> Box<dyn Scheduler> + Send + Sync + 'static) -> SchedulerFactory {
        SchedulerFactory(Arc::new(f))
    }

    /// Instantiate a scheduler for one run.
    pub fn build(&self) -> Box<dyn Scheduler> {
        (self.0)()
    }
}

impl fmt::Debug for SchedulerFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SchedulerFactory({})", self.build().name())
    }
}

/// Runs one scheduler over one run: counts completions, records the
/// decision trace, and forwards placement queries. Both backends drive
/// their fleet through this so the trace semantics cannot drift apart.
pub struct FleetController {
    sched: Box<dyn Scheduler>,
    trace: Vec<ScaleEvent>,
    completions: usize,
}

impl FleetController {
    /// A controller over a fresh scheduler from `factory`.
    pub fn new(factory: &SchedulerFactory) -> FleetController {
        FleetController { sched: factory.build(), trace: Vec::new(), completions: 0 }
    }

    /// The policy's name.
    pub fn name(&self) -> &'static str {
        self.sched.name()
    }

    /// Completion events recorded so far.
    pub fn completions(&self) -> usize {
        self.completions
    }

    /// Record one completion event (any fate).
    pub fn note_completion(&mut self) {
        self.completions += 1;
    }

    /// Ask the policy for a decision; `snap.completions` is overwritten
    /// with this controller's count so callers cannot desync it. Non-Hold
    /// decisions are appended to the trace.
    pub fn evaluate(&mut self, mut snap: FleetSnapshot) -> ScaleDecision {
        snap.completions = self.completions;
        let decision = self.sched.decide(&snap);
        if decision != ScaleDecision::Hold {
            self.trace.push(ScaleEvent {
                completions: snap.completions,
                fleet: snap.fleet,
                outstanding: snap.outstanding(),
                decision,
            });
        }
        decision
    }

    /// Ask the policy where the next activation of `activity` goes. A
    /// policy is user code and its answer indexes the backend's worker
    /// table: one that names no candidate falls back to the default
    /// least-loaded choice, so the result is always the `index` of one of
    /// `candidates` — `None` only when there are none.
    pub fn place(&mut self, activity: usize, candidates: &[WorkerView]) -> Option<usize> {
        match self.sched.place(activity, candidates) {
            Some(i) if candidates.iter().any(|w| w.index == i) => Some(i),
            _ => least_loaded(candidates),
        }
    }

    /// The decision trace so far.
    pub fn trace(&self) -> &[ScaleEvent] {
        &self.trace
    }

    /// Consume the controller, yielding its decision trace.
    pub fn into_trace(self) -> Vec<ScaleEvent> {
        self.trace
    }
}

/// Tuning for [`QueueDepthScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDepthConfig {
    /// Grow while `outstanding > backlog_factor × capacity`.
    pub backlog_factor: f64,
    /// Workers added per grow decision.
    pub grow_step: usize,
    /// Completion events that must pass between scale decisions
    /// (hysteresis, so one burst does not thrash the fleet).
    pub cooldown: usize,
    /// Never shrink below this many workers.
    pub min_workers: usize,
    /// Never grow above this many workers.
    pub max_workers: usize,
}

impl Default for QueueDepthConfig {
    fn default() -> QueueDepthConfig {
        QueueDepthConfig {
            backlog_factor: 2.0,
            grow_step: 1,
            cooldown: 2,
            min_workers: 1,
            max_workers: 4,
        }
    }
}

/// Queue-depth autoscaling with cooldown hysteresis.
///
/// Grows one step while the backlog exceeds `backlog_factor ×` fleet
/// capacity; shrinks to the smallest fleet whose capacity still covers the
/// backlog once it falls below what the current fleet minus one worker
/// could run. Decisions are gated by a completions-based cooldown, which
/// (unlike a wall-clock cooldown) ticks identically in sim and dist.
#[derive(Debug, Clone)]
pub struct QueueDepthScheduler {
    cfg: QueueDepthConfig,
    last_scale: Option<usize>,
}

impl QueueDepthScheduler {
    /// A scheduler with the given tuning.
    pub fn new(cfg: QueueDepthConfig) -> QueueDepthScheduler {
        QueueDepthScheduler { cfg, last_scale: None }
    }

    fn cooling_down(&self, completions: usize) -> bool {
        matches!(self.last_scale, Some(at) if completions < at + self.cfg.cooldown)
    }
}

impl Scheduler for QueueDepthScheduler {
    fn name(&self) -> &'static str {
        "queue-depth"
    }

    fn decide(&mut self, snap: &FleetSnapshot) -> ScaleDecision {
        if self.cooling_down(snap.completions) {
            return ScaleDecision::Hold;
        }
        let slots = snap.slots_per_worker.max(1);
        let outstanding = snap.outstanding();
        // straggling slots are stalled, not capacity: discounting them
        // makes the policy grow sooner when part of the fleet is wedged
        if outstanding as f64 > self.cfg.backlog_factor * snap.effective_capacity() as f64
            && snap.fleet < self.cfg.max_workers
        {
            let step = self.cfg.grow_step.min(self.cfg.max_workers - snap.fleet).max(1);
            self.last_scale = Some(snap.completions);
            return ScaleDecision::Grow(step);
        }
        if snap.fleet > self.cfg.min_workers && outstanding <= (snap.fleet - 1) * slots {
            let needed = outstanding.div_ceil(slots).max(self.cfg.min_workers).max(1);
            if needed < snap.fleet {
                self.last_scale = Some(snap.completions);
                return ScaleDecision::Shrink(snap.fleet - needed);
            }
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(queued: usize, in_flight: usize, fleet: usize, slots: usize) -> FleetSnapshot {
        FleetSnapshot {
            completions: 0,
            queued,
            in_flight,
            fleet,
            slots_per_worker: slots,
            stragglers: 0,
        }
    }

    #[test]
    fn default_placement_is_least_loaded_lowest_index() {
        let mut s = QueueDepthScheduler::new(QueueDepthConfig::default());
        let cands = [
            WorkerView { index: 0, in_flight: 2 },
            WorkerView { index: 1, in_flight: 1 },
            WorkerView { index: 2, in_flight: 1 },
        ];
        assert_eq!(s.place(0, &cands), Some(1));
        assert_eq!(s.place(0, &[]), None);
    }

    #[test]
    fn queue_depth_grows_under_backlog_and_respects_max() {
        let mut s = QueueDepthScheduler::new(QueueDepthConfig {
            backlog_factor: 2.0,
            grow_step: 1,
            cooldown: 0,
            min_workers: 1,
            max_workers: 3,
        });
        assert_eq!(s.decide(&snap(10, 0, 1, 1)), ScaleDecision::Grow(1));
        assert_eq!(s.decide(&snap(10, 2, 2, 1)), ScaleDecision::Grow(1));
        // at max: backlog no longer grows the fleet
        assert_eq!(s.decide(&snap(10, 3, 3, 1)), ScaleDecision::Hold);
    }

    #[test]
    fn queue_depth_shrinks_to_what_the_backlog_needs() {
        let mut s = QueueDepthScheduler::new(QueueDepthConfig {
            backlog_factor: 2.0,
            grow_step: 1,
            cooldown: 0,
            min_workers: 1,
            max_workers: 4,
        });
        // 1 outstanding on a fleet of 3 → only 1 worker needed
        assert_eq!(s.decide(&snap(1, 0, 3, 1)), ScaleDecision::Shrink(2));
        // empty queue → down to min_workers
        assert_eq!(s.decide(&snap(0, 0, 4, 1)), ScaleDecision::Shrink(3));
        // min respected
        assert_eq!(s.decide(&snap(0, 0, 1, 1)), ScaleDecision::Hold);
    }

    #[test]
    fn queue_depth_cooldown_suppresses_consecutive_scaling() {
        let mut s = QueueDepthScheduler::new(QueueDepthConfig {
            cooldown: 3,
            max_workers: 8,
            ..QueueDepthConfig::default()
        });
        let mut sn = snap(50, 0, 1, 1);
        assert_eq!(s.decide(&sn), ScaleDecision::Grow(1));
        sn.completions = 1;
        sn.fleet = 2;
        assert_eq!(s.decide(&sn), ScaleDecision::Hold, "cooling down");
        sn.completions = 3;
        assert_eq!(s.decide(&sn), ScaleDecision::Grow(1), "cooldown expired");
    }

    #[test]
    fn stragglers_discount_capacity_and_grow_the_fleet_sooner() {
        let mut s = QueueDepthScheduler::new(QueueDepthConfig {
            backlog_factor: 2.0,
            grow_step: 1,
            cooldown: 0,
            min_workers: 1,
            max_workers: 4,
        });
        // 6 outstanding on 3×1 slots: 6 ≤ 2×3, so a healthy fleet holds…
        let healthy = snap(3, 3, 3, 1);
        assert_eq!(s.decide(&healthy), ScaleDecision::Hold);
        // …but with two of those slots wedged, effective capacity is 1 and
        // the same backlog now warrants growth
        let wedged = FleetSnapshot { stragglers: 2, ..healthy };
        assert_eq!(wedged.effective_capacity(), 1);
        assert_eq!(s.decide(&wedged), ScaleDecision::Grow(1));
    }

    #[test]
    fn controller_records_only_non_hold_decisions() {
        let factory = SchedulerFactory::new(|| {
            Box::new(QueueDepthScheduler::new(QueueDepthConfig {
                cooldown: 0,
                max_workers: 2,
                ..QueueDepthConfig::default()
            }))
        });
        let mut c = FleetController::new(&factory);
        assert_eq!(c.name(), "queue-depth");
        assert_eq!(c.evaluate(snap(10, 0, 1, 1)), ScaleDecision::Grow(1));
        c.note_completion();
        assert_eq!(c.evaluate(snap(4, 1, 2, 1)), ScaleDecision::Hold);
        let trace = c.into_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace[0],
            ScaleEvent {
                completions: 0,
                fleet: 1,
                outstanding: 10,
                decision: ScaleDecision::Grow(1)
            }
        );
    }

    #[test]
    fn controller_overrides_snapshot_completions() {
        let factory = SchedulerFactory::new(|| {
            Box::new(QueueDepthScheduler::new(QueueDepthConfig::default()))
        });
        let mut c = FleetController::new(&factory);
        c.note_completion();
        c.note_completion();
        let mut sn = snap(1, 0, 1, 1);
        sn.completions = 99; // caller lies; controller corrects
        c.evaluate(sn);
        assert_eq!(c.completions(), 2);
        assert!(c.trace().is_empty());
        assert_eq!(c.name(), "queue-depth");
    }
}
