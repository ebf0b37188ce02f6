//! The master's ready queue and its cost model.
//!
//! SciCumulus uses "a native weighted cost model associated with a greedy
//! scheduling algorithm" (§V.C), with per-activity weights mined from the
//! provenance database. On the SciDock chain those weights do one thing:
//! the source activity (`babel1k`, 2.4 s) is the lightest, so a started
//! pair's next activation always outranks a new pair's first. The queue
//! keeps exactly that rule and no weights (DESIGN.md §5). The master pays a
//! planning cost that grows with the queue and the number of VMs — the
//! source of the efficiency decline from 32 to 128 cores (Fig. 9).

use std::collections::VecDeque;

/// The master's ready queue: a task that depends on another (a started
/// pair's next activation) pops before any source task (a new pair's first
/// activation), and each group pops in arrival order.
///
/// The *modeled* planning cost (the paper's growing scheduling overhead)
/// is charged separately by [`MasterCostModel`]; the simulator itself must
/// stay fast at 10⁵ tasks.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    dependents: VecDeque<usize>,
    sources: VecDeque<usize>,
}

impl ReadyQueue {
    /// Empty queue.
    pub fn new() -> ReadyQueue {
        ReadyQueue::default()
    }

    /// Add ready task `task`; `dependent` says it has upstream tasks.
    pub fn push(&mut self, task: usize, dependent: bool) {
        if dependent {
            self.dependents.push_back(task);
        } else {
            self.sources.push_back(task);
        }
    }

    /// Remove and return the earliest dependent task, else the earliest
    /// source task.
    pub fn pop(&mut self) -> Option<usize> {
        self.dependents.pop_front().or_else(|| self.sources.pop_front())
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.dependents.len() + self.sources.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The master's per-dispatch planning cost.
///
/// Two components model the paper's observed overheads:
/// * `overhead = c0 + c1 × cores × min(queue, window)` — a linearized
///   stand-in for the greedy plan scan (touches every ready-task × slot
///   pair), paid *serially* on the master and therefore a throughput limit
///   at large fleets;
/// * `latency_per_vm × alive VMs` — added to each activation's wall time
///   (distribution messages, s3fs metadata sync), a smooth per-task tax
///   that grows with fleet size and produces the gradual efficiency
///   decline of Fig. 9.
#[derive(Debug, Clone, Copy)]
pub struct MasterCostModel {
    /// Fixed per-dispatch cost (message round trip, bookkeeping) in seconds.
    pub c0: f64,
    /// Scan cost per (core × queued task) pair in seconds.
    pub c1: f64,
    /// Queue window the greedy scan actually considers.
    pub window: usize,
    /// Per-activation latency per alive VM, in seconds.
    pub latency_per_vm: f64,
}

impl Default for MasterCostModel {
    fn default() -> Self {
        MasterCostModel { c0: 0.015, c1: 5.0e-6, window: 512, latency_per_vm: 0.40 }
    }
}

impl MasterCostModel {
    /// Planning cost of one dispatch decision.
    pub fn dispatch_overhead(&self, queue_len: usize, total_cores: u32) -> f64 {
        self.c0 + self.c1 * total_cores as f64 * queue_len.min(self.window) as f64
    }

    /// Extra per-activation latency with `alive_vms` VMs in the fleet.
    pub fn distribution_latency(&self, alive_vms: usize) -> f64 {
        self.latency_per_vm * alive_vms as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_cores_and_queue() {
        let m = MasterCostModel::default();
        let small = m.dispatch_overhead(10, 2);
        let more_cores = m.dispatch_overhead(10, 128);
        let more_queue = m.dispatch_overhead(400, 2);
        assert!(more_cores > small);
        assert!(more_queue > small);
        // the window caps queue influence
        assert_eq!(m.dispatch_overhead(100_000, 32), m.dispatch_overhead(m.window, 32));
    }

    #[test]
    fn overhead_has_fixed_floor() {
        let m = MasterCostModel { c0: 0.5, c1: 0.0, window: 10, latency_per_vm: 0.0 };
        assert_eq!(m.dispatch_overhead(0, 1), 0.5);
        assert_eq!(m.dispatch_overhead(999, 999), 0.5);
    }
}
