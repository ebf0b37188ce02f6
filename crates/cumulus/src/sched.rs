//! The weighted greedy ready queue and the master's cost model.
//!
//! SciCumulus uses "a native weighted cost model associated with a greedy
//! scheduling algorithm" (§V.C): long activations go to powerful VMs, and
//! the master pays a planning cost that grows with the queue and the number
//! of VMs — the source of the efficiency decline from 32 to 128 cores
//! (Fig. 9).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A ready task as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyTask {
    /// Index into the simulation's task array.
    pub task: usize,
    /// Estimated (nominal) duration used as the weight.
    pub weight: f64,
}

/// The ready queue of the paper's greedy pick: heaviest task first, ties in
/// push order.
///
/// A max-heap, so `pop` is O(log n) — the *modeled* planning cost (the
/// paper's growing scheduling overhead) is charged separately by
/// [`MasterCostModel`]; the simulator itself must stay fast at 10⁵ tasks.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    weight: f64,
    seq: u64,
    task: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap by weight; FIFO (lower seq first) on ties
        self.weight.total_cmp(&other.weight).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl ReadyQueue {
    /// Empty queue.
    pub fn new() -> ReadyQueue {
        ReadyQueue::default()
    }

    /// Add a ready task.
    ///
    /// Weights are estimates and can be garbage (a cold profile divides by
    /// zero, a bad cost row goes negative). `total_cmp` sorts NaN above
    /// +inf, so a single NaN entry would sit at the top of the heap and
    /// also poison tie-breaking below it — sanitize here instead of
    /// trusting every producer.
    pub fn push(&mut self, t: ReadyTask) {
        let weight = if t.weight.is_nan() { 0.0 } else { t.weight.max(0.0) };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { weight, seq, task: t.task });
    }

    /// Remove and return the heaviest task, the earliest pushed of equals.
    pub fn pop(&mut self) -> Option<ReadyTask> {
        self.heap.pop().map(|e| ReadyTask { task: e.task, weight: e.weight })
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

/// SQL behind [`activity_profiles`].
pub const ACTIVITY_PROFILES_SQL: &str =
    "SELECT a.tag, avg(extract('epoch' from (t.endtime - t.starttime))) \
     FROM hactivity a, hactivation t \
     WHERE a.actid = t.actid AND t.status = 'FINISHED' GROUP BY a.tag";

/// Per-activity mean durations mined from a prior run's provenance — the
/// paper's cost-model input: "By monitoring or querying Vina's execution
/// history in the provenance database, SciCumulus …".
///
/// Returns `tag → mean FINISHED duration (s)`. Empty map when the store has
/// no finished activations.
pub fn activity_profiles(
    prov: &provenance::ProvenanceStore,
) -> std::collections::HashMap<String, f64> {
    let mut out = std::collections::HashMap::new();
    if let Ok(rs) = prov.query_rows(ACTIVITY_PROFILES_SQL, &[]) {
        for r in &rs.rows {
            if let (Some(tag), Some(avg)) = (r[0].as_str(), r[1].as_f64()) {
                out.insert(tag.to_string(), avg);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> ReadyQueue {
        let mut q = ReadyQueue::new();
        q.push(ReadyTask { task: 0, weight: 5.0 });
        q.push(ReadyTask { task: 1, weight: 50.0 });
        q.push(ReadyTask { task: 2, weight: 20.0 });
        q
    }

    #[test]
    fn greedy_pops_heaviest_first() {
        let mut queue = q();
        assert_eq!(queue.pop().unwrap().task, 1);
        assert_eq!(queue.pop().unwrap().task, 2);
        assert_eq!(queue.pop().unwrap().task, 0);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn nan_weight_does_not_hijack_greedy_order() {
        let mut queue = ReadyQueue::new();
        queue.push(ReadyTask { task: 0, weight: f64::NAN });
        queue.push(ReadyTask { task: 1, weight: 50.0 });
        queue.push(ReadyTask { task: 2, weight: -3.0 });
        queue.push(ReadyTask { task: 3, weight: 20.0 });
        // NaN and negative weights clamp to 0.0 and sink to the bottom
        // (FIFO among themselves), instead of NaN sorting above +inf.
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop()).map(|t| t.task).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn queue_len_tracking() {
        let mut queue = q();
        assert_eq!(queue.len(), 3);
        assert!(!queue.is_empty());
        queue.pop();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn activity_profiles_from_provenance() {
        use provenance::{ActivationRecord, ActivationStatus, ProvenanceStore};
        let p = ProvenanceStore::new();
        let w = p.begin_workflow("x", "", "");
        let a = p.register_activity(w, "dock", "Map");
        let b = p.register_activity(w, "prep", "Map");
        for (act, dur) in [(a, 30.0), (a, 50.0), (b, 4.0)] {
            p.record_activation(&ActivationRecord {
                activity: act,
                workflow: w,
                status: ActivationStatus::Finished,
                start_time: 0.0,
                end_time: dur,
                machine: None,
                retries: 0,
                pair_key: "p".into(),
            });
        }
        // a FAILED row must not pollute the profile
        p.record_activation(&ActivationRecord {
            activity: b,
            workflow: w,
            status: ActivationStatus::Failed,
            start_time: 0.0,
            end_time: 500.0,
            machine: None,
            retries: 0,
            pair_key: "p".into(),
        });
        let prof = activity_profiles(&p);
        assert_eq!(prof.len(), 2);
        assert!((prof["dock"] - 40.0).abs() < 1e-9);
        assert!((prof["prep"] - 4.0).abs() < 1e-9);
        assert!(activity_profiles(&ProvenanceStore::new()).is_empty());
    }

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
