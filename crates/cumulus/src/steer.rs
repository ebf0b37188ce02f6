//! Live-steering bridge: flushes *in-flight* activation state into the
//! [`ProvenanceStore`] on a tick, so the paper's §V.C runtime queries
//! (`status_summary`, `failures_by_activity`, …) answer **during** a run
//! instead of only after it.
//!
//! Workers register an attempt with [`SteeringBridge::begin`] before
//! executing it and resolve it with [`SteeringBridge::resolve`] when its
//! row (terminal or failed-attempt) is known. A background ticker walks the
//! in-flight table every `tick` and writes/refreshes a `RUNNING` row per
//! attempt via [`ProvenanceStore::record_activation`] /
//! [`ProvenanceStore::update_activation`]; `resolve` then *replaces* that
//! row in place, so steering queries never double-count an activation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use provenance::{
    ActivationRecord, ActivationStatus, ActivityId, ProvenanceStore, TaskId, WorkflowId,
};

/// Identifies one registered in-flight attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u64);

#[derive(Debug)]
struct InFlight {
    activity: ActivityId,
    workflow: WorkflowId,
    pair_key: String,
    start_time: f64,
    retries: i64,
    /// `RUNNING` row already written for this attempt, if the ticker fired.
    flushed: Option<TaskId>,
}

#[derive(Debug, Default)]
struct BridgeInner {
    next_slot: u64,
    in_flight: HashMap<u64, InFlight>,
}

/// The bridge; see module docs. Cheap to share (`Arc`), stopped explicitly
/// with [`SteeringBridge::stop`] or implicitly on drop.
pub struct SteeringBridge {
    prov: Arc<ProvenanceStore>,
    epoch: Instant,
    inner: Mutex<BridgeInner>,
    /// Set by [`SteeringBridge::stop`]. The ticker sleeps on `wake` under
    /// this lock, so a stop ends the tick it interrupts instead of waiting
    /// it out — a run's wall time is not rounded up to a multiple of `tick`.
    shutdown: Mutex<bool>,
    wake: Condvar,
    ticker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for SteeringBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SteeringBridge(in_flight: {})", self.inner.lock().in_flight.len())
    }
}

impl SteeringBridge {
    /// Start a bridge whose ticker flushes every `tick`. `epoch` is the
    /// run's time origin (the same `Instant` activation timestamps are
    /// measured from).
    pub fn start(
        prov: Arc<ProvenanceStore>,
        epoch: Instant,
        tick: Duration,
    ) -> Arc<SteeringBridge> {
        let bridge = Arc::new(SteeringBridge {
            prov,
            epoch,
            inner: Mutex::new(BridgeInner::default()),
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
            ticker: Mutex::new(None),
        });
        let b = Arc::clone(&bridge);
        let handle = std::thread::Builder::new()
            .name("steering-tick".into())
            .spawn(move || loop {
                let stopped = {
                    let mut shutdown = b.shutdown.lock();
                    if !*shutdown {
                        b.wake.wait_for(&mut shutdown, tick);
                    }
                    *shutdown
                };
                // also after a stop, as the tick it cut short would have
                b.flush_now();
                if stopped {
                    return;
                }
            })
            .expect("spawn steering ticker");
        *bridge.ticker.lock() = Some(handle);
        bridge
    }

    /// Register an attempt that is about to execute.
    pub fn begin(
        &self,
        activity: ActivityId,
        workflow: WorkflowId,
        pair_key: &str,
        start_time: f64,
        retries: i64,
    ) -> SlotId {
        let mut g = self.inner.lock();
        let id = g.next_slot;
        g.next_slot += 1;
        g.in_flight.insert(
            id,
            InFlight {
                activity,
                workflow,
                pair_key: pair_key.to_string(),
                start_time,
                retries,
                flushed: None,
            },
        );
        SlotId(id)
    }

    /// Resolve an attempt with its definitive row. If the ticker already
    /// published a `RUNNING` row for this slot it is replaced in place;
    /// otherwise the record is inserted normally. Returns the row's task id.
    pub fn resolve(&self, slot: SlotId, rec: &ActivationRecord) -> TaskId {
        let flushed = self.inner.lock().in_flight.remove(&slot.0).and_then(|e| e.flushed);
        match flushed {
            Some(task) => {
                let updated = self.prov.update_activation(task, rec);
                debug_assert!(updated, "flushed RUNNING row must exist");
                task
            }
            None => self.prov.record_activation(rec),
        }
    }

    /// Take an attempt out of the bridge's hands without writing anything:
    /// the caller writes the definitive row itself. Returns the task id of
    /// the `RUNNING` row the ticker published for the slot, if it did — the
    /// row the caller must write over (a finished activation passes it to
    /// [`ProvenanceStore::commit_activation`]). Once this returns, the
    /// ticker no longer touches that row.
    pub fn forget(&self, slot: SlotId) -> Option<TaskId> {
        self.inner.lock().in_flight.remove(&slot.0).and_then(|e| e.flushed)
    }

    /// Write/refresh a `RUNNING` row for every in-flight attempt right now
    /// (the ticker calls this; tests may call it for determinism).
    pub fn flush_now(&self) {
        let now = self.epoch.elapsed().as_secs_f64();
        let mut g = self.inner.lock();
        for entry in g.in_flight.values_mut() {
            let rec = ActivationRecord {
                activity: entry.activity,
                workflow: entry.workflow,
                status: ActivationStatus::Running,
                start_time: entry.start_time,
                // "last seen alive" — refreshed every tick so a steering
                // query sees how long the attempt has been running
                end_time: now.max(entry.start_time),
                machine: None,
                retries: entry.retries,
                pair_key: entry.pair_key.clone(),
            };
            match entry.flushed {
                Some(task) => {
                    self.prov.update_activation(task, &rec);
                }
                None => entry.flushed = Some(self.prov.record_activation(&rec)),
            }
        }
        drop(g);
        // make the RUNNING rows crash-visible: a process killed mid-run
        // recovers knowing which attempts were in flight (no-op for
        // in-memory stores)
        self.prov.flush_wal();
    }

    /// Number of attempts currently registered.
    pub fn in_flight(&self) -> usize {
        self.inner.lock().in_flight.len()
    }

    /// Stop the ticker thread (idempotent). Wakes it out of its tick: it
    /// flushes once more and exits, so this returns in the time of one
    /// flush, not of one tick.
    pub fn stop(&self) {
        *self.shutdown.lock() = true;
        self.wake.notify_all();
        if let Some(h) = self.ticker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for SteeringBridge {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<ProvenanceStore>, WorkflowId, ActivityId) {
        let prov = Arc::new(ProvenanceStore::new());
        let w = prov.begin_workflow("live", "", "/e");
        let a = prov.register_activity(w, "vina", "Map");
        (prov, w, a)
    }

    fn running_count(prov: &ProvenanceStore) -> i64 {
        let r = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'RUNNING'", &[])
            .unwrap();
        r.rows.first().and_then(|row| row[0].as_f64()).unwrap_or(0.0) as i64
    }

    #[test]
    fn tick_publishes_running_rows_and_resolve_replaces_them() {
        let (prov, w, a) = setup();
        // long tick: the test drives flushes explicitly
        let bridge =
            SteeringBridge::start(Arc::clone(&prov), Instant::now(), Duration::from_secs(60));
        let s1 = bridge.begin(a, w, "R1:L1", 0.5, 0);
        let s2 = bridge.begin(a, w, "R2:L2", 0.7, 1);
        assert_eq!(running_count(&prov), 0, "nothing flushed yet");

        bridge.flush_now();
        assert_eq!(running_count(&prov), 2);
        // a second flush refreshes in place — still two rows
        bridge.flush_now();
        assert_eq!(running_count(&prov), 2);
        assert_eq!(bridge.in_flight(), 2);

        let rec = ActivationRecord {
            activity: a,
            workflow: w,
            status: ActivationStatus::Finished,
            start_time: 0.5,
            end_time: 2.0,
            machine: None,
            retries: 0,
            pair_key: "R1:L1".into(),
        };
        bridge.resolve(s1, &rec);
        assert_eq!(running_count(&prov), 1, "resolved row replaced in place");
        let finished = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'FINISHED'", &[])
            .unwrap();
        assert_eq!(finished.cell(0, 0).as_f64(), Some(1.0));

        // resolving an unflushed slot inserts a fresh row
        let s3 = bridge.begin(a, w, "R3:L3", 1.0, 0);
        bridge.resolve(s3, &ActivationRecord { pair_key: "R3:L3".into(), ..rec.clone() });
        let total = prov.query_rows("SELECT count(*) FROM hactivation", &[]).unwrap();
        assert_eq!(total.cell(0, 0).as_f64(), Some(3.0), "s1 + s2-running + s3");

        bridge.forget(s2);
        assert_eq!(bridge.in_flight(), 0);
        bridge.stop();
    }

    #[test]
    fn stop_cuts_the_tick_short_and_still_flushes() {
        let (prov, w, a) = setup();
        let bridge =
            SteeringBridge::start(Arc::clone(&prov), Instant::now(), Duration::from_secs(120));
        bridge.begin(a, w, "R:L", 0.0, 0);
        let t0 = Instant::now();
        bridge.stop();
        assert!(t0.elapsed() < Duration::from_secs(60), "stop waited out the tick");
        assert_eq!(running_count(&prov), 1, "the interrupted tick still published");
        bridge.stop(); // idempotent
    }

    #[test]
    fn ticker_thread_flushes_on_its_own() {
        let (prov, w, a) = setup();
        let bridge =
            SteeringBridge::start(Arc::clone(&prov), Instant::now(), Duration::from_millis(5));
        let slot = bridge.begin(a, w, "R:L", 0.0, 0);
        // wait for at least one tick
        let deadline = Instant::now() + Duration::from_secs(2);
        while running_count(&prov) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(running_count(&prov), 1, "ticker never flushed");
        bridge.resolve(
            slot,
            &ActivationRecord {
                activity: a,
                workflow: w,
                status: ActivationStatus::Aborted,
                start_time: 0.0,
                end_time: 1.0,
                machine: None,
                retries: 0,
                pair_key: "R:L".into(),
            },
        );
        bridge.stop();
        assert_eq!(running_count(&prov), 0);
    }
}
