//! The one provenance committer of each campaign directory (the `Daemon`'s,
//! a one-shot run's): a bounded FIFO queue drained by one thread, the only
//! writer of the directory's store. A run's registration rows, queued before
//! the run is started, and every record `settle` and `poison` queue are
//! owned messages, so no worker, reader or engine thread waits on the
//! store's writer lock or fsync. Each drained batch is one
//! [`ProvenanceStore::commit_batch`] — one writer-lock hold, one WAL record
//! per activation, at most one fsync, when the store's `Durability` makes
//! one due. FIFO keeps resume sound: a run's rows follow its registration,
//! and a worker queues its record before it reports `Settled`, so an
//! upstream row is applied before any downstream one. Under a steering tick
//! `begin` registers attempts and every tick publishes a crash-visible
//! `RUNNING` row per attempt in flight, which its definitive row is written
//! over. A barrier calls back once everything before it is durable; the
//! thread's panic reaches the owner's engine as `PortEvent::Panicked`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use provenance::{ActivationOutputs as Outputs, ActivationRecord, ActivationWrite};
use provenance::{ActivityId, ProvenanceStore, TaskId, WorkflowId};
use telemetry::{Histogram, Telemetry};

use crate::engine::PortEvent;
use crate::workflow::WorkflowDef;

/// Records the queue holds before a send blocks: more than a checkpoint's
/// worth (a 35 ms hold at ≈ 5 k records/s is ≈ 170), so a checkpoint does
/// not stall the senders behind it.
pub(crate) const BOUND: usize = 512;

enum Msg {
    /// A run's workflow and activity rows, under reserved ids.
    Register(WorkflowId, Vec<ActivityId>, Arc<WorkflowDef>),
    /// A registered attempt began: its id and its `RUNNING` row.
    Begin(u64, ActivationRecord),
    /// A definitive row, its attempt's registration, and when it was sent.
    Write(Option<u64>, ActivationWrite, Instant),
    /// Called once everything sent before is applied and durable.
    Barrier(Box<dyn FnOnce() + Send>),
    /// Publish the `RUNNING` rows now.
    #[cfg(test)]
    Tick,
    Stop,
}

/// See the module docs. Shared (`Arc`) by the owner and its runs' contexts;
/// stopped by the owner, or on drop.
#[derive(Debug)]
pub(crate) struct Committer {
    tx: SyncSender<Msg>,
    /// Messages sent and not yet taken off the queue.
    queued: Arc<AtomicUsize>,
    /// The next registration; `None` without a steering tick.
    next_id: Option<AtomicU64>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Committer {
    /// Start the committer of `prov`. `epoch` is the time origin of the
    /// activation timestamps; with a `tick`, attempts are registered and
    /// published as `RUNNING` rows on it. A panic of the committer's thread
    /// is sent on `events`.
    pub(crate) fn start<M: From<PortEvent> + Send + 'static>(
        prov: Arc<ProvenanceStore>,
        epoch: Instant,
        tick: Option<Duration>,
        tel: &Telemetry,
        events: Sender<M>,
    ) -> Arc<Committer> {
        let (tx, rx) = mpsc::sync_channel(BOUND);
        let queued = Arc::new(AtomicUsize::new(0));
        let thread = Thread {
            prov,
            epoch,
            tick,
            in_flight: BTreeMap::new(),
            queued: Arc::clone(&queued),
            tel: tel.clone(),
            lag: tel.histogram("provstore.commit_lag"),
            records: tel.histogram("provstore.commit_records"),
        };
        let (up, ready) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("provenance-committer".into())
            .spawn(move || {
                thread.tel.name_current_track("provenance-committer");
                let batch = Vec::with_capacity(BOUND + 1);
                let _ = up.send(());
                let run = AssertUnwindSafe(move || thread.run(rx, batch));
                if let Err(payload) = catch_unwind(run) {
                    let _ = events.send(PortEvent::Panicked(payload).into());
                }
            })
            .expect("spawn the provenance committer");
        // The batch buffer is the thread's first allocation, made before the
        // owner starts its workers: glibc gives a thread, at its first
        // allocation, the allocator arena freed last. A committer that first
        // allocated when records arrived took a worker's old arena and
        // stranded its retained heap: +6.5 MB peak RSS on `deep_local`,
        // whose every run starts a committer and two workers anew.
        let _ = ready.recv();
        let next_id = tick.map(|_| AtomicU64::new(0));
        Arc::new(Committer { tx, queued, next_id, thread: Mutex::new(Some(handle)) })
    }

    /// `false`: the committer has died.
    fn send(&self, msg: Msg) -> bool {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.tx.send(msg).is_ok()
    }

    /// # Panics
    /// Panics if the committer has died.
    fn record(&self, msg: Msg) {
        assert!(self.send(msg), "the provenance committer has died");
    }

    /// Reserve the ids of an execution of `def` in `prov`, the store this
    /// committer writes, and queue its registration — the `hworkflow` row,
    /// then one `hactivity` row per activity — ahead of every record of the
    /// run. Returns the workflow id and the activity ids, in activity order.
    pub(crate) fn register(
        &self,
        prov: &ProvenanceStore,
        def: &Arc<WorkflowDef>,
    ) -> (WorkflowId, Vec<ActivityId>) {
        let (wkf, acts) = prov.reserve_workflow(def.activities.len());
        self.record(Msg::Register(wkf, acts.clone(), Arc::clone(def)));
        (wkf, acts)
    }

    /// Register an attempt that begins now, if attempts are registered;
    /// `running` builds its `RUNNING` row, which only a tick writes.
    /// Returns the registration its definitive row names.
    pub(crate) fn begin(&self, running: impl FnOnce() -> ActivationRecord) -> Option<u64> {
        let id = self.next_id.as_ref()?.fetch_add(1, Ordering::Relaxed);
        self.record(Msg::Begin(id, running()));
        Some(id)
    }

    /// Queue an attempt's definitive row `rec`, with what it produced when
    /// it finished, and return. A `RUNNING` row a tick published for
    /// registration `id` is written over.
    pub(crate) fn write(&self, id: Option<u64>, rec: ActivationRecord, out: Option<Outputs>) {
        let write = ActivationWrite { over: None, rec, outputs: out };
        self.record(Msg::Write(id, write, Instant::now()));
    }

    /// Call `then` once everything sent before is applied and durable.
    /// `false`: the committer has died, and `then` is dropped uncalled.
    pub(crate) fn barrier(&self, then: impl FnOnce() + Send + 'static) -> bool {
        self.send(Msg::Barrier(Box::new(then)))
    }

    /// Return once everything sent before is applied and durable; `false`
    /// when the committer died first.
    #[cfg(test)]
    pub(crate) fn drain(&self) -> bool {
        let (done, applied) = mpsc::channel();
        self.barrier(move || {
            let _ = done.send(());
        }) && applied.recv().is_ok()
    }

    /// Publish the `RUNNING` rows now, and return once they are written.
    #[cfg(test)]
    pub(crate) fn publish_now(&self) {
        self.record(Msg::Tick);
        assert!(self.drain());
    }

    /// Apply what is queued, publish the `RUNNING` rows of attempts still
    /// in flight, flush, and join the thread — at once, not at the next
    /// tick. Idempotent.
    pub(crate) fn stop(&self) {
        if let Some(handle) = self.thread.lock().take() {
            self.send(Msg::Stop);
            let _ = handle.join();
        }
    }
}

impl Drop for Committer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The committer's thread, and what only it touches.
struct Thread {
    prov: Arc<ProvenanceStore>,
    epoch: Instant,
    tick: Option<Duration>,
    /// Registered attempts without a definitive row yet: each one's
    /// `RUNNING` row, and its task id once published.
    in_flight: BTreeMap<u64, (ActivationRecord, Option<TaskId>)>,
    queued: Arc<AtomicUsize>,
    tel: Telemetry,
    /// `provstore.commit_lag` (send → applied, per record) and
    /// `provstore.commit_records` (records per batch).
    lag: Option<Arc<Histogram>>,
    records: Option<Arc<Histogram>>,
}

impl Thread {
    fn run(mut self, rx: Receiver<Msg>, mut batch: Vec<Msg>) {
        let (mut next_tick, mut depth) = (self.tick.map(|t| Instant::now() + t), None);
        loop {
            let first = match next_tick {
                Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            // with every handle gone nothing more can arrive
            let gone = matches!(first, Err(RecvTimeoutError::Disconnected));
            batch.extend(first.ok());
            batch.extend(rx.try_iter().take(BOUND));
            self.queued.fetch_sub(batch.len(), Ordering::Relaxed);
            let stopped = self.apply(&mut batch) || gone;
            if next_tick.is_some_and(|at| stopped || Instant::now() >= at) {
                self.publish();
                next_tick = self.tick.map(|t| Instant::now() + t);
            }
            let queued = self.queued.load(Ordering::Relaxed);
            if depth.replace(queued) != Some(queued) {
                self.tel.gauge("provstore.commit_queue", queued as f64);
            }
            if stopped {
                self.prov.flush_wal();
                return;
            }
        }
    }

    /// Apply `batch` in order; `true` when it held the stop.
    fn apply(&mut self, batch: &mut Vec<Msg>) -> bool {
        let mut writes = Vec::new();
        for msg in batch.drain(..) {
            match msg {
                Msg::Register(wkf, acts, def) => {
                    self.commit(&mut writes);
                    let acts: Vec<_> = (acts.into_iter().zip(&def.activities))
                        .map(|(id, a)| (id, a.tag.as_str(), a.operator.name()))
                        .collect();
                    self.prov.register(wkf, [&def.tag, &def.description, &def.expdir], &acts);
                }
                Msg::Begin(id, rec) => {
                    self.in_flight.insert(id, (rec, None));
                }
                Msg::Write(id, mut write, sent) => {
                    write.over = id.and_then(|id| self.in_flight.remove(&id)?.1);
                    writes.push((write, sent));
                }
                Msg::Barrier(then) => {
                    self.commit(&mut writes);
                    self.prov.flush_wal();
                    then();
                }
                #[cfg(test)]
                Msg::Tick => {
                    self.commit(&mut writes);
                    self.publish();
                }
                Msg::Stop => {
                    self.commit(&mut writes);
                    return true;
                }
            }
        }
        self.commit(&mut writes);
        false
    }

    fn commit(&self, writes: &mut Vec<(ActivationWrite, Instant)>) {
        if writes.is_empty() {
            return;
        }
        let (batch, sent): (Vec<ActivationWrite>, Vec<Instant>) = writes.drain(..).unzip();
        self.prov.commit_batch(&batch);
        if let (Some(lag), Some(records)) = (&self.lag, &self.records) {
            records.record(batch.len() as u64);
            sent.iter().for_each(|at| lag.record(at.elapsed().as_nanos() as u64));
        }
    }

    /// Publish or refresh a `RUNNING` row for every attempt in flight — its
    /// end time "last seen alive", so a steering query sees how long it has
    /// been running — and make every row so far crash-visible.
    fn publish(&mut self) {
        if !self.in_flight.is_empty() {
            let now = self.epoch.elapsed().as_secs_f64();
            let rows: Vec<ActivationWrite> = (self.in_flight.values())
                .map(|(rec, over)| ActivationWrite {
                    over: *over,
                    rec: ActivationRecord { end_time: now.max(rec.start_time), ..rec.clone() },
                    outputs: None,
                })
                .collect();
            let tasks = self.prov.commit_batch(&rows);
            for ((_, published), task) in self.in_flight.values_mut().zip(tasks) {
                *published = Some(task);
            }
        }
        self.prov.flush_wal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};
    use provenance::{ActivationStatus, ActivityId, Value, WorkflowId};

    /// A store holding workflow 1 and its activity 1, over `env` if given.
    fn store(env: Option<FaultEnv>) -> Arc<ProvenanceStore> {
        let prov = match env {
            Some(env) => ProvenanceStore::open_env(Box::new(env), Default::default()).unwrap(),
            None => ProvenanceStore::new(),
        };
        let w = prov.begin_workflow("live", "", "/e");
        prov.register_activity(w, "vina", "Map");
        Arc::new(prov)
    }

    /// The committer of `prov`, and where it reports its panic.
    fn start(
        prov: &Arc<ProvenanceStore>,
        tick: Option<u64>,
    ) -> (Arc<Committer>, Receiver<PortEvent>) {
        let (events, panics) = mpsc::channel();
        let tick = tick.map(Duration::from_millis);
        let tel = Telemetry::disabled();
        (Committer::start(Arc::clone(prov), Instant::now(), tick, &tel, events), panics)
    }

    fn row(status: ActivationStatus, key: &str) -> ActivationRecord {
        ActivationRecord {
            activity: ActivityId(1),
            workflow: WorkflowId(1),
            status,
            start_time: 0.5,
            end_time: 2.0,
            machine: None,
            retries: 0,
            pair_key: key.into(),
        }
    }

    fn count(prov: &ProvenanceStore, status: &str) -> i64 {
        let sql = "SELECT count(*) FROM hactivation WHERE status = ?";
        let r = prov.query_rows(sql, &[Value::from(status)]).unwrap();
        r.cell(0, 0).as_f64().unwrap() as i64
    }

    #[test]
    fn a_tick_publishes_running_rows_and_a_definitive_row_replaces_one_in_place() {
        let prov = store(None);
        // a tick that never comes: the test publishes itself
        let (commit, _) = start(&prov, Some(3_600_000));
        let r1 = commit.begin(|| row(ActivationStatus::Running, "R1:L1"));
        let r2 = commit.begin(|| row(ActivationStatus::Running, "R2:L2"));
        assert!(commit.drain());
        assert_eq!(count(&prov, "RUNNING"), 0, "a registration writes no row");
        commit.publish_now();
        assert_eq!(count(&prov, "RUNNING"), 2);
        // a second tick refreshes in place — still two rows
        commit.publish_now();
        assert_eq!(count(&prov, "RUNNING"), 2);

        commit.write(r1, row(ActivationStatus::Finished, "R1:L1"), None);
        assert!(commit.drain());
        assert_eq!((count(&prov, "RUNNING"), count(&prov, "FINISHED")), (1, 1));
        // an attempt no tick published is inserted as a fresh row
        let r3 = commit.begin(|| row(ActivationStatus::Running, "R3:L3"));
        commit.write(r3, row(ActivationStatus::Finished, "R3:L3"), None);
        commit.write(r2, row(ActivationStatus::Aborted, "R2:L2"), None);
        assert!(commit.drain());
        let total = prov.query_rows("SELECT count(*) FROM hactivation", &[]).unwrap();
        assert_eq!(total.cell(0, 0), &Value::Int(3), "R1 and R2 in place, R3 fresh");
        assert_eq!(count(&prov, "RUNNING"), 0);
    }

    #[test]
    fn the_tick_publishes_on_its_own() {
        let prov = store(None);
        let (commit, _) = start(&prov, Some(5));
        let registered = commit.begin(|| row(ActivationStatus::Running, "R:L"));
        let deadline = Instant::now() + Duration::from_secs(2);
        while count(&prov, "RUNNING") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(count(&prov, "RUNNING"), 1, "the tick never published");
        commit.write(registered, row(ActivationStatus::Aborted, "R:L"), None);
        commit.stop();
        assert_eq!(count(&prov, "RUNNING"), 0);
    }

    #[test]
    fn a_stop_cuts_the_tick_short_and_still_publishes() {
        let prov = store(None);
        let (commit, _) = start(&prov, Some(120_000));
        commit.begin(|| row(ActivationStatus::Running, "R:L"));
        let t0 = Instant::now();
        commit.stop();
        assert!(t0.elapsed() < Duration::from_secs(60), "stop waited out the tick");
        assert_eq!(count(&prov, "RUNNING"), 1, "the interrupted tick still published");
        commit.stop(); // idempotent
    }

    /// With the committer stalled inside its append, exactly [`BOUND`]
    /// sends return and the next blocks; once the disk moves, every record
    /// is applied once, in send order.
    #[test]
    fn at_the_bound_a_send_waits_for_the_committer_and_nothing_is_lost() {
        // opening the store is append 1, the workflow and its activity 2 and
        // 3: the committer's first record is append 4, where the disk stalls
        let plan = Arc::new(FaultPlan::park_after(4));
        let prov = store(Some(FaultEnv::new(Box::new(MemEnv::new()), Arc::clone(&plan))));
        let (commit, _) = start(&prov, None);
        let key = |i: usize| format!("R:L{i}");
        let send = move |commit: &Committer, i: usize| {
            commit.write(None, row(ActivationStatus::Finished, &key(i)), None);
        };
        send(&commit, 0);
        plan.wait_parked();

        let (sent, returned) = mpsc::channel();
        let sender = {
            let commit = Arc::clone(&commit);
            std::thread::spawn(move || {
                for i in 1..=BOUND + 1 {
                    send(&commit, i);
                    sent.send(i).unwrap();
                }
            })
        };
        for i in 1..=BOUND {
            assert_eq!(returned.recv_timeout(Duration::from_secs(30)), Ok(i), "send {i} blocked");
        }
        let next = returned.recv_timeout(Duration::from_millis(200));
        assert_eq!(next, Err(mpsc::RecvTimeoutError::Timeout), "a send past the bound returned");
        plan.release();
        assert_eq!(returned.recv_timeout(Duration::from_secs(30)), Ok(BOUND + 1));
        sender.join().unwrap();

        assert!(commit.drain());
        let sql = "SELECT pairkey FROM hactivation ORDER BY taskid";
        let keys: Vec<Vec<Value>> = prov.query_rows(sql, &[]).unwrap().rows;
        let sent: Vec<Vec<Value>> = (0..=BOUND + 1).map(|i| vec![Value::from(key(i))]).collect();
        assert_eq!(keys, sent);
    }

    #[test]
    fn a_committer_that_died_reports_its_panic_and_a_send_to_it_panics_instead_of_hanging() {
        let plan = Arc::new(FaultPlan::panic_after(4));
        let prov = store(Some(FaultEnv::new(Box::new(MemEnv::new()), plan)));
        let (commit, panics) = start(&prov, None);
        commit.write(None, row(ActivationStatus::Finished, "R:L0"), None);
        let reported = panics.recv_timeout(Duration::from_secs(30));
        assert!(
            matches!(reported, Ok(PortEvent::Panicked(_))),
            "the panic never reached the owner"
        );
        let send = || commit.write(None, row(ActivationStatus::Finished, "R:L1"), None);
        assert!(catch_unwind(AssertUnwindSafe(send)).is_err(), "a dead committer took a record");
        assert!(!commit.drain(), "a dead committer answered a barrier");
        commit.stop();
    }
}
