//! Group commit with the fsync outside the store's lock: what a committer
//! may and may not do while another committer's fsync is in flight.
//!
//! Interleavings are forced, not slept for: [`GateEnv`]'s group-commit handle
//! blocks inside `sync` until the test opens the gate, so "while A is inside
//! the fsync" is a state the test holds for as long as it likes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use provenance::durable::io::{FaultEnv, FaultPlan, LogFile, MemEnv, StorageEnv};
use provenance::provwf::{ActivationRecord, ActivationStatus, ActivityId, WorkflowId};
use provenance::{export_provn_canonical, Durability, DurableOptions, ProvenanceStore, Value};
use telemetry::Telemetry;

/// `(syncs entered, gate open)` of the group-commit handle.
#[derive(Default)]
struct Gate {
    state: Mutex<(u64, bool)>,
    changed: Condvar,
}

impl Gate {
    /// Block until `n` syncs have been entered on the group-commit handle.
    fn wait_entered(&self, n: u64) {
        let mut st = self.state.lock().unwrap();
        while st.0 < n {
            st = self.changed.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }

    fn is_open(&self) -> bool {
        self.state.lock().unwrap().1
    }
}

/// A [`MemEnv`] whose group-commit handle blocks in `sync` until the gate
/// opens. The log's own handle (recovery, checkpoints) is not gated.
struct GateEnv {
    inner: MemEnv,
    gate: Arc<Gate>,
}

struct GateLog {
    inner: Box<dyn LogFile>,
    gate: Arc<Gate>,
    gated: bool,
}

impl LogFile for GateLog {
    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.inner.append(data)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.gated {
            let mut st = self.gate.state.lock().unwrap();
            st.0 += 1;
            self.gate.changed.notify_all();
            while !st.1 {
                st = self.gate.changed.wait(st).unwrap();
            }
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.truncate(len)
    }

    fn sync_handle(&self) -> std::io::Result<Box<dyn LogFile>> {
        let inner = self.inner.sync_handle()?;
        Ok(Box::new(GateLog { inner, gate: Arc::clone(&self.gate), gated: true }))
    }
}

impl StorageEnv for GateEnv {
    fn open_log(&self) -> std::io::Result<Box<dyn LogFile>> {
        let inner = self.inner.open_log()?;
        Ok(Box::new(GateLog { inner, gate: Arc::clone(&self.gate), gated: false }))
    }

    fn read_snapshot(&self) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }

    fn write_snapshot(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_snapshot(bytes)
    }
}

fn gated(durability: Durability, tel: &Telemetry) -> (Arc<ProvenanceStore>, MemEnv, Arc<Gate>) {
    let (mem, gate) = (MemEnv::new(), Arc::new(Gate::default()));
    let env = GateEnv { inner: mem.clone(), gate: Arc::clone(&gate) };
    let options = DurableOptions { durability, checkpoint_every: 0, telemetry: tel.clone() };
    (Arc::new(ProvenanceStore::open_env(Box::new(env), options).expect("fresh env")), mem, gate)
}

fn finished(a: ActivityId, w: WorkflowId, i: usize) -> ActivationRecord {
    ActivationRecord {
        activity: a,
        workflow: w,
        status: ActivationStatus::Finished,
        start_time: i as f64,
        end_time: i as f64 + 1.5,
        machine: None,
        retries: 0,
        pair_key: format!("R:L{i}"),
    }
}

fn activations(p: &ProvenanceStore) -> i64 {
    let rs = p.query_rows("SELECT count(*) FROM hactivation", &[]).expect("query");
    rs.cell(0, 0).as_f64().expect("count") as i64
}

/// Spin (queries only — no sleep orders anything here) until `n` activation
/// rows are visible.
fn wait_for_activations(p: &ProvenanceStore, n: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while activations(p) < n {
        assert!(Instant::now() < deadline, "only {} of {n} rows applied", activations(p));
        std::thread::yield_now();
    }
}

#[test]
fn batched_committers_and_readers_do_not_wait_for_an_fsync_in_flight() {
    let batched = Durability::Batched { max_ops: 8, max_delay: Duration::from_secs(3600) };
    let (p, mem, gate) = gated(batched, &Telemetry::disabled());
    let w = p.begin_workflow("wf", "gate", "/e");
    let a = p.register_activity(w, "vina", "Map");
    assert_eq!(mem.syncs(), 1, "only the fresh log's header so far");

    // A's record brings the batch to 2 + 6 = 8 mutations: its fsync is due
    let a_done = Arc::new(AtomicBool::new(false));
    let committer = {
        let (p, gate, a_done) = (Arc::clone(&p), Arc::clone(&gate), Arc::clone(&a_done));
        std::thread::spawn(move || {
            let files = [("a", 1, "/"), ("b", 2, "/"), ("c", 3, "/"), ("d", 4, "/"), ("e", 5, "/")];
            let task = p.commit_activation(None, &finished(a, w, 0), &files, &[], &[]);
            assert!(gate.is_open(), "A was acknowledged before its fsync completed");
            a_done.store(true, Ordering::SeqCst);
            task
        })
    };
    gate.wait_entered(1);

    // A is inside the fsync and stays there. B commits, gets its id, and a
    // query reads both activations — nobody queues behind the disk
    let b_task = p.commit_activation(None, &finished(a, w, 1), &[], &[], &[]);
    assert_eq!(activations(&p), 2);
    assert!(!a_done.load(Ordering::SeqCst));
    assert_eq!(mem.syncs(), 1, "the gated fsync has not reached the log yet");

    gate.open();
    let a_task = committer.join().expect("A commits");
    assert_eq!((a_task.0 + 1, mem.syncs()), (b_task.0, 2));
    // B's one mutation is pending; the barrier syncs it
    p.flush_wal();
    p.flush_wal();
    assert_eq!(mem.syncs(), 3, "and only once");
}

#[test]
fn sync_committers_return_only_after_an_fsync_that_covers_them_and_share_it() {
    let tel = Telemetry::attached();
    let (p, mem, gate) = gated(Durability::Sync, &tel);
    gate.open();
    let w = p.begin_workflow("wf", "gate", "/e");
    let a = p.register_activity(w, "vina", "Map");
    assert_eq!(mem.syncs(), 3, "header, then one per record");
    *gate.state.lock().unwrap() = (0, false);

    let done: Vec<Arc<AtomicBool>> = (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let spawn = |i: usize| {
        let (p, gate, done) = (Arc::clone(&p), Arc::clone(&gate), Arc::clone(&done[i]));
        std::thread::spawn(move || {
            p.commit_activation(None, &finished(a, w, i), &[("o", 1, "/")], &[], &[]);
            assert!(gate.is_open(), "committer {i} was acknowledged before any fsync completed");
            done.store(true, Ordering::SeqCst);
        })
    };
    // A enters its fsync; then B and C apply, write their frames, and queue
    // for the syncer behind it — visible to a reader all the while
    let first = spawn(0);
    gate.wait_entered(1);
    let rest = [spawn(1), spawn(2)];
    wait_for_activations(&p, 3);
    assert!(done.iter().all(|d| !d.load(Ordering::SeqCst)), "nothing is durable yet");
    assert_eq!(mem.syncs(), 3);

    gate.open();
    for t in std::iter::once(first).chain(rest) {
        t.join().expect("committer");
    }
    // A's fsync began before B and C wrote, so it covers neither; whichever
    // of the two went next began after both had written, and covers both
    assert_eq!(mem.syncs(), 3 + 2, "three due tickets, two fsyncs");
    assert_eq!(tel.counter("provstore.fsync_shared").expect("attached").get(), 1);
    assert_eq!(tel.histogram("provstore.group_commit").expect("attached").count(), 2 + 2);
    let waits = tel.histogram("provstore.lock_wait").expect("attached");
    let holds = tel.histogram("provstore.lock_hold").expect("attached");
    assert_eq!((waits.count(), holds.count()), (5, 5), "one sample per store call");
}

#[test]
fn a_failed_fsync_panics_its_committer_and_every_commit_after_it() {
    for durability in
        [Durability::Sync, Durability::Batched { max_ops: 2, max_delay: Duration::from_secs(3600) }]
    {
        // sync 1 is the fresh header's. Sync: 2 and 3 are the registrations',
        // 4 the first activation's. Batched: 2 covers the registrations, 3 the
        // first two activations, 4 is due with the fourth
        let plan = Arc::new(FaultPlan::fail_sync_at(4));
        let env = FaultEnv::new(Box::new(MemEnv::new()), Arc::clone(&plan));
        let options = DurableOptions { durability, checkpoint_every: 0, ..Default::default() };
        let p = Arc::new(ProvenanceStore::open_env(Box::new(env), options).expect("fresh env"));
        let w = p.begin_workflow("wf", "fault", "/e");
        let a = p.register_activity(w, "vina", "Map");
        let commit = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| p.record_activation(&finished(a, w, i)))).is_ok()
        };
        let acknowledged = (0..8).take_while(|&i| commit(i)).count();
        let expect = if durability == Durability::Sync { 0 } else { 3 };
        assert_eq!((acknowledged, plan.syncs_seen()), (expect, 4), "{durability:?}");
        // from here on every commit panics — on this thread and on any other,
        // whether or not an fsync would have been due — and so does the barrier
        assert!(!commit(100), "{durability:?}: acknowledged after the failure");
        let other = Arc::clone(&p);
        let joined = std::thread::spawn(move || other.record_activation(&finished(a, w, 101)));
        assert!(joined.join().is_err(), "{durability:?}: acknowledged after the failure");
        assert!(catch_unwind(AssertUnwindSafe(|| p.flush_wal())).is_err());
        assert_eq!(plan.syncs_seen(), 4, "{durability:?}: no fsync is attempted again");
        // a killed process runs no destructors
        std::mem::forget(p);
    }
}

#[test]
fn provstore_telemetry_does_not_change_the_provenance() {
    let run = |telemetry: Telemetry| {
        let options = DurableOptions { telemetry, ..Default::default() };
        let p = ProvenanceStore::open_env(Box::new(MemEnv::new()), options).expect("fresh env");
        let w = p.begin_workflow("wf", "telemetry", "/e");
        let a = p.register_activity(w, "vina", "Map");
        for i in 0..200 {
            p.commit_activation(
                None,
                &finished(a, w, i),
                &[("o.dlg", i as i64, "/e/d/")],
                &[("feb".into(), Some(-7.5), None)],
                &[vec![Value::Float(-7.5), Value::Text(format!("pose{i}"))]],
            );
        }
        p.flush_wal();
        export_provn_canonical(&p)
    };
    let tel = Telemetry::attached();
    assert_eq!(run(tel.clone()), run(Telemetry::disabled()));
    assert_eq!(tel.histogram("provstore.lock_hold").expect("attached").count(), 203);
}

/// The campaign-shaped stream: four registrations, then `n` activations of
/// four mutations each (row, file, parameter, output tuple) in one
/// `commit_activation`, and the closing barrier. Returns the mutation count.
fn campaign(p: &ProvenanceStore, n: usize) -> u64 {
    let w = p.begin_workflow("wf", "counts", "/e");
    let babel = p.register_activity(w, "babel", "Map");
    let vina = p.register_activity(w, "vina", "Map");
    p.register_machine("vm-001", "m3.xlarge", 4);
    for i in 0..n {
        p.commit_activation(
            None,
            &finished(if i % 2 == 0 { babel } else { vina }, w, i),
            &[("o.dlg", 64_000 + i as i64, "/e/d/")],
            &[("exhaustiveness".into(), Some(8.0), None)],
            &[vec![Value::Float(-7.5), Value::Text(format!("pose{i}"))]],
        );
    }
    p.flush_wal();
    4 + 4 * n as u64
}

/// One WAL record per activation, whatever it carries, plus one per
/// registration: N activations make exactly N + 4 appends.
#[test]
fn n_activations_make_n_plus_4_wal_appends() {
    for n in [1usize, 500] {
        let tel = Telemetry::attached();
        let options = DurableOptions { telemetry: tel.clone(), ..Default::default() };
        let p = ProvenanceStore::open_env(Box::new(MemEnv::new()), options).expect("fresh env");
        campaign(&p, n);
        assert_eq!(tel.counter("provstore.wal_appends").expect("attached").get(), n as u64 + 4);
    }
}

/// Taking the fsync off the store's lock must not thin the fsyncs out: with
/// the batch's age out of the picture, 2 004 mutations at `max_ops` 64 are 31
/// full batches and the closing barrier's one.
#[test]
fn five_hundred_activations_at_max_ops_64_make_32_group_commit_fsyncs() {
    let tel = Telemetry::attached();
    let by_count = Durability::Batched { max_ops: 64, max_delay: Duration::from_secs(3600) };
    let options =
        DurableOptions { durability: by_count, telemetry: tel.clone(), ..Default::default() };
    let p = ProvenanceStore::open_env(Box::new(MemEnv::new()), options).expect("fresh env");
    assert_eq!(campaign(&p, 500), 2_004);
    assert_eq!(tel.histogram("provstore.group_commit").expect("attached").count(), 32);
}
