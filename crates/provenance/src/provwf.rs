//! The PROV-Wf provenance model and recording API.
//!
//! Mirrors SciCumulus' PostgreSQL schema as used by the paper's queries:
//! `hworkflow` (one row per workflow execution), `hactivity` (per activity),
//! `hactivation` (per activity execution/task), `hfile` (produced files),
//! `hparameter` (extracted domain values), `hmachine` (VMs used).
//!
//! The store is thread-safe: workers record activations concurrently while
//! the user runs *runtime provenance queries* — the SciCumulus feature the
//! paper highlights for steering.
//!
//! Every store keeps its tables in one engine, a [`PagedDb`]: slotted-page
//! heap files with B+tree secondary indexes ([`PROV_INDEXES`]) that the
//! planner turns steering predicates into. [`ProvenanceStore::new`] keeps
//! the pages in memory; the durable constructors ([`ProvenanceStore::open`]
//! and friends) put a write-ahead log + snapshot engine underneath the same
//! tables so the same API survives crashes — see [`crate::durable`] for the
//! storage format and guarantees.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use telemetry::Histogram;

use crate::durable::engine::DurableEngine;
use crate::durable::io::{DirEnv, StorageEnv};
use crate::durable::wal::WalOp;
use crate::durable::{Counters, Durability, DurableError, DurableOptions};
use crate::sql::ast::Query;
use crate::sql::exec::bind_params;
use crate::sql::volcano::{build_pipeline, ExecCtx, Pipeline};
use crate::sql::{explain_query, parse, run_query, QueryError, ResultSet};
use crate::storage::pager::{FilePageStore, MemPageStore, PageStore};
use crate::storage::{PagedDb, TableProvider};
use crate::table::{Database, DbError, Schema};
use crate::value::{Value, ValueType};

/// Workflow execution id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkflowId(pub i64);

/// Activity id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub i64);

/// Activation (task) id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub i64);

/// Machine (VM) id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub i64);

/// Status of an activation. All but [`ActivationStatus::Running`] are
/// terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationStatus {
    /// Completed successfully.
    Finished,
    /// Failed and is eligible for re-execution.
    Failed,
    /// Entered a looping state and was aborted by the engine (paper §V.C).
    Aborted,
    /// Never executed: input was blacklisted (e.g. Hg-containing receptor).
    Blacklisted,
    /// Currently executing — written by the live-steering bridge so runtime
    /// queries see in-flight work; replaced in place by a terminal status.
    Running,
}

impl ActivationStatus {
    /// The string stored in the `status` column.
    pub fn as_str(self) -> &'static str {
        match self {
            ActivationStatus::Finished => "FINISHED",
            ActivationStatus::Failed => "FAILED",
            ActivationStatus::Aborted => "ABORTED",
            ActivationStatus::Blacklisted => "BLACKLISTED",
            ActivationStatus::Running => "RUNNING",
        }
    }

    /// Is this a terminal (will-not-change) status?
    pub fn is_terminal(self) -> bool {
        !matches!(self, ActivationStatus::Running)
    }
}

/// Everything recorded for one activation.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationRecord {
    /// The activity this activation belongs to.
    pub activity: ActivityId,
    /// The workflow execution.
    pub workflow: WorkflowId,
    /// Terminal status.
    pub status: ActivationStatus,
    /// Simulated/virtual seconds since experiment epoch.
    pub start_time: f64,
    /// End of the activation (same clock as `start_time`).
    pub end_time: f64,
    /// VM that ran it, if any.
    pub machine: Option<MachineId>,
    /// Re-execution attempts before this terminal record.
    pub retries: i64,
    /// Which receptor–ligand pair this activation processed (tuple key).
    pub pair_key: String,
}

struct Inner {
    /// The PROV-Wf tables. Every mutation reaches them through [`plan_op`].
    db: PagedDb,
    counters: Counters,
    /// Present on stores opened via a durable constructor; `None` keeps the
    /// store purely in-memory (the default — zero I/O on any path).
    engine: Option<DurableEngine>,
}

impl Inner {
    /// Apply one record to the tables. Returns `false` only for an update
    /// of an `hactivation` row that does not exist.
    fn apply(&mut self, op: &WalOp) -> bool {
        plan_op(&mut self.db, &mut self.counters, op)
    }

    /// Log one applied record when durable (and maybe checkpoint).
    ///
    /// The WAL append happens under the same lock as the table mutation, so
    /// WAL order always equals application order — the invariant replay
    /// relies on. Only the fsync, when one is due, is left to
    /// [`ProvenanceStore::transact`], which runs it with the lock released.
    ///
    /// # Panics
    /// Panics if the durable layer fails to append or checkpoint, or has
    /// failed an fsync before: a store that promised durability but can no
    /// longer write its log must not keep acknowledging mutations.
    /// (Fault-injection tests use exactly this panic as a simulated crash.)
    fn log(&mut self, op: &WalOp) {
        if let Some(eng) = &mut self.engine {
            eng.append(op).expect("provstore: durable WAL append failed");
            if eng.should_checkpoint() {
                self.checkpoint_now();
            }
        }
    }

    /// Apply one record and log it. A record that does not apply (see
    /// [`Inner::apply`]) is not logged either, and `false` comes back.
    fn commit(&mut self, op: WalOp) -> bool {
        let applied = self.apply(&op);
        if applied {
            self.log(&op);
        }
        applied
    }

    /// Every table, sorted by name.
    fn table_names(&self) -> Vec<String> {
        self.db.table_names().into_iter().map(str::to_string).collect()
    }

    /// Every row of `table` in insertion order.
    fn scan_all(&self, table: &str) -> Vec<Vec<Value>> {
        let rows = self.db.scan_entries(table, 0, usize::MAX).unwrap_or_default();
        rows.into_iter().map(|(_, row)| row).collect()
    }

    /// Snapshot the current state and truncate the WAL. Dirty pages are
    /// flushed first so the page file is coherent with the snapshot; the
    /// snapshot is encoded straight from the tables (the WAL/snapshot pair
    /// stays the durability source of truth — the page file is a
    /// rebuildable acceleration structure).
    ///
    /// # Panics
    /// Panics if the snapshot cannot be written (same contract as `log`).
    fn checkpoint_now(&mut self) {
        self.db.flush_pages();
        let names = self.table_names();
        if let Some(eng) = &mut self.engine {
            eng.checkpoint(&self.db, &names, &self.counters)
                .expect("provstore: snapshot checkpoint failed");
        }
    }

    fn file_op(
        &self,
        task: i64,
        activity: ActivityId,
        workflow: WorkflowId,
        (fname, fsize, fdir): (&str, i64, &str),
    ) -> WalOp {
        WalOp::RecordFile {
            id: self.counters.next_file,
            task,
            activity: activity.0,
            workflow: workflow.0,
            fname: fname.to_string(),
            fsize,
            fdir: fdir.to_string(),
        }
    }

    fn parameter_op(
        &self,
        task: i64,
        workflow: WorkflowId,
        name: &str,
        num: Option<f64>,
        text: Option<&str>,
    ) -> WalOp {
        WalOp::RecordParameter {
            id: self.counters.next_param,
            task,
            workflow: workflow.0,
            name: name.to_string(),
            num,
            text: text.map(str::to_string),
        }
    }

    fn output_tuple_op(
        &self,
        task: i64,
        activity: ActivityId,
        workflow: WorkflowId,
        pair_key: &str,
        tuple_idx: usize,
        tuple: &[Value],
    ) -> WalOp {
        WalOp::RecordOutputTuple {
            first_id: self.counters.next_output,
            task,
            activity: activity.0,
            workflow: workflow.0,
            pair_key: pair_key.to_string(),
            tuple_idx: tuple_idx as i64,
            tuple: tuple.to_vec(),
        }
    }
}

/// Apply one logged record to the tables, advancing the id counters.
/// Returns `false` only for an [`WalOp::UpdateActivation`] whose task id is
/// unknown (the live path never logs those); the rows of a group before it
/// stay applied.
///
/// This is the **only** code path that decides what the PROV-Wf tables
/// contain: live mutations build a [`WalOp`] and run it through here before
/// logging, and recovery replays logged ops through the same function — so
/// a replayed store is bit-for-bit the store the ops originally built.
/// Secondary index maintenance happens inside [`PagedDb`].
fn plan_op(db: &mut PagedDb, c: &mut Counters, op: &WalOp) -> bool {
    fn activation_row(task: i64, rec: &ActivationRecord) -> Vec<Value> {
        vec![
            Value::Int(task),
            Value::Int(rec.activity.0),
            Value::Int(rec.workflow.0),
            rec.status.as_str().into(),
            Value::Timestamp(rec.start_time),
            Value::Timestamp(rec.end_time),
            rec.machine.map(|m| Value::Int(m.0)).unwrap_or(Value::Null),
            Value::Int(rec.retries),
            rec.pair_key.as_str().into(),
        ]
    }
    let (table, row) = match op {
        WalOp::BeginWorkflow { id, tag, description, expdir } => {
            c.next_wkf = c.next_wkf.max(id + 1);
            let row = vec![
                Value::Int(*id),
                tag.as_str().into(),
                description.as_str().into(),
                expdir.as_str().into(),
            ];
            ("hworkflow", row)
        }
        WalOp::RegisterActivity { id, wkf, tag, acttype } => {
            c.next_act = c.next_act.max(id + 1);
            let row = vec![
                Value::Int(*id),
                Value::Int(*wkf),
                tag.as_str().into(),
                acttype.as_str().into(),
            ];
            ("hactivity", row)
        }
        WalOp::RegisterMachine { id, name, instance_type, cores } => {
            c.next_machine = c.next_machine.max(id + 1);
            let row = vec![
                Value::Int(*id),
                name.as_str().into(),
                instance_type.as_str().into(),
                Value::Int(*cores),
            ];
            ("hmachine", row)
        }
        WalOp::RecordActivation { task, rec } => {
            c.next_task = c.next_task.max(task + 1);
            ("hactivation", activation_row(*task, rec))
        }
        WalOp::UpdateActivation { task, rec } => {
            // taskid-index point lookup; the row it finds is the row rewritten
            let row = activation_row(*task, rec);
            return db.update_by_int("hactivation", "taskid", *task, row).expect("schema matches");
        }
        WalOp::RecordFile { id, task, activity, workflow, fname, fsize, fdir } => {
            c.next_file = c.next_file.max(id + 1);
            let row = vec![
                Value::Int(*id),
                Value::Int(*task),
                Value::Int(*activity),
                Value::Int(*workflow),
                fname.as_str().into(),
                Value::Int(*fsize),
                fdir.as_str().into(),
            ];
            ("hfile", row)
        }
        WalOp::RecordParameter { id, task, workflow, name, num, text } => {
            c.next_param = c.next_param.max(id + 1);
            let row = vec![
                Value::Int(*id),
                Value::Int(*task),
                Value::Int(*workflow),
                name.as_str().into(),
                num.map(Value::Float).unwrap_or(Value::Null),
                text.as_deref().map(Value::from).unwrap_or(Value::Null),
            ];
            ("hparameter", row)
        }
        WalOp::RecordOutputTuple {
            first_id,
            task,
            activity,
            workflow,
            pair_key,
            tuple_idx,
            tuple,
        } => {
            let mut id = *first_id;
            let mut push = |id: i64, colidx: i64, num: Option<f64>, text: Option<String>| {
                let row = vec![
                    Value::Int(id),
                    Value::Int(*task),
                    Value::Int(*activity),
                    Value::Int(*workflow),
                    pair_key.as_str().into(),
                    Value::Int(*tuple_idx),
                    Value::Int(colidx),
                    num.map(Value::Float).unwrap_or(Value::Null),
                    text.map(Value::from).unwrap_or(Value::Null),
                ];
                db.insert("houtput", row).expect("schema matches");
            };
            for (col, v) in tuple.iter().enumerate() {
                let (num, text) = match v {
                    Value::Int(i) => (Some(*i as f64), None),
                    Value::Float(f) => (Some(*f), None),
                    Value::Timestamp(t) => (Some(*t), None),
                    Value::Text(s) => (None, Some(s.clone())),
                    Value::Bool(b) => (Some(*b as i64 as f64), None),
                    Value::Null => (None, None),
                };
                push(id, col as i64, num, text);
                id += 1;
            }
            // arity-0 tuples still need a marker row so resume can
            // distinguish "finished with no output" from "never ran"
            if tuple.is_empty() {
                push(id, -1, None, None);
                id += 1;
            }
            c.next_output = c.next_output.max(id);
            return true;
        }
        WalOp::Group(ops) => return ops.iter().all(|op| plan_op(db, c, op)),
    };
    db.insert(table, row).expect("schema matches");
    true
}

/// The provenance store.
pub struct ProvenanceStore {
    /// Shared with live [`QueryCursor`]s, which re-lock per `next_row` call
    /// so a half-drained cursor never blocks recording.
    inner: Arc<Mutex<Inner>>,
    /// `provstore.lock_wait` / `provstore.lock_hold`, in nanoseconds, when a
    /// durable store was opened with telemetry attached.
    lock_times: Option<(Arc<Histogram>, Arc<Histogram>)>,
}

/// The secondary indexes `(table, index, columns)` installed over the
/// PROV-Wf schema on every store: exactly the ones an `EXPLAIN` of a shipped
/// query picks, plus `ix_hactivation_taskid`, which rewrites a `RUNNING` row
/// in place. Every index costs each insert into its table a B+tree write,
/// so one no query reads is pure ingest cost. Order matters: the planner
/// breaks ties by it. See DESIGN.md §15.
pub const PROV_INDEXES: &[(&str, &str, &[&str])] = &[
    ("hworkflow", "ix_hworkflow_wkfid", &["wkfid"]),
    ("hactivity", "ix_hactivity_actid", &["actid"]),
    ("hactivity", "ix_hactivity_wkfid", &["wkfid"]),
    ("hactivation", "ix_hactivation_taskid", &["taskid"]),
    ("hactivation", "ix_hactivation_wkfid_status", &["wkfid", "status"]),
    ("hactivation", "ix_hactivation_actid", &["actid"]),
    ("hactivation", "ix_hactivation_status", &["status"]),
    ("hactivation", "ix_hactivation_endtime", &["endtime"]),
    ("hactivation", "ix_hactivation_pairkey", &["pairkey"]),
    ("hparameter", "ix_hparameter_taskid", &["taskid"]),
    ("hparameter", "ix_hparameter_pname", &["pname"]),
];

/// Build a [`PagedDb`] over `store` with the contents of `db` and the
/// standard PROV-Wf index set (backfilled over any recovered rows).
fn paged_from_db(db: &Database, store: Box<dyn PageStore>) -> PagedDb {
    let mut pg = PagedDb::new(store, crate::storage::paged::DEFAULT_CACHE_PAGES);
    for name in db.table_names() {
        let t = db.table(name).expect("listed table");
        pg.create_table(name, t.schema.clone()).expect("fresh paged db");
        for row in t.rows() {
            pg.insert(name, row.clone()).expect("row was valid in the source db");
        }
    }
    for (table, name, cols) in PROV_INDEXES {
        pg.create_index(table, name, cols).expect("fresh paged db");
    }
    pg
}

impl Default for ProvenanceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvenanceStore {
    /// The PROV-Wf schema, freshly installed in an empty database.
    fn schema_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "hworkflow",
            Schema::new(&[
                ("wkfid", ValueType::Int),
                ("tag", ValueType::Text),
                ("description", ValueType::Text),
                ("expdir", ValueType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "hactivity",
            Schema::new(&[
                ("actid", ValueType::Int),
                ("wkfid", ValueType::Int),
                ("tag", ValueType::Text),
                ("acttype", ValueType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "hactivation",
            Schema::new(&[
                ("taskid", ValueType::Int),
                ("actid", ValueType::Int),
                ("wkfid", ValueType::Int),
                ("status", ValueType::Text),
                ("starttime", ValueType::Timestamp),
                ("endtime", ValueType::Timestamp),
                ("vmid", ValueType::Int),
                ("retries", ValueType::Int),
                ("pairkey", ValueType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "hfile",
            Schema::new(&[
                ("fileid", ValueType::Int),
                ("taskid", ValueType::Int),
                ("actid", ValueType::Int),
                ("wkfid", ValueType::Int),
                ("fname", ValueType::Text),
                ("fsize", ValueType::Int),
                ("fdir", ValueType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "hparameter",
            Schema::new(&[
                ("paramid", ValueType::Int),
                ("taskid", ValueType::Int),
                ("wkfid", ValueType::Int),
                ("pname", ValueType::Text),
                ("pvalue_num", ValueType::Float),
                ("pvalue_text", ValueType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "houtput",
            Schema::new(&[
                ("outid", ValueType::Int),
                ("taskid", ValueType::Int),
                ("actid", ValueType::Int),
                ("wkfid", ValueType::Int),
                ("pairkey", ValueType::Text),
                ("tupleidx", ValueType::Int),
                ("colidx", ValueType::Int),
                ("val_num", ValueType::Float),
                ("val_text", ValueType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "hmachine",
            Schema::new(&[
                ("vmid", ValueType::Int),
                ("vmname", ValueType::Text),
                ("instancetype", ValueType::Text),
                ("cores", ValueType::Int),
            ]),
        )
        .expect("fresh database");
        db
    }

    /// Create a purely in-memory store with the PROV-Wf schema and
    /// [`PROV_INDEXES`] installed: the paged engine over an in-memory page
    /// store, so queries take the same index access paths as on a durable
    /// store.
    pub fn new() -> ProvenanceStore {
        let db = paged_from_db(&Self::schema_db(), Box::new(MemPageStore::new()));
        ProvenanceStore {
            inner: Arc::new(Mutex::new(Inner { db, counters: Counters::default(), engine: None })),
            lock_times: None,
        }
    }

    // `new()` under a second name, which the benchmark's layer suite calls
    #[doc(hidden)]
    pub fn new_paged() -> ProvenanceStore {
        Self::new()
    }

    /// Open (or create) a durable store in directory `dir` with default
    /// [`DurableOptions`] — group commit, periodic snapshot compaction.
    ///
    /// Existing state is recovered first: the snapshot is loaded, the WAL
    /// tail replayed, and any torn tail truncated at the first bad
    /// checksum.
    pub fn open(dir: impl AsRef<Path>) -> Result<ProvenanceStore, DurableError> {
        Self::open_with(dir, DurableOptions::default())
    }

    /// [`ProvenanceStore::open`] with explicit durability options.
    ///
    /// The page file (`pages.db` next to the WAL and snapshot) is a rebuildable
    /// acceleration structure: it is recreated from the snapshot + WAL on
    /// every open, so crash safety rests entirely on the logged state.
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<ProvenanceStore, DurableError> {
        let dir = dir.as_ref();
        let env = Box::new(DirEnv::new(dir)?);
        let pages = FilePageStore::create(&dir.join("pages.db"))?;
        Self::open_env_on(env, options, Box::new(pages))
    }

    /// Open a durable store on an arbitrary [`StorageEnv`] — how tests
    /// inject in-memory envs and fault plans. Pages live in memory.
    pub fn open_env(
        env: Box<dyn StorageEnv>,
        options: DurableOptions,
    ) -> Result<ProvenanceStore, DurableError> {
        Self::open_env_on(env, options, Box::new(MemPageStore::new()))
    }

    fn open_env_on(
        env: Box<dyn StorageEnv>,
        options: DurableOptions,
        pages: Box<dyn PageStore>,
    ) -> Result<ProvenanceStore, DurableError> {
        let (engine, recovered) = DurableEngine::open(env, &options)?;
        let tel = &options.telemetry;
        let lock_times =
            tel.histogram("provstore.lock_wait").zip(tel.histogram("provstore.lock_hold"));
        let (snap_db, mut counters) = match recovered.snapshot {
            Some((db, counters)) => (db, counters),
            None => (Self::schema_db(), Counters::default()),
        };
        let mut db = paged_from_db(&snap_db, pages);
        for op in &recovered.ops {
            plan_op(&mut db, &mut counters, op);
        }
        let upgrade = engine.stale_header();
        let mut inner = Inner { db, counters, engine: Some(engine) };
        if upgrade {
            // a log from before WAL version 2 must not receive records an
            // older binary would mistake for a torn tail: fold it into a
            // snapshot, which restarts the log under the current header
            inner.checkpoint_now();
        }
        Ok(ProvenanceStore { inner: Arc::new(Mutex::new(inner)), lock_times })
    }

    /// Run one store call's mutations under the store's lock, and only
    /// after releasing it wait for the disk: if what `f` logged left a
    /// ticket (see [`crate::durable`]), return once that record is durable.
    /// Every mutating method and [`flush_wal`](Self::flush_wal) go through
    /// here, so no fsync is ever issued with the lock held except a
    /// checkpoint's.
    ///
    /// # Panics
    /// Panics if the fsync fails, or one failed before: the record may not
    /// be durable, so the call must not be acknowledged.
    fn transact<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let asked = self.lock_times.as_ref().map(|h| (h, Instant::now()));
        let mut g = self.inner.lock();
        let timed = asked.map(|(h, asked)| (h, asked, Instant::now()));
        let out = f(&mut g);
        let due = g.engine.as_mut().and_then(DurableEngine::take_due);
        drop(g);
        if let Some(((wait, hold), asked, locked)) = timed {
            wait.record((locked - asked).as_nanos() as u64);
            hold.record(locked.elapsed().as_nanos() as u64);
        }
        if let Some((syncer, seq)) = due {
            syncer.sync_to(seq).expect("provstore: WAL fsync failed");
        }
        out
    }

    /// Is this store backed by a durable engine?
    pub fn is_durable(&self) -> bool {
        self.inner.lock().engine.is_some()
    }

    /// Change the commit policy of a durable store (no-op when in-memory).
    /// Pending appends are flushed under the old policy first.
    pub fn set_durability(&self, durability: Durability) {
        self.transact(|g| {
            if let Some(eng) = &mut g.engine {
                eng.ticket();
                eng.set_durability(durability);
            }
        });
    }

    /// Group-commit barrier: force every acknowledged mutation to durable
    /// storage now (no-op when in-memory). The steering bridge calls this
    /// after flushing RUNNING rows; the local backend calls it at run end.
    pub fn flush_wal(&self) {
        self.transact(|g| {
            if let Some(eng) = &mut g.engine {
                eng.ticket();
            }
        });
    }

    /// Take a snapshot checkpoint now, truncating the WAL. Returns `false`
    /// for an in-memory store.
    pub fn checkpoint(&self) -> bool {
        let mut g = self.inner.lock();
        if g.engine.is_none() {
            return false;
        }
        g.checkpoint_now();
        true
    }

    /// Register a workflow execution.
    pub fn begin_workflow(&self, tag: &str, description: &str, expdir: &str) -> WorkflowId {
        self.transact(|g| {
            let id = g.counters.next_wkf;
            g.commit(WalOp::BeginWorkflow {
                id,
                tag: tag.to_string(),
                description: description.to_string(),
                expdir: expdir.to_string(),
            });
            WorkflowId(id)
        })
    }

    /// Register an activity of a workflow.
    pub fn register_activity(&self, wkf: WorkflowId, tag: &str, acttype: &str) -> ActivityId {
        self.transact(|g| {
            let id = g.counters.next_act;
            g.commit(WalOp::RegisterActivity {
                id,
                wkf: wkf.0,
                tag: tag.to_string(),
                acttype: acttype.to_string(),
            });
            ActivityId(id)
        })
    }

    /// Register a VM.
    pub fn register_machine(&self, name: &str, instance_type: &str, cores: i64) -> MachineId {
        self.transact(|g| {
            let id = g.counters.next_machine;
            g.commit(WalOp::RegisterMachine {
                id,
                name: name.to_string(),
                instance_type: instance_type.to_string(),
                cores,
            });
            MachineId(id)
        })
    }

    /// Record one activation.
    pub fn record_activation(&self, rec: &ActivationRecord) -> TaskId {
        self.transact(|g| {
            let id = g.counters.next_task;
            g.commit(WalOp::RecordActivation { task: id, rec: rec.clone() });
            TaskId(id)
        })
    }

    /// Replace the row of an existing activation in place.
    ///
    /// This is the live-steering write path: a `RUNNING` row inserted when
    /// the activation started is overwritten with its terminal record, so
    /// `status_summary` never double-counts the activation. Returns `false`
    /// when `task` is unknown (the row is then left to the caller to insert).
    pub fn update_activation(&self, task: TaskId, rec: &ActivationRecord) -> bool {
        // an unknown task does not apply, and what does not apply is not logged
        self.transact(|g| g.commit(WalOp::UpdateActivation { task: task.0, rec: rec.clone() }))
    }

    /// Record a file produced by an activation.
    pub fn record_file(
        &self,
        task: TaskId,
        activity: ActivityId,
        workflow: WorkflowId,
        fname: &str,
        fsize: i64,
        fdir: &str,
    ) {
        self.transact(|g| {
            let op = g.file_op(task.0, activity, workflow, (fname, fsize, fdir));
            g.commit(op);
        });
    }

    /// Record an extracted domain parameter (numeric, textual, or both).
    pub fn record_parameter(
        &self,
        task: TaskId,
        workflow: WorkflowId,
        name: &str,
        num: Option<f64>,
        text: Option<&str>,
    ) {
        self.transact(|g| {
            let op = g.parameter_op(task.0, workflow, name, num, text);
            g.commit(op);
        });
    }

    /// Persist one output tuple of an activation (SciCumulus stores the
    /// workflow algebra's relations in the provenance database; this is what
    /// makes re-execution able to skip finished activations).
    ///
    /// Each cell is stored as a numeric or textual value; other types are
    /// stored as their display text.
    pub fn record_output_tuple(
        &self,
        task: TaskId,
        activity: ActivityId,
        workflow: WorkflowId,
        pair_key: &str,
        tuple_idx: usize,
        tuple: &[Value],
    ) {
        self.transact(|g| {
            let op = g.output_tuple_op(task.0, activity, workflow, pair_key, tuple_idx, tuple);
            g.commit(op);
        });
    }

    /// Commit a finished activation whole: its produced `files` (`(fname,
    /// fsize, fdir)`, as for [`record_file`](Self::record_file)), extracted
    /// `params`, output `tuples` (keyed by `rec.pair_key`, numbered in
    /// order) and last its `hactivation` row `rec` — inserted, or, when
    /// `running` names the `RUNNING` row the steering bridge published for
    /// the attempt, written over that row. Returns the activation's task id.
    ///
    /// The rows are those the per-row methods would write, with ids from
    /// the same counters in the same order; but they take the store's lock
    /// once and are logged as **one** WAL record, so a crash leaves either
    /// all of them or none: a recovered `FINISHED` row always has its
    /// complete outputs, and no output row outlives its activation.
    ///
    /// # Panics
    /// Panics if `running` names a task the store never recorded.
    pub fn commit_activation(
        &self,
        running: Option<TaskId>,
        rec: &ActivationRecord,
        files: &[(&str, i64, &str)],
        params: &[(String, Option<f64>, Option<String>)],
        tuples: &[Vec<Value>],
    ) -> TaskId {
        self.transact(|g| {
            let task = running.map_or(g.counters.next_task, |t| t.0);
            let mut ops = Vec::with_capacity(files.len() + params.len() + tuples.len() + 1);
            // each op takes its id from the counters as the ops before it left
            // them, exactly as a sequence of per-row calls would
            let mut stage = |g: &mut Inner, op: WalOp| {
                let applied = g.apply(&op);
                assert!(applied, "commit_activation: no RUNNING row for task {task}");
                ops.push(op);
            };
            for &file in files {
                let op = g.file_op(task, rec.activity, rec.workflow, file);
                stage(g, op);
            }
            for (name, num, text) in params {
                let op = g.parameter_op(task, rec.workflow, name, *num, text.as_deref());
                stage(g, op);
            }
            for (ti, tuple) in tuples.iter().enumerate() {
                let op =
                    g.output_tuple_op(task, rec.activity, rec.workflow, &rec.pair_key, ti, tuple);
                stage(g, op);
            }
            let row = match running {
                Some(_) => WalOp::UpdateActivation { task, rec: rec.clone() },
                None => WalOp::RecordActivation { task, rec: rec.clone() },
            };
            stage(g, row);
            g.log(&WalOp::Group(ops));
            TaskId(task)
        })
    }

    /// Recover the recorded output tuples of every FINISHED activation of
    /// `activity_tag` in workflow `wkf`, keyed by the activation's pair key.
    ///
    /// Numeric cells come back as `Float` (the storage type), so resumed
    /// relations are value-equal, not necessarily type-identical, to the
    /// originals.
    pub fn finished_outputs(
        &self,
        wkf: WorkflowId,
        activity_tag: &str,
    ) -> std::collections::HashMap<String, Vec<Vec<Value>>> {
        let g = self.inner.lock();
        // resolve activity id + the set of finished taskids, then collect
        // output rows (done with direct table scans: this is engine-internal,
        // not a user query)
        let mut out: std::collections::HashMap<String, Vec<Vec<Value>>> = Default::default();
        let activities = g.scan_all("hactivity");
        let act_id = activities.iter().find_map(|r| {
            let id = r[0].as_f64()? as i64;
            let w = r[1].as_f64()? as i64;
            let tag = r[2].as_str()?;
            (w == wkf.0 && tag == activity_tag).then_some(id)
        });
        let Some(act_id) = act_id else { return out };
        let finished: std::collections::HashMap<i64, String> = g
            .scan_all("hactivation")
            .iter()
            .filter_map(|r| {
                let task = r[0].as_f64()? as i64;
                let a = r[1].as_f64()? as i64;
                let status = r[3].as_str()?;
                let pk = r[8].as_str()?;
                (a == act_id && status == "FINISHED").then(|| (task, pk.to_string()))
            })
            .collect();
        // (pair_key, tuple_idx) -> Vec<(colidx, value)>
        let mut cells: std::collections::HashMap<(String, i64), Vec<(i64, Value)>> =
            Default::default();
        for r in &g.scan_all("houtput") {
            let task = match r[1].as_f64() {
                Some(t) => t as i64,
                None => continue,
            };
            let Some(pk) = finished.get(&task) else {
                continue;
            };
            let tuple_idx = r[5].as_f64().unwrap_or(0.0) as i64;
            let colidx = r[6].as_f64().unwrap_or(-1.0) as i64;
            let value = if colidx < 0 {
                continue; // arity-0 marker
            } else if !r[7].is_null() {
                r[7].clone()
            } else if !r[8].is_null() {
                r[8].clone()
            } else {
                Value::Null
            };
            cells.entry((pk.clone(), tuple_idx)).or_default().push((colidx, value));
        }
        // even activations that produced nothing must appear
        for pk in finished.values() {
            out.entry(pk.clone()).or_default();
        }
        // (pair key, taskid) → column-indexed cells
        type KeyedCells = Vec<((String, i64), Vec<(i64, Value)>)>;
        let mut keyed: KeyedCells = cells.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        for ((pk, _), mut cols) in keyed {
            cols.sort_by_key(|(c, _)| *c);
            out.entry(pk).or_default().push(cols.into_iter().map(|(_, v)| v).collect());
        }
        out
    }

    /// Run a SQL query, returning a streaming [`QueryCursor`].
    ///
    /// This is SciCumulus' *runtime provenance query* facility, redesigned
    /// around streaming: the query is parsed, parameter-bound, and planned
    /// up front (under a brief lock), then rows are pulled one at a time
    /// with [`QueryCursor::next_row`] — each pull re-locks the store, so a
    /// half-read cursor never blocks workers recording activations.
    ///
    /// `?` placeholders (numbered left to right) become [`Value`] literals
    /// after parsing, so caller-supplied values can never change the query's
    /// structure. Pass `&[]` for a query without parameters.
    ///
    /// Prefixing the SQL with `EXPLAIN ` returns the chosen plan instead:
    /// one `plan` column, one row per line of the operator tree, including
    /// which index (if any) each table access uses.
    ///
    /// Cursors do not snapshot: rows recorded while a cursor is open may or
    /// may not appear in its remaining output. Use [`query_rows`] for a
    /// point-in-time materialized result under one lock acquisition.
    ///
    /// [`query_rows`]: ProvenanceStore::query_rows
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryCursor, QueryError> {
        let (q, explain) = Self::prepare(sql, params)?;
        let g = self.inner.lock();
        if explain {
            let r = explain_query(&g.db, &q)?;
            return Ok(QueryCursor {
                inner: Arc::clone(&self.inner),
                columns: Arc::new(r.columns),
                src: CursorSrc::Rows(r.rows.into_iter()),
            });
        }
        let pipe = build_pipeline(&g.db, &q)?;
        Ok(QueryCursor::from_pipeline(Arc::clone(&self.inner), pipe))
    }

    /// Parse `sql` (honoring a leading case-insensitive `EXPLAIN ` prefix)
    /// and bind `?` placeholders. Returns the bound query and whether it was
    /// an EXPLAIN.
    fn prepare(sql: &str, params: &[Value]) -> Result<(Query, bool), QueryError> {
        let trimmed = sql.trim_start();
        let explain = trimmed.get(..8).is_some_and(|p| p.eq_ignore_ascii_case("explain "));
        let mut q = parse(if explain { &trimmed[8..] } else { sql })?;
        bind_params(&mut q, params)?;
        Ok((q, explain))
    }

    /// Run a prepared query (or its EXPLAIN) to completion under one lock
    /// acquisition.
    fn run_prepared(&self, q: &Query, explain: bool) -> Result<ResultSet, QueryError> {
        let g = self.inner.lock();
        if explain {
            explain_query(&g.db, q)
        } else {
            run_query(&g.db, q)
        }
    }

    /// [`ProvenanceStore::query`], fully materialized: runs the query to
    /// completion under one lock acquisition and returns the whole
    /// [`ResultSet`].
    pub fn query_rows(&self, sql: &str, params: &[Value]) -> Result<ResultSet, QueryError> {
        let (q, explain) = Self::prepare(sql, params)?;
        self.run_prepared(&q, explain)
    }

    /// [`ProvenanceStore::query_rows`] with a typed row cap: at most `n`
    /// rows, or fewer when the query's own `LIMIT` is lower. The cap is never
    /// spliced into the SQL text, and is enforced by the pipeline's `Limit`
    /// operator — upstream operators are never pulled past it, rather than
    /// truncating a materialized result. An `EXPLAIN` shows the capped plan.
    pub fn query_limited(&self, sql: &str, n: usize) -> Result<ResultSet, QueryError> {
        let (mut q, explain) = Self::prepare(sql, &[])?;
        q.limit = Some(q.limit.map_or(n, |own| own.min(n)));
        self.run_prepared(&q, explain)
    }

    /// Row counts per table (diagnostics).
    pub fn stats(&self) -> Vec<(String, usize)> {
        let g = self.inner.lock();
        g.table_names()
            .into_iter()
            .map(|n| {
                let count = g.db.row_count(&n).unwrap_or(0) as usize;
                (n, count)
            })
            .collect()
    }

    /// All registered workflow executions as `(id, tag)`, in id order —
    /// how a fresh process discovers what a recovered store contains.
    pub fn workflows(&self) -> Vec<(WorkflowId, String)> {
        let g = self.inner.lock();
        let mut out: Vec<(WorkflowId, String)> = g
            .scan_all("hworkflow")
            .iter()
            .filter_map(|r| {
                let id = r[0].as_f64()? as i64;
                let tag = r[1].as_str()?.to_string();
                Some((WorkflowId(id), tag))
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The most recently begun workflow execution, if any — the natural
    /// resume target after reopening a durable store.
    pub fn latest_workflow(&self) -> Option<WorkflowId> {
        self.workflows().into_iter().map(|(id, _)| id).max()
    }

    /// Full table dump, sorted by table name: `(table, rows)`. Used by the
    /// recovery property tests to compare stores for exact state equality;
    /// not a user query surface.
    pub fn dump_tables(&self) -> Vec<(String, Vec<Vec<Value>>)> {
        let g = self.inner.lock();
        g.table_names()
            .into_iter()
            .map(|n| {
                let rows = g.scan_all(&n);
                (n, rows)
            })
            .collect()
    }

    /// Page-cache statistics (hits, misses, evictions, writebacks).
    pub fn cache_stats(&self) -> crate::storage::pager::CacheStats {
        self.inner.lock().db.cache_stats()
    }

    /// Run the tables' structural checks — B+tree ordering, index ↔ heap
    /// agreement, page bookkeeping. Crash-recovery tests call this after
    /// every reopen.
    pub fn verify_integrity(&self) -> Result<(), String> {
        self.inner.lock().db.verify_integrity()
    }
}

/// Where a [`QueryCursor`] pulls its rows from.
enum CursorSrc {
    /// A live operator pipeline (re-locks the store per pull).
    Pipe(Pipeline),
    /// Pre-materialized rows (EXPLAIN output).
    Rows(std::vec::IntoIter<Vec<Value>>),
}

/// A streaming handle over one query's results.
///
/// Returned by [`ProvenanceStore::query`]. Rows are produced on demand by
/// [`next_row`](QueryCursor::next_row); each pull briefly locks the store,
/// so holding a cursor open does not block concurrent recording. Dropping
/// the cursor abandons the rest of the query — there is nothing to clean up.
///
/// Cursors do not snapshot: mutations racing a cursor may or may not be
/// visible in its remaining rows.
pub struct QueryCursor {
    inner: Arc<Mutex<Inner>>,
    columns: Arc<Vec<String>>,
    src: CursorSrc,
}

impl QueryCursor {
    fn from_pipeline(inner: Arc<Mutex<Inner>>, pipe: Pipeline) -> QueryCursor {
        let columns = Arc::new(pipe.columns.clone());
        QueryCursor { inner, columns, src: CursorSrc::Pipe(pipe) }
    }

    /// Output column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Pull the next row, or `None` when the query is exhausted.
    pub fn next_row(&mut self) -> Result<Option<Row>, QueryError> {
        let values = match &mut self.src {
            CursorSrc::Pipe(pipe) => {
                let g = self.inner.lock();
                let cx = ExecCtx { provider: &g.db };
                pipe.next_row(&cx)?
            }
            CursorSrc::Rows(it) => it.next(),
        };
        Ok(values.map(|values| Row { columns: Arc::clone(&self.columns), values }))
    }

    /// Drain the cursor into a materialized [`ResultSet`].
    pub fn collect(mut self) -> Result<ResultSet, QueryError> {
        let mut rows = Vec::new();
        while let Some(row) = self.next_row()? {
            rows.push(row.values);
        }
        Ok(ResultSet { columns: self.columns.iter().cloned().collect(), rows })
    }
}

/// One row from a [`QueryCursor`], with typed, error-returning column
/// accessors (the redesign of the old panicking [`ResultSet::cell`] access).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    columns: Arc<Vec<String>>,
    values: Vec<Value>,
}

impl Row {
    /// Column names of this row's result, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The raw values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The value in column `i`, or [`DbError::ColumnOutOfRange`].
    pub fn get(&self, i: usize) -> Result<&Value, DbError> {
        self.values.get(i).ok_or(DbError::ColumnOutOfRange { index: i, arity: self.values.len() })
    }

    /// The value of the column named `name` (matched case-insensitively,
    /// and against the bare name for `binding.column`-style labels).
    pub fn column(&self, name: &str) -> Option<&Value> {
        self.columns
            .iter()
            .position(|c| {
                c.eq_ignore_ascii_case(name)
                    || c.rsplit('.').next().is_some_and(|tail| tail.eq_ignore_ascii_case(name))
            })
            .and_then(|i| self.values.get(i))
    }

    /// Column `i` as an `i64`, or a typed error.
    pub fn int(&self, i: usize) -> Result<i64, DbError> {
        match self.get(i)? {
            Value::Int(v) => Ok(*v),
            other => Err(DbError::CellType {
                index: i,
                expected: ValueType::Int,
                got: other.to_string(),
            }),
        }
    }

    /// Column `i` as an `f64` (accepts any numeric value), or a typed error.
    pub fn float(&self, i: usize) -> Result<f64, DbError> {
        let v = self.get(i)?;
        v.as_f64().ok_or_else(|| DbError::CellType {
            index: i,
            expected: ValueType::Float,
            got: v.to_string(),
        })
    }

    /// Column `i` as text, or a typed error.
    pub fn text(&self, i: usize) -> Result<&str, DbError> {
        match self.get(i)? {
            Value::Text(s) => Ok(s),
            other => Err(DbError::CellType {
                index: i,
                expected: ValueType::Text,
                got: other.to_string(),
            }),
        }
    }

    /// Is column `i` NULL? (Still range-checked.)
    pub fn is_null(&self, i: usize) -> Result<bool, DbError> {
        Ok(self.get(i)?.is_null())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> (ProvenanceStore, WorkflowId, ActivityId, ActivityId) {
        let p = ProvenanceStore::new();
        let w = p.begin_workflow("SciDock", "Docking", "/root/scidock/");
        let babel = p.register_activity(w, "babel1k", "Map");
        let vina = p.register_activity(w, "autodockvina1k", "Map");
        let vm = p.register_machine("vm-1", "m3.xlarge", 4);
        for (act, start, dur, st) in [
            (babel, 0.0, 2.5, ActivationStatus::Finished),
            (babel, 3.0, 1.5, ActivationStatus::Finished),
            (vina, 5.0, 30.0, ActivationStatus::Finished),
            (vina, 40.0, 12.0, ActivationStatus::Failed),
        ] {
            p.record_activation(&ActivationRecord {
                activity: act,
                workflow: w,
                status: st,
                start_time: start,
                end_time: start + dur,
                machine: Some(vm),
                retries: 0,
                pair_key: "1AEC:042".into(),
            });
        }
        (p, w, babel, vina)
    }

    #[test]
    fn paper_query_1_shape() {
        let (p, w, _, _) = populated();
        let sql = format!(
            "SELECT a.tag, \
               min(extract('epoch' from (t.endtime-t.starttime))), \
               max(extract('epoch' from (t.endtime-t.starttime))), \
               sum(extract('epoch' from (t.endtime-t.starttime))), \
               avg(extract('epoch' from (t.endtime-t.starttime))) \
             FROM hworkflow w, hactivity a, hactivation t \
             WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = {} \
             GROUP BY a.tag ORDER BY a.tag",
            w.0
        );
        let r = p.query_rows(&sql, &[]).unwrap();
        assert_eq!(r.len(), 2);
        // autodockvina1k sorts first
        assert_eq!(r.cell(0, 0), &Value::from("autodockvina1k"));
        assert_eq!(r.cell(0, 2), &Value::Float(30.0)); // max
        assert_eq!(r.cell(0, 4), &Value::Float(21.0)); // avg of 30, 12
        assert_eq!(r.cell(1, 0), &Value::from("babel1k"));
        assert_eq!(r.cell(1, 1), &Value::Float(1.5)); // min
        assert_eq!(r.cell(1, 3), &Value::Float(4.0)); // sum
    }

    #[test]
    fn paper_query_2_shape() {
        let (p, w, _, vina) = populated();
        let t = p.record_activation(&ActivationRecord {
            activity: vina,
            workflow: w,
            status: ActivationStatus::Finished,
            start_time: 60.0,
            end_time: 70.0,
            machine: None,
            retries: 0,
            pair_key: "4C5P:GOL".into(),
        });
        p.record_file(t, vina, w, "GOL_4C5P.dlg", 65740, "/root/exp_SciDock/autodock4/223/");
        p.record_file(t, vina, w, "GOL_4C5P.out", 100, "/root/exp_SciDock/autodock4/223/");
        let sql = "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir \
                   FROM hworkflow w, hactivity a, hactivation t, hfile f \
                   WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND t.taskid = f.taskid \
                   AND f.fname LIKE '%.dlg'";
        let r = p.query_rows(sql, &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 2), &Value::from("GOL_4C5P.dlg"));
        assert_eq!(r.cell(0, 3), &Value::Int(65740));
    }

    #[test]
    fn histogram_query_shape() {
        let (p, w, _, _) = populated();
        let sql = format!(
            "SELECT extract('epoch' from (t.endtime-t.starttime)) \
             FROM hworkflow w, hactivity a, hactivation t \
             WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = {} \
             ORDER BY t.endtime",
            w.0
        );
        let r = p.query_rows(&sql, &[]).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.cell(0, 0), &Value::Float(2.5));
    }

    #[test]
    fn failed_activations_queryable() {
        let (p, _, _, _) = populated();
        let r =
            p.query_rows("SELECT count(*) FROM hactivation WHERE status = 'FAILED'", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(1));
    }

    #[test]
    fn machine_join() {
        let (p, _, _, _) = populated();
        let r = p
            .query_rows(
                "SELECT m.instancetype, count(*) FROM hactivation t, hmachine m \
                 WHERE t.vmid = m.vmid GROUP BY m.instancetype",
                &[],
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::from("m3.xlarge"));
        assert_eq!(r.cell(0, 1), &Value::Int(4));
    }

    #[test]
    fn parameters_recorded_and_queryable() {
        let (p, w, _, vina) = populated();
        let t = p.record_activation(&ActivationRecord {
            activity: vina,
            workflow: w,
            status: ActivationStatus::Finished,
            start_time: 0.0,
            end_time: 1.0,
            machine: None,
            retries: 0,
            pair_key: "2HHN:0E6".into(),
        });
        p.record_parameter(t, w, "feb", Some(-7.2), None);
        p.record_parameter(t, w, "best_pair", None, Some("2HHN-0E6"));
        let r = p
            .query_rows(
                "SELECT pname, pvalue_num FROM hparameter WHERE pvalue_num IS NOT NULL",
                &[],
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 1), &Value::Float(-7.2));
    }

    #[test]
    fn stats_reports_all_tables() {
        let (p, _, _, _) = populated();
        let stats = p.stats();
        assert_eq!(stats.len(), 7, "six PROV-Wf tables plus houtput");
        let activation = stats.iter().find(|(n, _)| n == "hactivation").unwrap();
        assert_eq!(activation.1, 4);
    }

    #[test]
    fn ids_are_sequential_and_distinct() {
        let p = ProvenanceStore::new();
        let w1 = p.begin_workflow("a", "", "");
        let w2 = p.begin_workflow("b", "", "");
        assert_ne!(w1, w2);
        let a1 = p.register_activity(w1, "x", "Map");
        let a2 = p.register_activity(w2, "x", "Map");
        assert_ne!(a1, a2);
    }

    #[test]
    fn output_tuples_roundtrip_for_resume() {
        let (p, w, babel, _) = populated();
        // find the FINISHED babel tasks and attach outputs
        let tasks: Vec<TaskId> = (1..=2).map(TaskId).collect();
        p.record_output_tuple(
            tasks[0],
            babel,
            w,
            "1AEC:042",
            0,
            &[Value::from("1AEC"), Value::Int(7)],
        );
        p.record_output_tuple(
            tasks[1],
            babel,
            w,
            "1AEC:042",
            1,
            &[Value::from("1AEC"), Value::Int(9)],
        );
        let outs = p.finished_outputs(w, "babel1k");
        let tuples = &outs["1AEC:042"];
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0][0], Value::from("1AEC"));
        assert_eq!(tuples[0][1].as_f64(), Some(7.0));
        assert_eq!(tuples[1][1].as_f64(), Some(9.0));
        // unknown activity -> empty map
        assert!(p.finished_outputs(w, "nope").is_empty());
    }

    #[test]
    fn finished_outputs_excludes_failed_tasks() {
        let (p, w, _, vina) = populated();
        // task 4 is the FAILED vina activation; give it outputs anyway
        p.record_output_tuple(TaskId(4), vina, w, "1AEC:042", 0, &[Value::Int(1)]);
        let outs = p.finished_outputs(w, "autodockvina1k");
        // only the FINISHED vina activation (task 3, no outputs) shows up
        assert_eq!(outs.len(), 1);
        assert!(outs["1AEC:042"].is_empty(), "finished task recorded no tuples");
    }

    #[test]
    fn empty_output_tuple_marker() {
        let (p, w, babel, _) = populated();
        p.record_output_tuple(TaskId(1), babel, w, "1AEC:042", 0, &[]);
        let outs = p.finished_outputs(w, "babel1k");
        assert!(outs.contains_key("1AEC:042"));
        assert!(outs["1AEC:042"].is_empty());
    }

    #[test]
    fn running_rows_update_in_place() {
        let p = ProvenanceStore::new();
        let w = p.begin_workflow("live", "", "");
        let a = p.register_activity(w, "vina", "Map");
        let mut rec = ActivationRecord {
            activity: a,
            workflow: w,
            status: ActivationStatus::Running,
            start_time: 1.0,
            end_time: 1.0,
            machine: None,
            retries: 0,
            pair_key: "R:L".into(),
        };
        let t = p.record_activation(&rec);
        let r =
            p.query_rows("SELECT count(*) FROM hactivation WHERE status = 'RUNNING'", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(1));

        rec.status = ActivationStatus::Finished;
        rec.end_time = 9.0;
        assert!(p.update_activation(t, &rec));
        // the RUNNING row was replaced, not duplicated
        let r =
            p.query_rows("SELECT status, count(*) FROM hactivation GROUP BY status", &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::from("FINISHED"));
        assert_eq!(r.cell(0, 1), &Value::Int(1));
        // unknown task id refuses the update
        assert!(!p.update_activation(TaskId(999), &rec));
    }

    #[test]
    fn status_terminality() {
        assert!(ActivationStatus::Finished.is_terminal());
        assert!(ActivationStatus::Failed.is_terminal());
        assert!(!ActivationStatus::Running.is_terminal());
        assert_eq!(ActivationStatus::Running.as_str(), "RUNNING");
    }

    #[test]
    fn query_limited_applies_typed_limit() {
        let (p, _, _, _) = populated();
        let r = p.query_limited("SELECT taskid FROM hactivation ORDER BY taskid", 2).unwrap();
        assert_eq!(r.len(), 2);
        let r = p.query_limited("SELECT taskid FROM hactivation", 0).unwrap();
        assert!(r.is_empty());
        // the lower of an in-text LIMIT and the typed cap wins
        let r = p.query_limited("SELECT taskid FROM hactivation LIMIT 4", 1).unwrap();
        assert_eq!(r.len(), 1);
        let r = p.query_limited("SELECT taskid FROM hactivation LIMIT 3", 100).unwrap();
        assert_eq!(r.len(), 3);
        // and an EXPLAIN is answered, showing the capped plan
        let r = p.query_limited("EXPLAIN SELECT taskid FROM hactivation WHERE taskid = 2", 9);
        let plan: Vec<Value> = r.unwrap().rows.into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(plan[0], Value::from("Limit 9"));
        assert!(plan
            .iter()
            .any(|l| l.as_str().is_some_and(|l| l.contains("ix_hactivation_taskid"))));
    }

    fn durable_pair() -> (crate::durable::io::MemEnv, ProvenanceStore) {
        let env = crate::durable::io::MemEnv::new();
        let p = ProvenanceStore::open_env(
            Box::new(env.clone()),
            crate::durable::DurableOptions::default(),
        )
        .expect("fresh env opens");
        (env, p)
    }

    #[test]
    fn durable_store_reopens_with_identical_state() {
        let (env, p) = durable_pair();
        let w = p.begin_workflow("SciDock", "docking", "/e");
        let a = p.register_activity(w, "vina", "Map");
        let vm = p.register_machine("vm-1", "m3.xlarge", 4);
        let t = p.record_activation(&ActivationRecord {
            activity: a,
            workflow: w,
            status: ActivationStatus::Finished,
            start_time: 0.0,
            end_time: 2.0,
            machine: Some(vm),
            retries: 1,
            pair_key: "R:L".into(),
        });
        p.record_file(t, a, w, "out.dlg", 123, "/e/vina/");
        p.record_parameter(t, w, "feb", Some(-7.5), Some("txt"));
        p.record_output_tuple(t, a, w, "R:L", 0, &[Value::Int(1), Value::from("x")]);
        assert!(p.is_durable());
        drop(p);

        let p2 =
            ProvenanceStore::open_env(Box::new(env), crate::durable::DurableOptions::default())
                .expect("reopen");
        assert_eq!(p2.dump_tables(), {
            // compare against a fresh in-memory store fed the same calls
            let m = ProvenanceStore::new();
            let w = m.begin_workflow("SciDock", "docking", "/e");
            let a = m.register_activity(w, "vina", "Map");
            let vm = m.register_machine("vm-1", "m3.xlarge", 4);
            let t = m.record_activation(&ActivationRecord {
                activity: a,
                workflow: w,
                status: ActivationStatus::Finished,
                start_time: 0.0,
                end_time: 2.0,
                machine: Some(vm),
                retries: 1,
                pair_key: "R:L".into(),
            });
            m.record_file(t, a, w, "out.dlg", 123, "/e/vina/");
            m.record_parameter(t, w, "feb", Some(-7.5), Some("txt"));
            m.record_output_tuple(t, a, w, "R:L", 0, &[Value::Int(1), Value::from("x")]);
            m.dump_tables()
        });
        // id counters resumed past recovered state: no id reuse
        let w2 = p2.begin_workflow("second", "", "");
        assert_eq!(w2, WorkflowId(2));
        assert_eq!(p2.latest_workflow(), Some(w2));
        assert_eq!(
            p2.workflows().iter().map(|(_, tag)| tag.as_str()).collect::<Vec<_>>(),
            vec!["SciDock", "second"]
        );
    }

    #[test]
    fn durable_update_survives_reopen() {
        let (env, p) = durable_pair();
        let w = p.begin_workflow("live", "", "");
        let a = p.register_activity(w, "vina", "Map");
        let mut rec = ActivationRecord {
            activity: a,
            workflow: w,
            status: ActivationStatus::Running,
            start_time: 1.0,
            end_time: 1.0,
            machine: None,
            retries: 0,
            pair_key: "R:L".into(),
        };
        let t = p.record_activation(&rec);
        rec.status = ActivationStatus::Finished;
        rec.end_time = 9.0;
        assert!(p.update_activation(t, &rec));
        // unknown task ids are rejected before logging
        assert!(!p.update_activation(TaskId(999), &rec));
        p.flush_wal();
        drop(p);
        let p2 =
            ProvenanceStore::open_env(Box::new(env), crate::durable::DurableOptions::default())
                .unwrap();
        let r = p2.query_rows("SELECT status, endtime FROM hactivation", &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::from("FINISHED"));
    }

    #[test]
    fn a_record_over_the_frame_cap_panics_without_costing_the_records_around_it() {
        let (env, p) = durable_pair();
        let w = p.begin_workflow("A", "", "");
        let big = "x".repeat(65 << 20);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.record_parameter(TaskId(1), w, "big", None, Some(&big));
        }));
        assert!(refused.is_err(), "an append that cannot be framed fails the call");
        drop(big);
        p.register_activity(w, "C", "Map");
        drop(p);
        // the refused record never reached the log, so recovery keeps what
        // follows it instead of truncating there as at a torn tail
        let p2 =
            ProvenanceStore::open_env(Box::new(env), crate::durable::DurableOptions::default())
                .unwrap();
        assert_eq!(p2.workflows().len(), 1);
        let r = p2.query_rows("SELECT tag FROM hactivity", &[]).unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("C")]]);
        let r = p2.query_rows("SELECT count(*) FROM hparameter", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(0));
    }

    #[test]
    fn durable_checkpoint_compacts_and_reopens() {
        let (env, p) = durable_pair();
        let w = p.begin_workflow("ckpt", "", "");
        let a = p.register_activity(w, "act", "Map");
        for k in 0..10 {
            p.record_activation(&ActivationRecord {
                activity: a,
                workflow: w,
                status: ActivationStatus::Finished,
                start_time: k as f64,
                end_time: k as f64 + 1.0,
                machine: None,
                retries: 0,
                pair_key: format!("p:{k}"),
            });
        }
        let before = p.dump_tables();
        assert!(p.checkpoint());
        // after the checkpoint the WAL holds only its header
        assert_eq!(env.wal_bytes().len() as u64, crate::durable::wal::WAL_HEADER_LEN);
        drop(p);
        let p2 =
            ProvenanceStore::open_env(Box::new(env), crate::durable::DurableOptions::default())
                .unwrap();
        assert_eq!(p2.dump_tables(), before);
        // in-memory stores refuse politely
        assert!(!ProvenanceStore::new().checkpoint());
        assert!(!ProvenanceStore::new().is_durable());
    }

    #[test]
    fn durable_sync_mode_and_dir_env() {
        let dir = crate::durable::testing::TempDir::new("provwf-dir");
        let opts = crate::durable::DurableOptions {
            durability: crate::durable::Durability::Sync,
            ..Default::default()
        };
        let p = ProvenanceStore::open_with(dir.path(), opts.clone()).unwrap();
        let w = p.begin_workflow("disk", "", "");
        p.set_durability(crate::durable::Durability::default());
        p.register_activity(w, "a", "Map");
        p.flush_wal();
        drop(p);
        let p2 = ProvenanceStore::open_with(dir.path(), opts).unwrap();
        let r = p2.query_rows("SELECT count(*) FROM hactivity", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(1));
        assert_eq!(p2.latest_workflow(), Some(w));
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let p = Arc::new(ProvenanceStore::new());
        let w = p.begin_workflow("par", "", "");
        let a = p.register_activity(w, "act", "Map");
        let mut handles = Vec::new();
        for th in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for k in 0..50 {
                    p.record_activation(&ActivationRecord {
                        activity: a,
                        workflow: w,
                        status: ActivationStatus::Finished,
                        start_time: (th * 50 + k) as f64,
                        end_time: (th * 50 + k) as f64 + 1.0,
                        machine: None,
                        retries: 0,
                        pair_key: format!("p{th}:{k}"),
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = p.query_rows("SELECT count(*) FROM hactivation", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(400));
    }
}
