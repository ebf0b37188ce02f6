//! The PROV-Wf provenance model and recording API.
//!
//! Mirrors SciCumulus' PostgreSQL schema as used by the paper's queries:
//! `hworkflow` (one row per workflow execution), `hactivity` (per activity),
//! `hactivation` (per activity execution/task), `hfile` (produced files),
//! `hparameter` (extracted domain values), `hmachine` (VMs used).
//!
//! The store is thread-safe: its writer records activations while the user
//! runs *runtime provenance queries* — the SciCumulus feature the paper
//! highlights for steering. Writes take a writer lock and then, only to
//! apply their rows, the tables' lock; the WAL append and fsync of a durable
//! store happen under the writer lock alone, so a query, which takes only
//! the tables' lock, never waits for the disk. Workflow and activity ids are
//! reserved from atomics ([`ProvenanceStore::reserve_workflow`]), so a
//! caller can name a workflow's rows before any writer has written them.
//!
//! Every store keeps its tables in one engine, a [`PagedDb`]: slotted-page
//! heap files with B+tree secondary indexes ([`PROV_INDEXES`]) that the
//! planner turns steering predicates into. [`ProvenanceStore::new`] keeps
//! the pages in memory; the durable constructors ([`ProvenanceStore::open`]
//! and friends) put a write-ahead log + snapshot engine underneath the same
//! tables so the same API survives crashes — see [`crate::durable`] for the
//! storage format and guarantees.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use telemetry::{Histogram, Telemetry};

use crate::durable::engine::{rows_in, DurableEngine};
use crate::durable::io::{DirEnv, StorageEnv};
use crate::durable::snapshot;
use crate::durable::wal::WalOp;
use crate::durable::{Counters, DurableError, DurableOptions};
use crate::provn::WORKFLOWS_SQL;
use crate::sql::ast::Query;
use crate::sql::expr::bind_params;
use crate::sql::{explain_query, parse, run_query, QueryError, ResultSet};
use crate::storage::paged::DEFAULT_CACHE_PAGES;
use crate::storage::pager::{FilePageStore, MemPageStore, PageStore};
use crate::storage::PagedDb;
use crate::table::Schema;
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
    /// Currently executing — published on the steering tick so runtime
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
}

#[cfg(test)]
impl ActivationStatus {
    /// Is this a terminal (will-not-change) status?
    pub(crate) fn is_terminal(self) -> bool {
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

/// One activation's rows, as [`ProvenanceStore::commit_batch`] writes them:
/// its `hactivation` row and, once it finished, what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationWrite {
    /// The `RUNNING` row published for the activation, written over in
    /// place; `None` inserts a new row.
    pub over: Option<TaskId>,
    /// The activation's row.
    pub rec: ActivationRecord,
    /// A finished activation's outputs, logged with its row as one record;
    /// `None` writes the row alone.
    pub outputs: Option<ActivationOutputs>,
}

/// What a finished activation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationOutputs {
    /// Produced files, `(fname, fsize, fdir)`.
    pub files: Vec<(String, i64, String)>,
    /// Extracted parameters, `(name, numeric, textual)`.
    pub params: Vec<(String, Option<f64>, Option<String>)>,
    /// Output tuples, numbered in order under the row's pair key.
    pub tuples: Vec<Vec<Value>>,
}

/// The PROV-Wf tables and their id counters: all a reader locks.
struct Tables {
    /// Every mutation reaches them through [`plan_op`].
    db: PagedDb,
    counters: Counters,
}

impl Tables {
    /// Apply one record to the tables and, if it applied, hand it to `log`.
    /// Returns `false` only for an update of an `hactivation` row that does
    /// not exist, which is not logged either.
    fn commit(&mut self, op: WalOp, log: &mut dyn FnMut(WalOp)) -> bool {
        let applied = plan_op(&mut self.db, &mut self.counters, &op);
        if applied {
            log(op);
        }
        applied
    }

    /// Apply one activation's rows and hand them to `log` as one record: a
    /// row alone as itself, a finished activation's files, parameters,
    /// tuples and then its row as one [`WalOp::Group`]. Each op takes its id
    /// from the counters as the ops before it left them, exactly as a
    /// sequence of per-row calls would.
    ///
    /// # Panics
    /// Panics if `w.over` names a task the store never recorded.
    fn write(&mut self, w: &ActivationWrite, log: &mut dyn FnMut(WalOp)) -> TaskId {
        let (rec, task) = (&w.rec, w.over.map_or(self.counters.next_task, |t| t.0));
        let mut ops = Vec::new();
        let mut stage = |t: &mut Tables, op: WalOp| {
            let applied = plan_op(&mut t.db, &mut t.counters, &op);
            assert!(applied, "provstore: no RUNNING row for task {task}");
            ops.push(op);
        };
        if let Some(out) = &w.outputs {
            for (fname, fsize, fdir) in &out.files {
                let file = (fname.as_str(), *fsize, fdir.as_str());
                let op = self.file_op(task, rec.activity, rec.workflow, file);
                stage(self, op);
            }
            for (name, num, text) in &out.params {
                let op = self.parameter_op(task, rec.workflow, name, *num, text.as_deref());
                stage(self, op);
            }
            for (ti, tuple) in out.tuples.iter().enumerate() {
                let op = self.output_tuple_op(
                    task,
                    rec.activity,
                    rec.workflow,
                    &rec.pair_key,
                    ti,
                    tuple,
                );
                stage(self, op);
            }
        }
        let row = match w.over {
            Some(_) => WalOp::UpdateActivation { task, rec: rec.clone() },
            None => WalOp::RecordActivation { task, rec: rec.clone() },
        };
        stage(self, row);
        log(match w.outputs {
            Some(_) => WalOp::Group(ops),
            None => ops.pop().expect("the row was staged"),
        });
        TaskId(task)
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

fn activity_op(id: ActivityId, wkf: WorkflowId, tag: &str, acttype: &str) -> WalOp {
    WalOp::RegisterActivity { id: id.0, wkf: wkf.0, tag: tag.into(), acttype: acttype.into() }
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
    /// The tables, under the lock readers take: a read holds it through
    /// [`read_timed`] for the whole of its query, and a write only while it
    /// applies its rows.
    tables: Mutex<Tables>,
    /// The writer lock, held by a mutating call from start to end — the
    /// tables' lock only while it applies its rows — and with it the log of
    /// a durable store (`None` keeps the store purely in-memory: zero I/O on
    /// any path). Lock order is always writer, then tables.
    writer: Mutex<Option<DurableEngine>>,
    /// The next `hworkflow` and `hactivity` ids to reserve, seeded from the
    /// recovered counters. `Relaxed`: an id publishes no other data, and
    /// `fetch_add` alone keeps two reservations apart.
    next_wkf: AtomicI64,
    next_act: AtomicI64,
    /// `provstore.lock_wait` / `provstore.lock_hold` of the writer lock, in
    /// nanoseconds, when a durable store was opened with telemetry attached:
    /// one sample each per mutating call and per `flush_wal`.
    lock_times: Option<(Arc<Histogram>, Arc<Histogram>)>,
    /// `provstore.query_hold`, in nanoseconds, under the same condition: one
    /// sample per read, which runs whole under one hold.
    query_hold: Option<Arc<Histogram>>,
}

/// Run `f` on the tables under their lock as a reader, timing the hold
/// (not the wait for it) into `hold`.
fn read_timed<R>(
    tables: &Mutex<Tables>,
    hold: Option<&Histogram>,
    f: impl FnOnce(&Tables) -> R,
) -> R {
    let g = tables.lock();
    let t0 = hold.map(|h| (h, Instant::now()));
    let out = f(&g);
    drop(g);
    if let Some((h, t0)) = t0 {
        h.record(t0.elapsed().as_nanos() as u64);
    }
    out
}

/// A workflow's first activity of a tag, by `(wkfid, tag)` — the first of
/// [`ProvenanceStore::finished_outputs`]'s reads. Without an `ORDER BY` the
/// `wkfid` index yields its rows in insertion order.
pub const ACTIVITY_BY_TAG_SQL: &str =
    "SELECT actid FROM hactivity WHERE wkfid = ? AND tag = ? LIMIT 1";

/// The `FINISHED` activations of one activity, by `actid`.
pub const FINISHED_TASKS_SQL: &str =
    "SELECT taskid, pairkey FROM hactivation WHERE actid = ? AND status = 'FINISHED'";

/// Every recorded output cell, in insertion order; a zero-arity tuple's
/// marker row (`colidx` -1) is no cell.
pub const OUTPUT_CELLS_SQL: &str =
    "SELECT taskid, tupleidx, colidx, val_num, val_text FROM houtput WHERE colidx >= 0";

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
    ("hactivation", "ix_hactivation_actid", &["actid"]),
    ("hactivation", "ix_hactivation_status", &["status"]),
    ("hactivation", "ix_hactivation_endtime", &["endtime"]),
    ("hactivation", "ix_hactivation_pairkey", &["pairkey"]),
    ("hparameter", "ix_hparameter_taskid", &["taskid"]),
    ("hparameter", "ix_hparameter_pname", &["pname"]),
];

/// The PROV-Wf tables `(table, columns)`, in name order: the order they are
/// created in fixes where their B+tree roots land in the page file.
const PROV_TABLES: &[(&str, &[(&str, ValueType)])] = &[
    (
        "hactivation",
        &[
            ("taskid", ValueType::Int),
            ("actid", ValueType::Int),
            ("wkfid", ValueType::Int),
            ("status", ValueType::Text),
            ("starttime", ValueType::Timestamp),
            ("endtime", ValueType::Timestamp),
            ("vmid", ValueType::Int),
            ("retries", ValueType::Int),
            ("pairkey", ValueType::Text),
        ],
    ),
    (
        "hactivity",
        &[
            ("actid", ValueType::Int),
            ("wkfid", ValueType::Int),
            ("tag", ValueType::Text),
            ("acttype", ValueType::Text),
        ],
    ),
    (
        "hfile",
        &[
            ("fileid", ValueType::Int),
            ("taskid", ValueType::Int),
            ("actid", ValueType::Int),
            ("wkfid", ValueType::Int),
            ("fname", ValueType::Text),
            ("fsize", ValueType::Int),
            ("fdir", ValueType::Text),
        ],
    ),
    (
        "hmachine",
        &[
            ("vmid", ValueType::Int),
            ("vmname", ValueType::Text),
            ("instancetype", ValueType::Text),
            ("cores", ValueType::Int),
        ],
    ),
    (
        "houtput",
        &[
            ("outid", ValueType::Int),
            ("taskid", ValueType::Int),
            ("actid", ValueType::Int),
            ("wkfid", ValueType::Int),
            ("pairkey", ValueType::Text),
            ("tupleidx", ValueType::Int),
            ("colidx", ValueType::Int),
            ("val_num", ValueType::Float),
            ("val_text", ValueType::Text),
        ],
    ),
    (
        "hparameter",
        &[
            ("paramid", ValueType::Int),
            ("taskid", ValueType::Int),
            ("wkfid", ValueType::Int),
            ("pname", ValueType::Text),
            ("pvalue_num", ValueType::Float),
            ("pvalue_text", ValueType::Text),
        ],
    ),
    (
        "hworkflow",
        &[
            ("wkfid", ValueType::Int),
            ("tag", ValueType::Text),
            ("description", ValueType::Text),
            ("expdir", ValueType::Text),
        ],
    ),
];

/// Create the empty PROV-Wf tables on a fresh `db`.
fn create_tables(db: &mut PagedDb) {
    for (name, cols) in PROV_TABLES {
        db.create_table(name, Schema::new(cols)).expect("fresh paged db");
    }
}

/// Install [`PROV_INDEXES`] on `db`'s PROV-Wf tables, backfilled over the
/// rows they already hold.
fn create_indexes(db: &mut PagedDb) {
    for (table, name, cols) in PROV_INDEXES {
        db.create_index(table, name, cols).expect("each PROV-Wf table exists, without indexes yet");
    }
}

impl Default for ProvenanceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvenanceStore {
    /// Create a purely in-memory store with the PROV-Wf schema and
    /// [`PROV_INDEXES`] installed: the paged engine over an in-memory page
    /// store, so queries take the same index access paths as on a durable
    /// store.
    pub fn new() -> ProvenanceStore {
        let mut db = PagedDb::in_memory();
        create_tables(&mut db);
        create_indexes(&mut db);
        Self::assemble(Tables { db, counters: Counters::default() }, None, &Telemetry::default())
    }

    /// The store over `tables`, its ids reserved from where their counters
    /// stand; `tel` times its locks.
    fn assemble(tables: Tables, engine: Option<DurableEngine>, tel: &Telemetry) -> ProvenanceStore {
        ProvenanceStore {
            next_wkf: AtomicI64::new(tables.counters.next_wkf),
            next_act: AtomicI64::new(tables.counters.next_act),
            tables: Mutex::new(tables),
            writer: Mutex::new(engine),
            lock_times: tel
                .histogram("provstore.lock_wait")
                .zip(tel.histogram("provstore.lock_hold")),
            query_hold: tel.histogram("provstore.query_hold"),
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
        let mut db = PagedDb::new(pages, DEFAULT_CACHE_PAGES);
        let (engine, recovered) = DurableEngine::open(env, &options, &mut db)?;
        // a snapshot brought its tables; a store without one starts empty
        if recovered.counters.is_none() {
            create_tables(&mut db);
        }
        create_indexes(&mut db);
        let mut counters = recovered.counters.unwrap_or_default();
        for op in &recovered.ops {
            plan_op(&mut db, &mut counters, op);
        }
        let upgrade = engine.stale_header();
        let tables = Tables { db, counters };
        let store = Self::assemble(tables, Some(engine), &options.telemetry);
        if upgrade {
            // a log from before WAL version 2 must not receive records an
            // older binary would mistake for a torn tail: fold it into a
            // snapshot, which restarts the log under the current header
            store.checkpoint();
        }
        Ok(store)
    }

    /// Run one store call's writes under the writer lock: `f` applies them
    /// under the tables' lock and hands over the records to log, which only
    /// a durable store keeps; with the tables' lock released, it appends
    /// them, fsyncs when the group-commit policy says one is due (see
    /// [`crate::durable`]), and checkpoints when its policy says so. Every
    /// mutating method goes through here, so a reader never waits for an
    /// append, an fsync or a snapshot write.
    ///
    /// # Panics
    /// Panics if the durable layer fails to append, fsync or checkpoint, or
    /// has failed an fsync before: a store that promised durability but can
    /// no longer write its log must not keep acknowledging mutations.
    /// (Fault-injection tests use exactly this panic as a simulated crash.)
    fn transact<R>(&self, f: impl FnOnce(&mut Tables, &mut dyn FnMut(WalOp)) -> R) -> R {
        self.with_writer(|writer| {
            let (durable, mut records) = (writer.is_some(), Vec::new());
            let out = f(&mut self.tables.lock(), &mut |op| {
                if durable {
                    records.push(op);
                }
            });
            if let Some(eng) = writer {
                let mut due = false;
                for op in &records {
                    due |= eng.append(op).expect("provstore: durable WAL append failed");
                }
                if due {
                    eng.sync().expect("provstore: WAL fsync failed");
                }
                if eng.should_checkpoint() {
                    self.checkpoint_with(eng);
                }
            }
            out
        })
    }

    /// Run `f` under the writer lock, timing the wait for it and the hold
    /// into `lock_times`.
    fn with_writer<R>(&self, f: impl FnOnce(&mut Option<DurableEngine>) -> R) -> R {
        let asked = self.lock_times.as_ref().map(|h| (h, Instant::now()));
        let mut writer = self.writer.lock();
        let timed = asked.map(|(h, asked)| (h, asked, Instant::now()));
        let out = f(&mut writer);
        drop(writer);
        if let Some(((wait, hold), asked, locked)) = timed {
            wait.record((locked - asked).as_nanos() as u64);
            hold.record(locked.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Snapshot the tables through `eng`, the writer lock's engine, and
    /// truncate the WAL. Only encoding holds the tables' lock. The
    /// WAL/snapshot pair is the durability source of truth; the page file is
    /// a cache spill, truncated on every open and read only after an
    /// eviction, so a checkpoint writes no page to it.
    ///
    /// # Panics
    /// Panics if the snapshot cannot be written (same contract as
    /// `transact`).
    fn checkpoint_with(&self, eng: &mut DurableEngine) {
        eng.checkpoint(|seq| {
            let t = self.tables.lock();
            (snapshot::encode(&t.db, &t.counters, seq), rows_in(&t.db))
        })
        .expect("provstore: snapshot checkpoint failed");
    }

    /// Is this store backed by a durable engine?
    pub fn is_durable(&self) -> bool {
        self.writer.lock().is_some()
    }

    /// Group-commit barrier: force every acknowledged mutation to durable
    /// storage now (no-op when in-memory). A run's committer calls this
    /// after publishing RUNNING rows, and for every barrier it is sent (a
    /// run's or a campaign's end).
    pub fn flush_wal(&self) {
        self.with_writer(|writer| {
            if let Some(eng) = writer {
                eng.sync().expect("provstore: WAL fsync failed");
            }
        });
    }

    /// Take a snapshot checkpoint now, truncating the WAL. Returns `false`
    /// for an in-memory store.
    pub fn checkpoint(&self) -> bool {
        let mut writer = self.writer.lock();
        let Some(eng) = writer.as_mut() else { return false };
        self.checkpoint_with(eng);
        true
    }

    /// Reserve the ids of a workflow execution and of its `activities`
    /// activities, in activity order, without taking any lock: ids no other
    /// reservation on this store is handed, which a caller may name rows by
    /// before the [`register`](Self::register) call that writes them. An id
    /// whose row never reached the log may be handed out again after a crash.
    pub fn reserve_workflow(&self, activities: usize) -> (WorkflowId, Vec<ActivityId>) {
        let wkf = WorkflowId(self.next_wkf.fetch_add(1, Ordering::Relaxed));
        let first = self.next_act.fetch_add(activities as i64, Ordering::Relaxed);
        (wkf, (first..first + activities as i64).map(ActivityId).collect())
    }

    /// Write a workflow execution's `hworkflow` row and then an `hactivity`
    /// row per `(id, tag, acttype)` of `activities`, under ids
    /// [`reserve_workflow`](Self::reserve_workflow) handed out, in one
    /// acquisition of the writer lock; each row is its own WAL record.
    pub fn register(
        &self,
        wkf: WorkflowId,
        [tag, description, expdir]: [&str; 3],
        activities: &[(ActivityId, &str, &str)],
    ) {
        self.transact(|t, log| {
            let (tag, description, expdir) = (tag.into(), description.into(), expdir.into());
            t.commit(WalOp::BeginWorkflow { id: wkf.0, tag, description, expdir }, log);
            for &(id, tag, acttype) in activities {
                t.commit(activity_op(id, wkf, tag, acttype), log);
            }
        });
    }

    /// Register a workflow execution: reserve its id and write its row.
    pub fn begin_workflow(&self, tag: &str, description: &str, expdir: &str) -> WorkflowId {
        let (id, _) = self.reserve_workflow(0);
        self.register(id, [tag, description, expdir], &[]);
        id
    }

    /// Register an activity of a workflow: reserve its id and write its row.
    pub fn register_activity(&self, wkf: WorkflowId, tag: &str, acttype: &str) -> ActivityId {
        let id = ActivityId(self.next_act.fetch_add(1, Ordering::Relaxed));
        self.transact(|t, log| t.commit(activity_op(id, wkf, tag, acttype), log));
        id
    }

    /// Register a VM.
    pub fn register_machine(&self, name: &str, instance_type: &str, cores: i64) -> MachineId {
        self.transact(|t, log| {
            let id = t.counters.next_machine;
            let op = WalOp::RegisterMachine {
                id,
                name: name.to_string(),
                instance_type: instance_type.to_string(),
                cores,
            };
            t.commit(op, log);
            MachineId(id)
        })
    }

    /// Record one activation.
    pub fn record_activation(&self, rec: &ActivationRecord) -> TaskId {
        self.transact(|t, log| {
            let id = t.counters.next_task;
            t.commit(WalOp::RecordActivation { task: id, rec: rec.clone() }, log);
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
        self.transact(|t, log| {
            t.commit(WalOp::UpdateActivation { task: task.0, rec: rec.clone() }, log)
        })
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
        self.transact(|t, log| {
            let op = t.file_op(task.0, activity, workflow, (fname, fsize, fdir));
            t.commit(op, log);
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
        self.transact(|t, log| {
            let op = t.parameter_op(task.0, workflow, name, num, text);
            t.commit(op, log);
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
        self.transact(|t, log| {
            let op = t.output_tuple_op(task.0, activity, workflow, pair_key, tuple_idx, tuple);
            t.commit(op, log);
        });
    }

    /// Write many activations under one acquisition of the writer lock, in
    /// order, and return their task ids. Each write is its own WAL record,
    /// so the unit recovery keeps or drops is one activation: a finished
    /// activation's files, parameters, output tuples and `hactivation` row
    /// are one record, and a recovered `FINISHED` row always has its
    /// complete outputs. The rows are those the per-row methods would
    /// write, with ids from the same counters in the same order. Whatever
    /// fsync the commit policy makes due is issued once, after the last
    /// append.
    ///
    /// # Panics
    /// Panics if a write's `over` names a task the store never recorded,
    /// or if the durable layer fails to append, checkpoint or fsync.
    pub fn commit_batch(&self, writes: &[ActivationWrite]) -> Vec<TaskId> {
        self.transact(|t, log| writes.iter().map(|w| t.write(w, log)).collect())
    }

    /// Commit a finished activation whole: [`commit_batch`](Self::commit_batch)
    /// of one write — its produced `files` (`(fname, fsize, fdir)`, as for
    /// [`record_file`](Self::record_file)), extracted `params`, output
    /// `tuples` and last its `hactivation` row `rec`, inserted or, when
    /// `running` names the attempt's published `RUNNING` row, written over
    /// that row. Returns the activation's task id.
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
        let outputs = ActivationOutputs {
            files: files.iter().map(|&(name, size, dir)| (name.into(), size, dir.into())).collect(),
            params: params.to_vec(),
            tuples: tuples.to_vec(),
        };
        let write = ActivationWrite { over: running, rec: rec.clone(), outputs: Some(outputs) };
        self.commit_batch(&[write])[0]
    }

    /// Recover the recorded output tuples of every FINISHED activation of
    /// `activity_tag` in workflow `wkf`, keyed by the activation's pair key:
    /// [`ACTIVITY_BY_TAG_SQL`] (the workflow's first activity of that tag),
    /// [`FINISHED_TASKS_SQL`] and one pass of [`OUTPUT_CELLS_SQL`], under
    /// one reader hold. A finished activation that produced nothing has an
    /// empty entry; the tuples of a pair key come in task-id order, then
    /// tuple-index order, each in column order, so two finished activations
    /// under one pair key give two sets of tuples, never one interleaved.
    ///
    /// Numeric cells come back as `Float` (the storage type), so resumed
    /// relations are value-equal, not necessarily type-identical, to the
    /// originals.
    pub fn finished_outputs(
        &self,
        wkf: WorkflowId,
        activity_tag: &str,
    ) -> HashMap<String, Vec<Vec<Value>>> {
        let query = |sql, params: &[Value]| Self::prepare(sql, params).expect("a resume query").0;
        let act = query(ACTIVITY_BY_TAG_SQL, &[Value::Int(wkf.0), activity_tag.into()]);
        let cells = query(OUTPUT_CELLS_SQL, &[]);
        let (finished, cells) = read_timed(&self.tables, self.query_hold.as_deref(), |g| {
            let run = |q: &Query| run_query(&g.db, q).expect("a resume query runs").rows;
            let Some(act_id) = run(&act).first().map(|r| r[0].clone()) else {
                return (Vec::new(), Vec::new());
            };
            let finished = run(&query(FINISHED_TASKS_SQL, &[act_id]));
            let cells = if finished.is_empty() { Vec::new() } else { run(&cells) };
            (finished, cells)
        });
        let finished: HashMap<i64, String> = finished
            .iter()
            .filter_map(|r| Some((r[0].as_f64()? as i64, r[1].as_str()?.to_string())))
            .collect();
        // (pair key, task id, tuple index) → (column index, value), in
        // `houtput` order: two finished activations under one pair key keep
        // their tuples apart
        let mut keyed: HashMap<(String, i64, i64), Vec<(i64, Value)>> = HashMap::new();
        for r in cells {
            let Some(task) = r[0].as_f64().map(|t| t as i64) else { continue };
            let Some(pk) = finished.get(&task) else { continue };
            let tuple_idx = r[1].as_f64().unwrap_or(0.0) as i64;
            let colidx = r[2].as_f64().unwrap_or(-1.0) as i64;
            let value = if r[3].is_null() { r[4].clone() } else { r[3].clone() };
            keyed.entry((pk.clone(), task, tuple_idx)).or_default().push((colidx, value));
        }
        let mut out: HashMap<_, Vec<Vec<Value>>> =
            finished.into_values().map(|pk| (pk, Vec::new())).collect();
        let mut keyed: Vec<_> = keyed.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        for ((pk, ..), mut cols) in keyed {
            cols.sort_by_key(|(c, _)| *c);
            out.entry(pk).or_default().push(cols.into_iter().map(|(_, v)| v).collect());
        }
        out
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

    /// Run a prepared query (or its EXPLAIN) to completion under one timed
    /// reader hold.
    fn run_prepared(&self, q: &Query, explain: bool) -> Result<ResultSet, QueryError> {
        read_timed(&self.tables, self.query_hold.as_deref(), |g| {
            if explain {
                explain_query(&g.db, q)
            } else {
                run_query(&g.db, q)
            }
        })
    }

    /// Run a SQL query — SciCumulus' *runtime provenance query* facility,
    /// and the store's one read: the query runs to completion under one
    /// hold of the tables' lock, a point-in-time result, and the whole
    /// [`ResultSet`] comes back. The hold is one `provstore.query_hold`
    /// sample, which is what a writer queued behind it waits.
    ///
    /// `?` placeholders (numbered left to right) become [`Value`] literals
    /// after parsing, so caller-supplied values can never change the query's
    /// structure. Pass `&[]` for a query without parameters.
    ///
    /// Prefixing the SQL with `EXPLAIN ` returns the chosen plan instead:
    /// one `plan` column, one row per line of the operator tree, including
    /// which index (if any) each table access uses.
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

    /// All registered workflow executions as `(id, tag)`, in id order —
    /// how a fresh process discovers what a recovered store contains.
    pub fn workflows(&self) -> Vec<(WorkflowId, String)> {
        let rs = self.query_rows(WORKFLOWS_SQL, &[]).expect("WORKFLOWS_SQL runs");
        rs.rows
            .iter()
            .filter_map(|r| Some((WorkflowId(r[0].as_f64()? as i64), r[1].as_str()?.to_string())))
            .collect()
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
        let g = self.tables.lock();
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
        self.tables.lock().db.cache_stats()
    }

    /// Run the tables' structural checks — B+tree ordering, index ↔ heap
    /// agreement, page bookkeeping. Crash-recovery tests call this after
    /// every reopen.
    pub fn verify_integrity(&self) -> Result<(), String> {
        self.tables.lock().db.verify_integrity()
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
    fn two_finished_activations_under_one_pair_key_keep_their_tuples_apart() {
        // tasks 1 and 2 are both FINISHED babel activations of "1AEC:042",
        // each with its own tuple 0
        let (p, w, babel, _) = populated();
        let (a, b) = (["a0", "a1"].map(Value::from), ["b0", "b1"].map(Value::from));
        p.record_output_tuple(TaskId(2), babel, w, "1AEC:042", 0, &b);
        p.record_output_tuple(TaskId(1), babel, w, "1AEC:042", 0, &a);
        let outs = p.finished_outputs(w, "babel1k");
        assert_eq!(outs["1AEC:042"], vec![a.to_vec(), b.to_vec()], "one tuple per activation");
        assert_eq!(exact(outs), exact(finished_outputs_scan(&p, w, "babel1k")));
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

    /// Each shape the parser's depth bound counts, nested to `depth` levels
    /// (the select item or WHERE clause itself is the first).
    fn nested(depth: usize) -> Vec<String> {
        let n = depth - 1;
        let select = |e: String| format!("SELECT {e} FROM hactivation");
        let filter = |e: String| format!("SELECT taskid FROM hactivation WHERE {e}");
        vec![
            select(format!("{}1{}", "(".repeat(n), ")".repeat(n))),
            select(format!("{}1", "- ".repeat(n))),
            select(format!("1{}", " + 1".repeat(n))),
            select(format!("{}1{}", "abs(".repeat(n), ")".repeat(n))),
            filter(format!("taskid = 1{}", " OR taskid = 1".repeat(n))),
            filter(format!("{}taskid = 1{}", "NOT (".repeat(n), ")".repeat(n))),
            filter(format!("taskid IN ({}1{})", "(".repeat(n - 1), ")".repeat(n - 1))),
        ]
    }

    /// At the bound every shape runs the whole way — parse, plan, execute,
    /// drop — on a test thread's default stack; one level more is a parse
    /// error, which is what keeps a hostile `SDC1 Query` from overflowing a
    /// daemon connection thread.
    #[test]
    fn expressions_nest_to_the_depth_bound_and_no_further() {
        use crate::sql::parser::MAX_EXPR_DEPTH;
        let (p, _, _, _) = populated();
        for sql in nested(MAX_EXPR_DEPTH) {
            let r = p.query_limited(&sql, 10);
            assert!(r.is_ok(), "{r:?} at the bound: {}", &sql[..60]);
        }
        for sql in nested(MAX_EXPR_DEPTH + 1) {
            match p.query_limited(&sql, 10) {
                Err(QueryError::Parse(e)) => assert!(e.0.contains("nested deeper"), "{e}"),
                other => panic!("{other:?} past the bound: {}", &sql[..60]),
            }
        }
    }

    /// Integer `+ - *`, unary minus and `abs` are exact in `i64`, and an
    /// overflow is a type error rather than a panic or a wrapped value.
    #[test]
    fn integer_arithmetic_is_exact_and_overflow_is_an_error() {
        let (p, _, _, _) = populated();
        let one = |e: &str| p.query_limited(&format!("SELECT {e} FROM hworkflow"), 1);
        assert_eq!(one("9007199254740993 + 0").unwrap().rows, [[Value::Int(9007199254740993)]]);
        for overflow in [
            "-(-9223372036854775807 - 1)",
            "abs(-9223372036854775807 - 1)",
            "9223372036854775807 * 2",
        ] {
            match one(overflow) {
                Err(QueryError::Type(m)) => assert!(m.contains("integer overflow"), "{m}"),
                other => panic!("{overflow}: {other:?}"),
            }
        }
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
        p.register_activity(w, "a", "Map");
        p.flush_wal();
        drop(p);
        let p2 = ProvenanceStore::open_with(dir.path(), opts).unwrap();
        let r = p2.query_rows("SELECT count(*) FROM hactivity", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(1));
        assert_eq!(p2.latest_workflow(), Some(w));
    }

    /// The page file is a cache spill: a checkpoint of a store whose pages
    /// all fit in the cache writes none of them to it.
    #[test]
    fn a_checkpoint_writes_no_page_to_the_page_file() {
        let dir = crate::durable::testing::TempDir::new("provwf-ckpt");
        let opts = crate::durable::DurableOptions { checkpoint_every: 0, ..Default::default() };
        let p = ProvenanceStore::open_with(dir.path(), opts).unwrap();
        let w = p.begin_workflow("ckpt", "", "");
        let act = p.register_activity(w, "a", "Map");
        for i in 0..300 {
            let rec = ActivationRecord {
                activity: act,
                workflow: w,
                status: ActivationStatus::Finished,
                start_time: i as f64,
                end_time: i as f64 + 1.0,
                machine: None,
                retries: 0,
                pair_key: format!("k{i}"),
            };
            let params = [("feb".to_string(), Some(-6.5), None)];
            p.commit_activation(
                None,
                &rec,
                &[("out.txt", 10, "/e")],
                &params,
                &[vec![Value::Int(i)]],
            );
        }
        assert!(p.checkpoint());
        let stats = p.cache_stats();
        assert_eq!((stats.evictions, stats.writebacks), (0, 0), "{stats:?}");
        let pages = std::fs::metadata(dir.path().join("pages.db")).unwrap();
        assert_eq!(pages.len(), 0, "a checkpoint wrote pages nothing reads");
    }

    #[test]
    fn reserved_ids_never_collide_and_a_reopened_store_reserves_above_every_applied_one() {
        use std::collections::HashSet;
        let (env, p) = durable_pair();
        let p = Arc::new(p);
        let reserver = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || (0..200).map(|_| p.reserve_workflow(3)).collect::<Vec<_>>())
        };
        let written: Vec<(WorkflowId, ActivityId)> = (0..200)
            .map(|i| {
                let w = p.begin_workflow(&format!("w{i}"), "", "");
                (w, p.register_activity(w, "a", "Map"))
            })
            .collect();
        let reserved = reserver.join().unwrap();
        let wkfs: HashSet<WorkflowId> =
            written.iter().map(|(w, _)| *w).chain(reserved.iter().map(|(w, _)| *w)).collect();
        let acts: HashSet<ActivityId> = (written.iter().map(|(_, a)| *a))
            .chain(reserved.iter().flat_map(|(_, acts)| acts.iter().copied()))
            .collect();
        assert_eq!((wkfs.len(), acts.len()), (400, 800), "an id was handed out twice");

        // one reservation is written, the rest never reach the log
        let (w, acts) = reserved.first().unwrap();
        let rows: Vec<(ActivityId, &str, &str)> = acts.iter().map(|&id| (id, "r", "Map")).collect();
        p.register(*w, ["reserved", "", ""], &rows);
        drop(p);
        let p2 =
            ProvenanceStore::open_env(Box::new(env), crate::durable::DurableOptions::default())
                .unwrap();
        let max = |sql: &str| p2.query_rows(sql, &[]).unwrap().cell(0, 0).as_f64().unwrap() as i64;
        let (top_w, top_a) =
            (max("SELECT max(wkfid) FROM hworkflow"), max("SELECT max(actid) FROM hactivity"));
        assert_eq!(p2.workflows().len(), 201);
        let (w2, acts2) = p2.reserve_workflow(2);
        assert_eq!((w2.0, acts2[0].0), (top_w + 1, top_a + 1));
        assert_eq!(p2.begin_workflow("next", "", ""), WorkflowId(top_w + 2));
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

    /// The scan-based resume read the SQL one replaced: copies of
    /// `hactivity`, `hactivation` and `houtput` joined by hand. The oracle
    /// [`ProvenanceStore::finished_outputs`] must answer to.
    fn finished_outputs_scan(
        p: &ProvenanceStore,
        wkf: WorkflowId,
        activity_tag: &str,
    ) -> HashMap<String, Vec<Vec<Value>>> {
        let g = p.tables.lock();
        let mut out: HashMap<String, Vec<Vec<Value>>> = Default::default();
        let act_id = g.scan_all("hactivity").iter().find_map(|r| {
            let id = r[0].as_f64()? as i64;
            let w = r[1].as_f64()? as i64;
            let tag = r[2].as_str()?;
            (w == wkf.0 && tag == activity_tag).then_some(id)
        });
        let Some(act_id) = act_id else { return out };
        let finished: HashMap<i64, String> = g
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
        let mut cells: HashMap<(String, i64, i64), Vec<(i64, Value)>> = Default::default();
        for r in &g.scan_all("houtput") {
            let Some(task) = r[1].as_f64().map(|t| t as i64) else { continue };
            let Some(pk) = finished.get(&task) else { continue };
            let tuple_idx = r[5].as_f64().unwrap_or(0.0) as i64;
            let colidx = r[6].as_f64().unwrap_or(-1.0) as i64;
            let value = if colidx < 0 {
                continue;
            } else if !r[7].is_null() {
                r[7].clone()
            } else if !r[8].is_null() {
                r[8].clone()
            } else {
                Value::Null
            };
            cells.entry((pk.clone(), task, tuple_idx)).or_default().push((colidx, value));
        }
        for pk in finished.values() {
            out.entry(pk.clone()).or_default();
        }
        let mut keyed: Vec<_> = cells.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        for ((pk, ..), mut cols) in keyed {
            cols.sort_by_key(|(c, _)| *c);
            out.entry(pk).or_default().push(cols.into_iter().map(|(_, v)| v).collect());
        }
        out
    }

    /// A resume map in key order, printed with `{:?}`: two maps print
    /// alike only if every value has the same type and bits.
    fn exact(m: HashMap<String, Vec<Vec<Value>>>) -> String {
        format!("{:?}", m.into_iter().collect::<std::collections::BTreeMap<_, _>>())
    }

    /// SplitMix64, the resume driver's own deterministic RNG.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n.max(1)
        }
    }

    const RESUME_TAGS: [&str; 3] = ["stage", "dock", "score"];

    /// Drive `p` through `steps` random calls from `seed`: several
    /// workflows and activities (now and then a second activity under a
    /// tag its workflow already has), failed attempts and their finished
    /// retries, `RUNNING` rows rewritten in place, finished activations
    /// with no outputs, zero-arity tuples, and pair keys shared across
    /// activations so one key gathers several tuples.
    fn drive_resume(p: &ProvenanceStore, seed: u64, steps: usize) {
        let mut rng = Rng(seed);
        let mut acts: Vec<(ActivityId, WorkflowId)> = Vec::new();
        let mut tasks: Vec<(TaskId, ActivityId, WorkflowId)> = Vec::new();
        for i in 0..steps {
            let choice = if acts.is_empty() { 0 } else { rng.below(8) };
            if choice == 0 {
                let w = p.begin_workflow(&format!("wf{i}"), "resume", "/e");
                for tag in RESUME_TAGS {
                    if rng.below(4) > 0 {
                        acts.push((p.register_activity(w, tag, "Map"), w));
                    }
                }
                if rng.below(3) == 0 {
                    let tag = RESUME_TAGS[rng.below(3) as usize];
                    acts.push((p.register_activity(w, tag, "Map"), w));
                }
                continue;
            }
            let (a, w) = acts[rng.below(acts.len() as u64) as usize];
            let rec = |status, rng: &mut Rng| ActivationRecord {
                activity: a,
                workflow: w,
                status,
                start_time: rng.below(100) as f64,
                end_time: 100.0 + rng.below(100) as f64,
                machine: None,
                retries: rng.below(3) as i64,
                pair_key: format!("R{}:L{}", rng.below(3), rng.below(3)),
            };
            let tuple = |rng: &mut Rng, k: usize| -> Vec<Value> {
                (0..rng.below(4))
                    .map(|c| match rng.below(6) {
                        0 => Value::Int(k as i64 * 10 + c as i64),
                        1 => Value::Float(k as f64 / 7.0 - c as f64),
                        2 => Value::Text(format!("t{k}.{c}")),
                        3 => Value::Bool(c % 2 == 0),
                        4 => Value::Timestamp(k as f64 + 0.25),
                        _ => Value::Null,
                    })
                    .collect()
            };
            match choice {
                1 => {
                    // a failed attempt, then its finished retry under the same key
                    let mut r = rec(ActivationStatus::Failed, &mut rng);
                    let t = p.record_activation(&r);
                    p.record_output_tuple(t, a, w, &r.pair_key, 0, &tuple(&mut rng, i));
                    r.status = ActivationStatus::Finished;
                    r.retries += 1;
                    let tuples: Vec<_> =
                        (0..rng.below(3)).map(|k| tuple(&mut rng, i + k as usize)).collect();
                    tasks.push((p.commit_activation(None, &r, &[], &[], &tuples), a, w));
                }
                2 => {
                    // a RUNNING row, rewritten in place by its terminal record
                    let running = p.record_activation(&rec(ActivationStatus::Running, &mut rng));
                    let status = [ActivationStatus::Finished, ActivationStatus::Aborted]
                        [rng.below(2) as usize];
                    let r = rec(status, &mut rng);
                    let tuples: Vec<_> =
                        (0..rng.below(3)).map(|k| tuple(&mut rng, i + k as usize)).collect();
                    p.commit_activation(Some(running), &r, &[("o.dlg", 1, "/e/")], &[], &tuples);
                    tasks.push((running, a, w));
                }
                3 => {
                    // finished with no outputs at all
                    tasks.push((
                        p.record_activation(&rec(ActivationStatus::Finished, &mut rng)),
                        a,
                        w,
                    ));
                }
                4 => {
                    // finished with one zero-arity tuple: a marker row, no cells
                    let r = rec(ActivationStatus::Finished, &mut rng);
                    tasks.push((p.commit_activation(None, &r, &[], &[], &[vec![]]), a, w));
                }
                5 if !tasks.is_empty() => {
                    // one more tuple on an existing activation, any index
                    let (t, ta, tw) = tasks[rng.below(tasks.len() as u64) as usize];
                    let key = format!("R{}:L{}", rng.below(3), rng.below(3));
                    let idx = rng.below(4) as usize;
                    p.record_output_tuple(t, ta, tw, &key, idx, &tuple(&mut rng, i));
                }
                6 if !tasks.is_empty() => {
                    // a published row overwritten with another status
                    let (t, ..) = tasks[rng.below(tasks.len() as u64) as usize];
                    let status = [ActivationStatus::Finished, ActivationStatus::Failed]
                        [rng.below(2) as usize];
                    assert!(p.update_activation(t, &rec(status, &mut rng)));
                }
                _ => {
                    let r = rec(ActivationStatus::Blacklisted, &mut rng);
                    p.record_activation(&r);
                }
            }
        }
    }

    /// Every `(workflow, tag)` a resume could ask for — each workflow with
    /// each tag and one no activity has, and a workflow id never begun.
    fn assert_resume_parity(p: &ProvenanceStore) {
        let mut wkfs: Vec<WorkflowId> = p.workflows().into_iter().map(|(w, _)| w).collect();
        wkfs.push(WorkflowId(wkfs.len() as i64 + 100));
        for w in wkfs {
            for tag in RESUME_TAGS.iter().chain(&["absent"]) {
                assert_eq!(
                    exact(p.finished_outputs(w, tag)),
                    exact(finished_outputs_scan(p, w, tag)),
                    "workflow {} tag {tag}",
                    w.0
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The SQL resume read returns the scan's map on random stores, in
        /// memory and durable, and on a durable store reopened after a
        /// crash at a random WAL append.
        #[test]
        fn resume_reads_what_the_scan_reads(
            seed in 0u64..u64::MAX / 2,
            steps in 1usize..40,
            crash_frac in 1u64..100,
        ) {
            use crate::durable::io::{FaultEnv, FaultPlan, MemEnv};
            let mem = ProvenanceStore::new();
            drive_resume(&mem, seed, steps);
            assert_resume_parity(&mem);

            let opts = crate::durable::DurableOptions {
                checkpoint_every: 7,
                ..Default::default()
            };
            let env = MemEnv::new();
            let durable = ProvenanceStore::open_env(Box::new(env.clone()), opts.clone()).unwrap();
            drive_resume(&durable, seed, steps);
            assert_resume_parity(&durable);
            proptest::prop_assert_eq!(durable.dump_tables(), mem.dump_tables());
            drop(durable);
            let reopened = ProvenanceStore::open_env(Box::new(env), opts.clone()).unwrap();
            assert_resume_parity(&reopened);

            let (inner, plan) = (MemEnv::new(), Arc::new(FaultPlan::panic_after(crash_frac)));
            let faulty = FaultEnv::new(Box::new(inner.clone()), Arc::clone(&plan));
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let p = ProvenanceStore::open_env(Box::new(faulty), opts.clone()).unwrap();
                drive_resume(&p, seed, steps);
            }));
            drop(crashed);
            let recovered = ProvenanceStore::open_env(Box::new(inner), opts).unwrap();
            assert_resume_parity(&recovered);
        }
    }

    /// Each read of a durable store with telemetry attached — a query, a
    /// capped query, an `EXPLAIN`, a resume read, the latest workflow —
    /// holds the tables' lock once and records one `provstore.query_hold`
    /// sample.
    #[test]
    fn every_read_is_one_query_hold_sample() {
        let tel = Telemetry::attached();
        let opts = crate::durable::DurableOptions { telemetry: tel.clone(), ..Default::default() };
        let p =
            ProvenanceStore::open_env(Box::new(crate::durable::io::MemEnv::new()), opts).unwrap();
        drive_resume(&p, 7, 30);
        let w = p.latest_workflow().unwrap();
        let hold = tel.histogram("provstore.query_hold").expect("telemetry attached");
        let reads: [(&str, &dyn Fn() -> usize); 6] = [
            ("query_rows", &|| {
                p.query_rows("SELECT count(*) FROM hactivation", &[]).unwrap().len()
            }),
            ("query_limited", &|| {
                p.query_limited("SELECT taskid FROM hactivation", 3).unwrap().len()
            }),
            ("EXPLAIN", &|| p.query_rows("EXPLAIN SELECT tag FROM hactivity", &[]).unwrap().len()),
            ("finished_outputs", &|| p.finished_outputs(w, "dock").len()),
            ("finished_outputs of no activity", &|| p.finished_outputs(w, "absent").len()),
            ("latest_workflow", &|| p.latest_workflow().map_or(0, |w| w.0 as usize)),
        ];
        for (read, call) in reads {
            let before = hold.count();
            call();
            assert_eq!(hold.count(), before + 1, "{read}");
        }
    }
}
