//! The durable engine: WAL appends with a group-commit policy, snapshot
//! checkpoints, and crash recovery.
//!
//! The engine owns the [`StorageEnv`] and all sequence-number bookkeeping;
//! it deliberately does **not** own the tables — the store applies ops to
//! them and hands the engine the op to log, so the exact same `apply` code
//! path runs live and during replay.
//!
//! Group commit keeps the disk out of the store's lock. Under the lock a
//! commit applies, encodes and `write`s its frame — that fixes WAL order =
//! apply order — and, when the commit policy says a flush is due,
//! [`DurableEngine::append`] leaves a *ticket*: the sequence number that
//! must be durable before the committer may return. The store's commit
//! wrapper takes the ticket, releases the lock and redeems it at the shared
//! [`Syncer`], which fsyncs through a second handle on the log unless its
//! durable watermark already covers the ticket. So concurrent committers
//! share one fsync, a query never queues behind a disk flush, and no
//! acknowledgement is given earlier than before: `Sync` tickets every record,
//! `Batched` the record that fills or outlives the batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use telemetry::Telemetry;

use crate::durable::io::{LogFile, StorageEnv};
use crate::durable::snapshot::{self, Counters};
use crate::durable::wal::{encode_frame, wal_header, WalOp, WalScan, WAL_HEADER_LEN, WAL_VERSION};
use crate::durable::{Durability, DurableError, DurableOptions};
use crate::storage::TableProvider;
use crate::table::Database;

/// What [`DurableEngine::open`] found on storage.
pub(crate) struct Recovered {
    /// Snapshot state, if a snapshot existed.
    pub(crate) snapshot: Option<(Database, Counters)>,
    /// Committed WAL ops after the snapshot, in commit order.
    pub(crate) ops: Vec<WalOp>,
}

/// The one place a commit's fsync is issued, shared by every committer and
/// called with the store's lock released.
pub(crate) struct Syncer {
    /// Sequence number of the last frame `write`n to the log in full: stored
    /// under the store's lock once the write has returned, and read before
    /// an fsync starts — so that fsync covers every frame up to the value read.
    written: AtomicU64,
    /// Highest sequence number known durable. Stored under `handle`'s lock.
    durable: AtomicU64,
    /// Set by the first fsync that fails, never cleared: whatever the log
    /// holds past `durable` may be lost, so nothing more is acknowledged.
    failed: AtomicBool,
    /// A second handle on the log. Committers with a ticket queue on its
    /// lock; whoever holds it is inside the fsync the others may share.
    handle: Mutex<Box<dyn LogFile>>,
    telemetry: Telemetry,
}

impl Syncer {
    /// Return once frame `seq` is durable: fsync, unless an fsync that began
    /// after `seq` was written has completed meanwhile.
    pub(crate) fn sync_to(&self, seq: u64) -> std::io::Result<()> {
        self.sync_locked(&mut **self.handle.lock(), seq)
    }

    fn sync_locked(&self, handle: &mut dyn LogFile, seq: u64) -> std::io::Result<()> {
        self.check()?;
        if self.durable.load(Ordering::SeqCst) >= seq {
            self.telemetry.count("provstore.fsync_shared", 1);
            return Ok(());
        }
        let covers = self.written.load(Ordering::SeqCst);
        let t0 = Instant::now();
        if let Err(e) = handle.sync() {
            self.failed.store(true, Ordering::SeqCst);
            return Err(e);
        }
        self.durable.store(covers, Ordering::SeqCst);
        if let Some(h) = self.telemetry.histogram("provstore.group_commit") {
            h.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// An error once any fsync has failed.
    fn check(&self) -> std::io::Result<()> {
        if self.failed.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("an earlier WAL fsync failed"));
        }
        Ok(())
    }
}

/// The storage engine behind a durable `ProvenanceStore`.
pub(crate) struct DurableEngine {
    env: Box<dyn StorageEnv>,
    log: Box<dyn LogFile>,
    /// Sequence number the next appended frame will carry.
    next_seq: u64,
    /// Highest sequence number covered by the current snapshot.
    base_seq: u64,
    durability: Durability,
    /// Mutations appended but not yet fsynced.
    pending: u64,
    /// When the oldest pending record was appended.
    pending_since: Option<Instant>,
    /// Mutations logged since the last checkpoint — what recovery would
    /// replay. Counted from the replayed tail at open.
    tail_mutations: u64,
    /// Rows in the current snapshot (0 = none): the checkpoint policy's
    /// measure of the mutations the snapshot covers, recounted at open.
    snapshot_rows: u64,
    /// Floor of the auto-checkpoint threshold, in mutations (0 = manual
    /// checkpoints only).
    checkpoint_every: u64,
    /// The log still carries a version-1 header: it must be checkpointed
    /// (which rewrites the header) before anything is appended to it.
    stale_header: bool,
    telemetry: Telemetry,
    syncer: Arc<Syncer>,
    /// The ticket left by the commits made under the current acquisition of
    /// the store's lock: the sequence number that must be durable before
    /// their caller returns. The store's commit wrapper takes it.
    due: Option<u64>,
}

impl DurableEngine {
    /// Open the env, run recovery, and return the engine plus whatever
    /// committed state it found.
    ///
    /// Torn WAL tails are truncated here; a corrupt snapshot or WAL header
    /// is a hard error (we will not silently drop a whole database).
    pub(crate) fn open(
        env: Box<dyn StorageEnv>,
        options: &DurableOptions,
    ) -> Result<(DurableEngine, Recovered), DurableError> {
        let snap = match env.read_snapshot().map_err(DurableError::Io)? {
            Some(bytes) => {
                let (db, counters, base_seq) = snapshot::decode(&bytes)?;
                Some((db, counters, base_seq))
            }
            None => None,
        };
        let base_seq = snap.as_ref().map_or(0, |(_, _, s)| *s);
        let snapshot_rows = snap.as_ref().map_or(0, |(db, _, _)| {
            db.table_names().iter().map(|n| db.table(n).map_or(0, |t| t.len() as u64)).sum()
        });
        let mut log = env.open_log().map_err(DurableError::Io)?;
        let bytes = log.read_all().map_err(DurableError::Io)?;
        let mut stale_header = false;
        let (ops, last_seq) = match crate::durable::wal::scan(&bytes) {
            WalScan::Reinit => {
                // no frame was ever durable: write a fresh header
                log.truncate(0).map_err(DurableError::Io)?;
                log.append(&wal_header()).map_err(DurableError::Io)?;
                log.sync().map_err(DurableError::Io)?;
                (Vec::new(), base_seq)
            }
            WalScan::BadHeader(msg) => {
                return Err(DurableError::Corrupt(format!("WAL header: {msg}")))
            }
            WalScan::Frames { version, ops, valid_len, torn } => {
                stale_header = version != WAL_VERSION;
                if torn {
                    log.truncate(valid_len).map_err(DurableError::Io)?;
                    log.sync().map_err(DurableError::Io)?;
                }
                let last_seq = ops.last().map_or(base_seq, |(s, _)| (*s).max(base_seq));
                // frames at or below base_seq are already inside the
                // snapshot (a crash between snapshot rename and WAL
                // truncate leaves them behind); replay only what's newer
                let kept: Vec<(u64, WalOp)> =
                    ops.into_iter().filter(|(s, _)| *s > base_seq).collect();
                if let Some((first, _)) = kept.first() {
                    if *first != base_seq + 1 {
                        return Err(DurableError::Corrupt(format!(
                            "WAL starts at seq {first}, snapshot covers up to {base_seq}"
                        )));
                    }
                }
                (kept.into_iter().map(|(_, op)| op).collect::<Vec<WalOp>>(), last_seq)
            }
        };
        let syncer = Arc::new(Syncer {
            written: AtomicU64::new(last_seq),
            durable: AtomicU64::new(last_seq),
            failed: AtomicBool::new(false),
            handle: Mutex::new(log.sync_handle().map_err(DurableError::Io)?),
            telemetry: options.telemetry.clone(),
        });
        let engine = DurableEngine {
            env,
            log,
            next_seq: last_seq + 1,
            base_seq,
            durability: options.durability,
            pending: 0,
            pending_since: None,
            tail_mutations: ops.iter().map(WalOp::mutations).sum(),
            snapshot_rows,
            checkpoint_every: options.checkpoint_every,
            stale_header,
            telemetry: options.telemetry.clone(),
            syncer,
            due: None,
        };
        Ok((engine, Recovered { snapshot: snap.map(|(db, c, _)| (db, c)), ops }))
    }

    /// Append one record to the WAL — one frame, however many mutations it
    /// carries — and apply the group-commit policy, toward which (as toward
    /// the checkpoint policy) the record counts once per mutation. The frame
    /// is written, not forced to disk: when the policy wants that, a ticket
    /// is left for [`take_due`](Self::take_due).
    pub(crate) fn append(&mut self, op: &WalOp) -> std::io::Result<()> {
        debug_assert!(!self.stale_header, "a version-1 log is checkpointed before any append");
        self.syncer.check()?;
        let t0 = Instant::now();
        let frame = encode_frame(self.next_seq, op);
        self.log.append(&frame)?;
        self.syncer.written.store(self.next_seq, Ordering::SeqCst);
        self.next_seq += 1;
        self.tail_mutations += op.mutations();
        self.pending += op.mutations();
        if self.pending_since.is_none() {
            self.pending_since = Some(t0);
        }
        let due = match self.durability {
            Durability::Sync => true,
            Durability::Batched { max_ops, max_delay } => {
                self.pending >= max_ops as u64
                    || self.pending_since.is_some_and(|s| s.elapsed() >= max_delay)
            }
        };
        if due {
            self.ticket();
        }
        if self.telemetry.is_enabled() {
            if let Some(h) = self.telemetry.histogram("provstore.wal_append") {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            self.telemetry.count("provstore.wal_appends", 1);
        }
        Ok(())
    }

    /// Close the pending batch (a group commit): everything appended so far
    /// is to be durable before the caller of the current store call returns.
    /// Leaves no ticket when nothing is pending and nothing written is still
    /// waiting for another committer's fsync.
    pub(crate) fn ticket(&mut self) {
        let last = self.next_seq - 1;
        if self.pending == 0 && self.syncer.durable.load(Ordering::SeqCst) >= last {
            return;
        }
        if self.pending > 0 {
            if let Some(h) = self.telemetry.histogram("provstore.commit_batch") {
                h.record(self.pending);
            }
        }
        self.pending = 0;
        self.pending_since = None;
        self.due = Some(last);
    }

    /// Take the ticket the commits since the last call left, and the syncer
    /// to redeem it at once the store's lock is released.
    pub(crate) fn take_due(&mut self) -> Option<(Arc<Syncer>, u64)> {
        self.due.take().map(|seq| (Arc::clone(&self.syncer), seq))
    }

    /// Replace the commit policy (the caller flushes first if it wants the
    /// old policy's pending work bounded).
    pub(crate) fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    /// Should the caller take a checkpoint now? Yes once the log tail holds
    /// as many mutations as the snapshot holds rows, and at least
    /// `checkpoint_every`. A checkpoint costs the whole store, so spacing
    /// them by the store's own size keeps their total cost linear in it
    /// (every fixed interval would make it quadratic), and recovery never
    /// replays more than it loaded from the snapshot.
    pub(crate) fn should_checkpoint(&self) -> bool {
        self.checkpoint_every > 0
            && self.tail_mutations >= self.checkpoint_every.max(self.snapshot_rows)
    }

    /// Does the log carry an older format version's header? The store
    /// checkpoints such a log right after replaying it.
    pub(crate) fn stale_header(&self) -> bool {
        self.stale_header
    }

    /// Write a snapshot of `tables`/`counters` covering everything logged
    /// so far, then truncate the WAL back to its header.
    ///
    /// Ordering: flush WAL → write+rename snapshot → truncate WAL, all with
    /// the store's lock *and* the syncer's handle held, so no commit's fsync
    /// overlaps the truncation and a committer whose ticket this flush
    /// covered finds it covered. A crash between the last two steps leaves
    /// stale frames the next recovery skips via the snapshot's `base_seq`.
    /// A version-1 header is replaced
    /// on the way (truncate to nothing, append the current header); a crash
    /// between those two leaves an empty log, which the next open
    /// reinitializes — the snapshot already holds everything.
    pub(crate) fn checkpoint(
        &mut self,
        tables: &dyn TableProvider,
        names: &[String],
        counters: &Counters,
    ) -> std::io::Result<()> {
        let syncer = Arc::clone(&self.syncer);
        let mut handle = syncer.handle.lock();
        self.ticket();
        if let Some(seq) = self.due.take() {
            syncer.sync_locked(&mut **handle, seq)?;
        }
        let covered = self.next_seq - 1;
        let bytes = snapshot::encode(tables, names, counters, covered);
        self.env.write_snapshot(&bytes)?;
        if self.stale_header {
            self.log.truncate(0)?;
            self.log.append(&wal_header())?;
            self.stale_header = false;
        } else {
            self.log.truncate(WAL_HEADER_LEN)?;
        }
        self.log.sync()?;
        self.base_seq = covered;
        self.tail_mutations = 0;
        self.snapshot_rows = names.iter().map(|n| tables.row_count(n).expect("listed table")).sum();
        self.telemetry.count("provstore.checkpoints", 1);
        Ok(())
    }

    /// Sequence number of the last appended frame (0 = none ever).
    #[cfg(test)]
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Highest sequence the snapshot covers.
    #[cfg(test)]
    pub(crate) fn base_seq(&self) -> u64 {
        self.base_seq
    }
}

impl Drop for DurableEngine {
    fn drop(&mut self) {
        // best-effort group-commit flush; a crash here is what the WAL is for
        self.ticket();
        if let Some(seq) = self.due.take() {
            let _ = self.syncer.sync_to(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::io::MemEnv;
    use crate::provwf::{ActivationRecord, ActivationStatus, ActivityId, MachineId, WorkflowId};

    fn opts(durability: Durability) -> DurableOptions {
        DurableOptions { durability, ..Default::default() }
    }

    fn op(i: i64) -> WalOp {
        WalOp::RecordActivation {
            task: i,
            rec: ActivationRecord {
                activity: ActivityId(1),
                workflow: WorkflowId(1),
                status: ActivationStatus::Finished,
                start_time: i as f64,
                end_time: i as f64 + 1.0,
                machine: Some(MachineId(1)),
                retries: 0,
                pair_key: format!("R:{i}"),
            },
        }
    }

    #[test]
    fn append_flush_reopen_roundtrip() {
        let env = MemEnv::new();
        let (mut eng, rec) = DurableEngine::open(Box::new(env.clone()), &opts(Durability::Sync))
            .expect("fresh env opens");
        assert!(rec.snapshot.is_none());
        assert!(rec.ops.is_empty());
        for i in 1..=5 {
            eng.append(&op(i)).unwrap();
        }
        assert_eq!(eng.last_seq(), 5);
        drop(eng);
        let (eng2, rec2) =
            DurableEngine::open(Box::new(env), &opts(Durability::Sync)).expect("reopen");
        assert_eq!(rec2.ops, (1..=5).map(op).collect::<Vec<_>>());
        assert_eq!(eng2.last_seq(), 5);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let env = MemEnv::new();
        let (mut eng, _) =
            DurableEngine::open(Box::new(env.clone()), &opts(Durability::Sync)).unwrap();
        for i in 1..=3 {
            eng.append(&op(i)).unwrap();
        }
        drop(eng);
        let mut bytes = env.wal_bytes();
        let full = bytes.len();
        bytes.truncate(full - 7); // tear the last frame
        env.set_wal_bytes(bytes);
        let (eng2, rec) =
            DurableEngine::open(Box::new(env.clone()), &opts(Durability::Sync)).unwrap();
        assert_eq!(rec.ops.len(), 2);
        assert_eq!(eng2.last_seq(), 2);
        // the torn bytes are physically gone, and appending works again
        assert!(env.wal_bytes().len() < full - 7 + 1);
        drop(eng2);
    }

    #[test]
    fn checkpoint_then_tail_replay() {
        let env = MemEnv::new();
        let (mut eng, _) =
            DurableEngine::open(Box::new(env.clone()), &opts(Durability::Sync)).unwrap();
        let mut db = Database::new();
        db.create_table("t", crate::table::Schema::new(&[("x", crate::value::ValueType::Int)]))
            .unwrap();
        for i in 1..=4 {
            eng.append(&op(i)).unwrap();
        }
        db.insert("t", vec![crate::value::Value::Int(42)]).unwrap();
        let counters = Counters { next_task: 5, ..Default::default() };
        eng.checkpoint(&db, &["t".to_string()], &counters).unwrap();
        assert_eq!(eng.base_seq(), 4);
        for i in 5..=6 {
            eng.append(&op(i)).unwrap();
        }
        drop(eng);
        let (eng2, rec) = DurableEngine::open(Box::new(env), &opts(Durability::Sync)).unwrap();
        let (snap_db, snap_counters) = rec.snapshot.expect("snapshot written");
        assert_eq!(snap_counters, counters);
        assert_eq!(snap_db.table("t").unwrap().len(), 1);
        assert_eq!(rec.ops, vec![op(5), op(6)]);
        assert_eq!(eng2.last_seq(), 6);
    }

    #[test]
    fn stale_frames_below_snapshot_skipped() {
        // simulate a crash between snapshot rename and WAL truncate: the
        // snapshot covers seq 1..=3 but the WAL still holds those frames
        let env = MemEnv::new();
        let (mut eng, _) =
            DurableEngine::open(Box::new(env.clone()), &opts(Durability::Sync)).unwrap();
        for i in 1..=3 {
            eng.append(&op(i)).unwrap();
        }
        drop(eng);
        let db = Database::new();
        let snap = snapshot::encode(&db, &[], &Counters::default(), 3);
        env.set_snapshot_bytes(Some(snap));
        let (eng2, rec) =
            DurableEngine::open(Box::new(env.clone()), &opts(Durability::Sync)).unwrap();
        assert!(rec.snapshot.is_some());
        assert!(rec.ops.is_empty(), "frames ≤ base_seq are in the snapshot already");
        assert_eq!(eng2.last_seq(), 3);
        drop(eng2);
        // partial overlap: snapshot covers 1..=2, WAL holds 1..=3 → only
        // frame 3 replays
        let snap = snapshot::encode(&db, &[], &Counters::default(), 2);
        env.set_snapshot_bytes(Some(snap));
        let (_, rec) = DurableEngine::open(Box::new(env), &opts(Durability::Sync)).unwrap();
        assert_eq!(rec.ops, vec![op(3)]);
    }

    #[test]
    fn batched_commit_flushes_at_max_ops() {
        let env = MemEnv::new();
        let durability =
            Durability::Batched { max_ops: 3, max_delay: std::time::Duration::from_secs(3600) };
        let (mut eng, _) = DurableEngine::open(Box::new(env.clone()), &opts(durability)).unwrap();
        eng.append(&op(1)).unwrap();
        eng.append(&op(2)).unwrap();
        assert_eq!(eng.pending, 2);
        assert!(eng.take_due().is_none());
        eng.append(&op(3)).unwrap();
        assert_eq!(eng.pending, 0, "hit max_ops → group commit");
        let (syncer, seq) = eng.take_due().expect("the batch's ticket");
        assert_eq!((seq, env.syncs()), (3, 1), "only the header is synced so far");
        syncer.sync_to(seq).unwrap();
        syncer.sync_to(seq).unwrap();
        assert_eq!(env.syncs(), 2, "a covered ticket costs no second fsync");
        eng.append(&op(4)).unwrap();
        assert!(eng.take_due().is_none(), "one pending mutation is not due");
        eng.ticket();
        assert_eq!((eng.pending, eng.take_due().map(|(_, seq)| seq)), (0, Some(4)));
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let env = MemEnv::new();
        env.set_snapshot_bytes(Some(b"garbage".to_vec()));
        let Err(err) = DurableEngine::open(Box::new(env), &opts(Durability::Sync)) else {
            panic!("garbage snapshot must not open");
        };
        assert!(matches!(err, DurableError::Corrupt(_)));
    }

    #[test]
    fn bad_wal_header_is_a_hard_error() {
        let env = MemEnv::new();
        env.set_wal_bytes(b"NOTMAGIC\x01\x00\x00\x00rest".to_vec());
        let Err(err) = DurableEngine::open(Box::new(env), &opts(Durability::Sync)) else {
            panic!("foreign WAL header must not open");
        };
        assert!(matches!(err, DurableError::Corrupt(_)));
    }
}
