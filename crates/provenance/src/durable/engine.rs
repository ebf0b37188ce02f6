//! The durable engine: WAL appends with a group-commit policy, snapshot
//! checkpoints, and crash recovery.
//!
//! The engine owns the [`StorageEnv`] and all sequence-number bookkeeping;
//! it deliberately does **not** own the tables — the store applies ops to
//! them and hands the engine the op to log, so the exact same `apply` code
//! path runs live and during replay.
//!
//! The engine sits under the store's writer lock, one writer at a time, so
//! it needs no lock of its own: [`DurableEngine::append`] writes a frame and
//! says whether the group-commit policy now wants a flush, and a store call
//! any of whose appends said so calls [`DurableEngine::sync`] once, after
//! its last append — under `Sync` every call, under `Batched` the call
//! whose records fill or outlive the batch. An fsync error latches: every
//! append and flush after it fails too.

use std::time::Instant;

use telemetry::Telemetry;

use crate::durable::io::{LogFile, StorageEnv};
use crate::durable::snapshot::{self, Counters};
use crate::durable::wal::{self, wal_header, WalOp, WalScan, WAL_HEADER_LEN, WAL_VERSION};
use crate::durable::{Durability, DurableError, DurableOptions};
use crate::storage::{PagedDb, TableProvider};

/// What [`DurableEngine::open`] found on storage besides the snapshot's
/// tables, which it decodes into the store's own.
pub(crate) struct Recovered {
    /// The snapshot's id counters, if a snapshot existed.
    pub(crate) counters: Option<Counters>,
    /// Committed WAL ops after the snapshot, in commit order.
    pub(crate) ops: Vec<WalOp>,
}

/// Rows in every table of `db`: the checkpoint policy's measure of what a
/// snapshot of it covers.
pub(crate) fn rows_in(db: &PagedDb) -> u64 {
    db.table_names().iter().map(|n| db.row_count(n).expect("listed table")).sum()
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
    /// Set by the first fsync that fails, never cleared: whatever the log
    /// holds past the last good fsync may be lost, so nothing more is
    /// acknowledged.
    failed: bool,
    telemetry: Telemetry,
}

impl DurableEngine {
    /// Open the env, run recovery, and return the engine plus whatever
    /// committed state it found. A snapshot's tables are decoded into `db`,
    /// which must hold none of them.
    ///
    /// Torn WAL tails are truncated here; a corrupt snapshot or WAL header
    /// is a hard error (we will not silently drop a whole database).
    pub(crate) fn open(
        env: Box<dyn StorageEnv>,
        options: &DurableOptions,
        db: &mut PagedDb,
    ) -> Result<(DurableEngine, Recovered), DurableError> {
        let snap = match env.read_snapshot().map_err(DurableError::Io)? {
            Some(bytes) => Some(snapshot::decode_into(&bytes, db)?),
            None => None,
        };
        let base_seq = snap.map_or(0, |(seq, _)| seq);
        let snapshot_rows = rows_in(db);
        let mut log = env.open_log().map_err(DurableError::Io)?;
        let bytes = log.read_all().map_err(DurableError::Io)?;
        let mut stale_header = false;
        let (ops, last_seq) = match wal::scan(&bytes) {
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
            failed: false,
            telemetry: options.telemetry.clone(),
        };
        Ok((engine, Recovered { counters: snap.map(|(_, counters)| counters), ops }))
    }

    /// Append one record to the WAL — one frame, however many mutations it
    /// carries — and return whether the group-commit policy, toward which
    /// (as toward the checkpoint policy) the record counts once per
    /// mutation, now wants a [`sync`](Self::sync). The frame is written,
    /// not forced to disk. A record the frame cannot hold is an
    /// `InvalidData` error, and nothing reaches the log.
    pub(crate) fn append(&mut self, op: &WalOp) -> std::io::Result<bool> {
        debug_assert!(!self.stale_header, "a version-1 log is checkpointed before any append");
        self.check()?;
        let t0 = Instant::now();
        let frame = wal::frame(self.next_seq, op)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.log.append(&frame)?;
        self.next_seq += 1;
        self.tail_mutations += op.mutations();
        self.pending += op.mutations();
        let since = *self.pending_since.get_or_insert(t0);
        if self.telemetry.is_enabled() {
            if let Some(h) = self.telemetry.histogram("provstore.wal_append") {
                h.record(t0.elapsed().as_nanos() as u64);
            }
            self.telemetry.count("provstore.wal_appends", 1);
        }
        Ok(match self.durability {
            Durability::Sync => true,
            Durability::Batched { max_ops, max_delay } => {
                self.pending >= max_ops as u64 || since.elapsed() >= max_delay
            }
        })
    }

    /// Group commit: fsync the log, making every appended record durable,
    /// unless nothing is pending.
    pub(crate) fn sync(&mut self) -> std::io::Result<()> {
        self.check()?;
        if self.pending == 0 {
            return Ok(());
        }
        if let Some(h) = self.telemetry.histogram("provstore.commit_batch") {
            h.record(self.pending);
        }
        let t0 = Instant::now();
        if let Err(e) = self.log.sync() {
            self.failed = true;
            return Err(e);
        }
        self.pending = 0;
        self.pending_since = None;
        if let Some(h) = self.telemetry.histogram("provstore.group_commit") {
            h.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// An error once any fsync has failed.
    fn check(&self) -> std::io::Result<()> {
        if self.failed {
            return Err(std::io::Error::other("an earlier WAL fsync failed"));
        }
        Ok(())
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

    /// Write a snapshot covering everything logged so far, then truncate
    /// the WAL back to its header. `encode` is handed the last logged
    /// sequence number and returns the snapshot's bytes and the rows it
    /// holds; it is the only step that needs the tables.
    ///
    /// Ordering: flush WAL → encode → write+rename snapshot → truncate WAL,
    /// all under the store's writer lock, so no record is appended between
    /// them. A crash between the last two steps leaves stale frames the next
    /// recovery skips via the snapshot's `base_seq`. A version-1 header is
    /// replaced on the way (truncate to nothing, append the current header);
    /// a crash between those two leaves an empty log, which the next open
    /// reinitializes — the snapshot already holds everything.
    pub(crate) fn checkpoint(
        &mut self,
        encode: impl FnOnce(u64) -> (Vec<u8>, u64),
    ) -> std::io::Result<()> {
        let t0 = Instant::now();
        self.sync()?;
        let covered = self.next_seq - 1;
        let (bytes, rows) = encode(covered);
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
        self.snapshot_rows = rows;
        self.telemetry.count("provstore.checkpoints", 1);
        if let Some(h) = self.telemetry.histogram("provstore.checkpoint") {
            h.record(t0.elapsed().as_nanos() as u64);
        }
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
        let _ = self.sync();
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

    /// [`DurableEngine::open`] decoding any snapshot into a fresh store.
    fn open(
        env: &MemEnv,
        durability: Durability,
    ) -> Result<(DurableEngine, Recovered, PagedDb), DurableError> {
        let mut db = PagedDb::in_memory();
        let (eng, rec) = DurableEngine::open(Box::new(env.clone()), &opts(durability), &mut db)?;
        Ok((eng, rec, db))
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
        let (mut eng, rec, _) = open(&env, Durability::Sync).expect("fresh env opens");
        assert!(rec.counters.is_none());
        assert!(rec.ops.is_empty());
        for i in 1..=5 {
            eng.append(&op(i)).unwrap();
        }
        assert_eq!(eng.last_seq(), 5);
        drop(eng);
        let (eng2, rec2, _) = open(&env, Durability::Sync).expect("reopen");
        assert_eq!(rec2.ops, (1..=5).map(op).collect::<Vec<_>>());
        assert_eq!(eng2.last_seq(), 5);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let env = MemEnv::new();
        let (mut eng, _, _) = open(&env, Durability::Sync).unwrap();
        for i in 1..=3 {
            eng.append(&op(i)).unwrap();
        }
        drop(eng);
        let mut bytes = env.wal_bytes();
        let full = bytes.len();
        bytes.truncate(full - 7); // tear the last frame
        env.set_wal_bytes(bytes);
        let (eng2, rec, _) = open(&env, Durability::Sync).unwrap();
        assert_eq!(rec.ops.len(), 2);
        assert_eq!(eng2.last_seq(), 2);
        // the torn bytes are physically gone, and appending works again
        assert!(env.wal_bytes().len() < full - 7 + 1);
        drop(eng2);
    }

    #[test]
    fn checkpoint_then_tail_replay() {
        let env = MemEnv::new();
        let (mut eng, _, mut db) = open(&env, Durability::Sync).unwrap();
        db.create_table("t", crate::table::Schema::new(&[("x", crate::value::ValueType::Int)]))
            .unwrap();
        for i in 1..=4 {
            eng.append(&op(i)).unwrap();
        }
        db.insert("t", vec![crate::value::Value::Int(42)]).unwrap();
        let counters = Counters { next_task: 5, ..Default::default() };
        eng.checkpoint(|seq| (snapshot::encode(&db, &counters, seq), rows_in(&db))).unwrap();
        assert_eq!(eng.base_seq(), 4);
        for i in 5..=6 {
            eng.append(&op(i)).unwrap();
        }
        drop(eng);
        let (eng2, rec, snap_db) = open(&env, Durability::Sync).unwrap();
        assert_eq!(rec.counters, Some(counters));
        assert_eq!(snap_db.row_count("t").unwrap(), 1);
        assert_eq!(rec.ops, vec![op(5), op(6)]);
        assert_eq!(eng2.last_seq(), 6);
    }

    #[test]
    fn stale_frames_below_snapshot_skipped() {
        // simulate a crash between snapshot rename and WAL truncate: the
        // snapshot covers seq 1..=3 but the WAL still holds those frames
        let env = MemEnv::new();
        let (mut eng, _, _) = open(&env, Durability::Sync).unwrap();
        for i in 1..=3 {
            eng.append(&op(i)).unwrap();
        }
        drop(eng);
        let db = PagedDb::in_memory();
        let snap = snapshot::encode(&db, &Counters::default(), 3);
        env.set_snapshot_bytes(Some(snap));
        let (eng2, rec, _) = open(&env, Durability::Sync).unwrap();
        assert!(rec.counters.is_some());
        assert!(rec.ops.is_empty(), "frames ≤ base_seq are in the snapshot already");
        assert_eq!(eng2.last_seq(), 3);
        drop(eng2);
        // partial overlap: snapshot covers 1..=2, WAL holds 1..=3 → only
        // frame 3 replays
        let snap = snapshot::encode(&db, &Counters::default(), 2);
        env.set_snapshot_bytes(Some(snap));
        let (_, rec, _) = open(&env, Durability::Sync).unwrap();
        assert_eq!(rec.ops, vec![op(3)]);
    }

    #[test]
    fn batched_commit_flushes_at_max_ops() {
        let env = MemEnv::new();
        let durability =
            Durability::Batched { max_ops: 3, max_delay: std::time::Duration::from_secs(3600) };
        let (mut eng, _, _) = open(&env, durability).unwrap();
        assert!(!eng.append(&op(1)).unwrap());
        assert!(!eng.append(&op(2)).unwrap());
        assert_eq!(eng.pending, 2);
        assert!(eng.append(&op(3)).unwrap(), "hit max_ops → group commit due");
        assert_eq!(env.syncs(), 1, "only the header is synced so far");
        eng.sync().unwrap();
        assert_eq!((eng.pending, env.syncs()), (0, 2));
        eng.sync().unwrap();
        assert_eq!(env.syncs(), 2, "nothing pending costs no second fsync");
        assert!(!eng.append(&op(4)).unwrap(), "one pending mutation is not due");
        eng.sync().unwrap();
        assert_eq!((eng.pending, env.syncs()), (0, 3));
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let env = MemEnv::new();
        env.set_snapshot_bytes(Some(b"garbage".to_vec()));
        let Err(err) = open(&env, Durability::Sync) else {
            panic!("garbage snapshot must not open");
        };
        assert!(matches!(err, DurableError::Corrupt(_)));
    }

    #[test]
    fn bad_wal_header_is_a_hard_error() {
        let env = MemEnv::new();
        env.set_wal_bytes(b"NOTMAGIC\x01\x00\x00\x00rest".to_vec());
        let Err(err) = open(&env, Durability::Sync) else {
            panic!("foreign WAL header must not open");
        };
        assert!(matches!(err, DurableError::Corrupt(_)));
    }
}
