//! Durable storage for the provenance database: write-ahead log +
//! snapshot checkpoints + crash recovery.
//!
//! SciCumulus keeps its provenance in PostgreSQL precisely so steering and
//! re-submission survive worker *and coordinator* failures; this module
//! gives our from-scratch store the same property without leaving std:
//!
//! * every write is one logical `wal` record — a single mutation, or a
//!   finished activation whole — applied to the tables and appended
//!   (length-prefixed and CRC-checksummed) under the store's writer lock,
//!   before the caller sees the new id; a `commit_batch` of many activations
//!   takes the lock once and still logs one record per activation;
//! * `snapshot` checkpoints — full table serializations written
//!   atomically (temp + rename) — are taken, and the log truncated, when
//!   the log tail holds as many mutations as the snapshot holds rows (and
//!   at least [`DurableOptions::checkpoint_every`]), which keeps their total
//!   cost linear in the store and replay no longer than the snapshot load;
//! * on open, recovery loads the snapshot, replays the WAL tail through the
//!   exact code path used live, and truncates any torn tail at the first
//!   bad checksum.
//!
//! The group-commit policy ([`Durability::Batched`]) amortizes fsync over
//! many appends so the hot activation path is not fsync-bound (a record
//! counts once per mutation it carries, so bigger records do not mean
//! rarer fsyncs); an explicit
//! [`crate::provwf::ProvenanceStore::flush_wal`] (called by a run's
//! committer after each steering tick and for every barrier: a run's end, a
//! campaign's close) bounds the window of unfsynced work.
//!
//! The store has two locks, always taken writer first. A write holds the
//! writer lock throughout — which is what fixes WAL order = apply order —
//! and the tables' lock only while it applies its rows; then it appends its
//! records and, when one of them made a flush due, fsyncs the log, still
//! holding the writer lock alone. Readers take only the tables' lock, so
//! none ever waits for an append, an fsync, a snapshot write or a truncate;
//! a checkpoint holds the tables' lock only to flush the page file and
//! encode the snapshot. The promises: under [`Durability::Sync`] a call
//! returns only after an fsync covering its records, under `Batched` the
//! call that fills or outlives the batch does. An fsync error panics its
//! writer and fails every write and barrier after it.
//!
//! The recovery invariant, property-tested in `tests/durable_props.rs`:
//! **any byte prefix of the WAL recovers to a record prefix of the
//! committed mutation sequence** — never a lost committed record below the
//! prefix, never a phantom partial record.

pub(crate) mod engine;
pub mod io;
pub(crate) mod snapshot;
pub(crate) mod wal;

pub use snapshot::Counters;

use std::time::Duration;

use telemetry::Telemetry;

/// When WAL appends are forced to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync after every record. Nothing acknowledged is ever lost; a
    /// store call waits for one fsync (a `commit_batch` waits once for all
    /// its records). In a
    /// `cumulus` run the caller is the provenance committer, so a worker's
    /// record is queued, not acknowledged: the promise is kept where a run
    /// ends or a campaign turns `Finished`, both of which wait for the
    /// committer's fsync.
    Sync,
    /// Group commit: fsync once a batch fills or ages out. A crash loses at
    /// most the unfsynced suffix — which is still a committed *prefix*
    /// boundary, never a torn record.
    Batched {
        /// Flush once this many mutations are unfsynced (a record carrying
        /// a whole activation counts each of its mutations).
        max_ops: usize,
        /// Flush when the oldest unfsynced append is this old (checked on
        /// the next append; call `flush_wal` for a hard bound).
        max_delay: Duration,
    },
}

impl Default for Durability {
    fn default() -> Self {
        Durability::Batched { max_ops: 64, max_delay: Duration::from_millis(20) }
    }
}

/// Configuration for opening a durable store.
#[derive(Clone)]
pub struct DurableOptions {
    /// Commit policy.
    pub durability: Durability,
    /// Smallest log tail, in mutations, at which a snapshot checkpoint is
    /// taken (0 = only on an explicit `checkpoint()` call). Past it,
    /// checkpoints are spaced by the store's own size: one is due when the
    /// tail holds as many mutations as the snapshot holds rows.
    pub checkpoint_every: u64,
    /// Telemetry sink for `provstore.*` metrics (detached by default).
    pub telemetry: Telemetry,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            durability: Durability::default(),
            checkpoint_every: 4096,
            telemetry: Telemetry::default(),
        }
    }
}

/// Errors opening or recovering a durable store.
#[derive(Debug)]
pub enum DurableError {
    /// The storage environment failed.
    Io(std::io::Error),
    /// Stored bytes are unreadable beyond what the torn-tail rule repairs
    /// (bad snapshot CRC, foreign magic, version from the future…).
    Corrupt(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "provstore I/O error: {e}"),
            DurableError::Corrupt(m) => write!(f, "provstore corruption: {m}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<crate::codec::CodecError> for DurableError {
    fn from(e: crate::codec::CodecError) -> Self {
        DurableError::Corrupt(e.0)
    }
}

/// Test support shared by this crate's storage tests and downstream
/// crash-recovery tests.
pub mod testing {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory removed (recursively) on drop, so storage
    /// tests never leak state between runs or into the repo.
    #[derive(Debug)]
    pub struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        /// Create `<system tmp>/<prefix>-<pid>-<n>`.
        ///
        /// # Panics
        /// Panics if the directory cannot be created.
        pub fn new(prefix: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("provstore-{prefix}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create tempdir");
            TempDir { path }
        }

        /// The directory's path.
        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn tempdir_is_created_and_removed() {
            let keep;
            {
                let d = TempDir::new("lifecycle");
                keep = d.path().to_path_buf();
                assert!(keep.is_dir());
                std::fs::write(keep.join("f"), b"x").unwrap();
            }
            assert!(!keep.exists(), "dropped tempdir must be removed");
        }

        #[test]
        fn tempdirs_are_unique() {
            let a = TempDir::new("uniq");
            let b = TempDir::new("uniq");
            assert_ne!(a.path(), b.path());
        }
    }
}
