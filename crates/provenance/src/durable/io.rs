//! Storage abstraction of the durable layer.
//!
//! The engine never touches the filesystem directly: it talks to a
//! [`StorageEnv`] (one write-ahead log + one snapshot slot). Three
//! implementations exist:
//!
//! * [`DirEnv`] — the real thing: `wal.log` / `snapshot.bin` inside a
//!   directory, with fsync and atomic (write-temp-then-rename) snapshot
//!   replacement.
//! * [`MemEnv`] — an in-memory env whose raw bytes tests can copy at any
//!   point, which is exactly a crash: recovery runs against the copied
//!   bytes while the "crashed" store keeps the originals.
//! * [`FaultEnv`] — wraps another env and injects failures: error or
//!   short-write (torn write) on the Nth append, panic (simulated
//!   process death) after N appends, or error on the Nth fsync.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// An append-only log file handle.
pub trait LogFile: Send {
    /// Read the entire current contents of the log.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Append bytes at the end of the log.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Force appended bytes to durable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate the log to `len` bytes (used to drop a torn tail and to
    /// reset the log after a snapshot checkpoint).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// A second handle on the same log, for group commit: its
    /// [`sync`](LogFile::sync) runs on whichever thread redeems a commit
    /// ticket while this handle goes on appending, and covers every append
    /// that returned before it was called.
    fn sync_handle(&self) -> io::Result<Box<dyn LogFile>>;
}

/// The durable layer's whole world: one log plus one snapshot slot.
pub trait StorageEnv: Send {
    /// Open (creating if needed) the write-ahead log.
    fn open_log(&self) -> io::Result<Box<dyn LogFile>>;
    /// Read the current snapshot, if one exists.
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replace the snapshot: after this returns, a crash sees
    /// either the old snapshot or the new one, never a torn mix.
    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()>;
}

// ---------------------------------------------------------------- DirEnv

/// Filesystem-backed [`StorageEnv`]: `wal.log` and `snapshot.bin` in `dir`.
#[derive(Debug, Clone)]
pub struct DirEnv {
    dir: PathBuf,
}

impl DirEnv {
    /// Create the env, creating `dir` (and parents) if missing.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<DirEnv> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(DirEnv { dir: dir.as_ref().to_path_buf() })
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the snapshot file.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn sync_dir(&self) -> io::Result<()> {
        // fsync the directory so the rename itself is durable (Linux
        // allows opening a directory read-only for exactly this).
        File::open(&self.dir)?.sync_all()
    }
}

/// The log file, opened in append mode: every write lands at the end of
/// the file without a seek before it.
struct FsLog {
    file: File,
}

impl LogFile for FsLog {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync_handle(&self) -> io::Result<Box<dyn LogFile>> {
        Ok(Box::new(FsLog { file: self.file.try_clone()? }))
    }
}

impl StorageEnv for DirEnv {
    fn open_log(&self) -> io::Result<Box<dyn LogFile>> {
        let file = OpenOptions::new().read(true).append(true).create(true).open(self.wal_path())?;
        Ok(Box::new(FsLog { file }))
    }

    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.snapshot_path()) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        self.sync_dir()
    }
}

// ---------------------------------------------------------------- MemEnv

#[derive(Debug, Default)]
struct MemFiles {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    syncs: u64,
}

/// In-memory [`StorageEnv`] for tests: cloning the env shares the same
/// backing bytes, and [`MemEnv::wal_bytes`] / [`MemEnv::set_wal_bytes`]
/// let a test freeze the state at an arbitrary crash point and recover
/// from it.
#[derive(Debug, Clone, Default)]
pub struct MemEnv {
    files: Arc<Mutex<MemFiles>>,
}

impl MemEnv {
    /// Fresh, empty env.
    pub fn new() -> MemEnv {
        MemEnv::default()
    }

    /// Copy of the current WAL bytes (a crash-point freeze-frame).
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.files.lock().wal.clone()
    }

    /// Replace the WAL bytes (crash-point surgery: truncation, garbage
    /// tails, bit flips).
    pub fn set_wal_bytes(&self, bytes: Vec<u8>) {
        self.files.lock().wal = bytes;
    }

    /// Copy of the current snapshot bytes, if any.
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.files.lock().snapshot.clone()
    }

    /// Replace the snapshot bytes.
    pub fn set_snapshot_bytes(&self, bytes: Option<Vec<u8>>) {
        self.files.lock().snapshot = bytes;
    }

    /// Number of log `sync` calls made so far, through any handle.
    pub fn syncs(&self) -> u64 {
        self.files.lock().syncs
    }
}

struct MemLog {
    files: Arc<Mutex<MemFiles>>,
}

impl LogFile for MemLog {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.files.lock().wal.clone())
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.files.lock().wal.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.files.lock().syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.files.lock().wal.truncate(len as usize);
        Ok(())
    }

    fn sync_handle(&self) -> io::Result<Box<dyn LogFile>> {
        Ok(Box::new(MemLog { files: Arc::clone(&self.files) }))
    }
}

impl StorageEnv for MemEnv {
    fn open_log(&self) -> io::Result<Box<dyn LogFile>> {
        Ok(Box::new(MemLog { files: Arc::clone(&self.files) }))
    }

    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.files.lock().snapshot.clone())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        self.files.lock().snapshot = Some(bytes.to_vec());
        Ok(())
    }
}

// -------------------------------------------------------------- FaultEnv

/// What [`FaultEnv`] does to the Nth log append or sync (1-based counts
/// across the env's lifetime and all of the log's handles; `None` fields
/// never fire).
#[derive(Debug, Default)]
pub struct FaultPlan {
    appends: AtomicU64,
    syncs: AtomicU64,
    /// Return an I/O error on append number N (nothing is written).
    pub fail_at_append: Option<u64>,
    /// Write only the first half of the buffer on append number N, then
    /// error — a torn write the recovery path must truncate away.
    pub short_write_at_append: Option<u64>,
    /// Panic *after* append number N completes — simulated process death
    /// with a fully written tail.
    pub panic_after_appends: Option<u64>,
    /// Return an I/O error on sync number N (nothing is made durable).
    pub fail_at_sync: Option<u64>,
}

impl FaultPlan {
    /// Plan that errors on append number `n` (1-based).
    pub fn fail_at(n: u64) -> FaultPlan {
        FaultPlan { fail_at_append: Some(n), ..Default::default() }
    }

    /// Plan that tears append number `n` in half (1-based).
    pub fn short_write_at(n: u64) -> FaultPlan {
        FaultPlan { short_write_at_append: Some(n), ..Default::default() }
    }

    /// Plan that panics after append number `n` (and every later one) —
    /// simulated process death.
    pub fn panic_after(n: u64) -> FaultPlan {
        FaultPlan { panic_after_appends: Some(n), ..Default::default() }
    }

    /// Plan that errors on sync number `n` (1-based).
    pub fn fail_sync_at(n: u64) -> FaultPlan {
        FaultPlan { fail_at_sync: Some(n), ..Default::default() }
    }

    /// Number of append calls observed so far.
    pub fn appends_seen(&self) -> u64 {
        self.appends.load(Ordering::SeqCst)
    }

    /// Number of sync calls observed so far.
    pub fn syncs_seen(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }
}

/// Fault-injecting wrapper around another [`StorageEnv`]; see [`FaultPlan`].
pub struct FaultEnv {
    inner: Box<dyn StorageEnv>,
    plan: Arc<FaultPlan>,
}

impl FaultEnv {
    /// Wrap `inner`, injecting the faults described by `plan`.
    pub fn new(inner: Box<dyn StorageEnv>, plan: Arc<FaultPlan>) -> FaultEnv {
        FaultEnv { inner, plan }
    }
}

struct FaultLog {
    inner: Box<dyn LogFile>,
    plan: Arc<FaultPlan>,
}

impl LogFile for FaultLog {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let n = self.plan.appends.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.fail_at_append == Some(n) {
            return Err(io::Error::other("injected append failure"));
        }
        if self.plan.short_write_at_append == Some(n) {
            self.inner.append(&data[..data.len() / 2])?;
            return Err(io::Error::other("injected short write"));
        }
        self.inner.append(data)?;
        if let Some(k) = self.plan.panic_after_appends {
            if n >= k {
                panic!("injected crash after {n} WAL appends");
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let n = self.plan.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        if self.plan.fail_at_sync == Some(n) {
            return Err(io::Error::other("injected sync failure"));
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn sync_handle(&self) -> io::Result<Box<dyn LogFile>> {
        Ok(Box::new(FaultLog { inner: self.inner.sync_handle()?, plan: Arc::clone(&self.plan) }))
    }
}

impl StorageEnv for FaultEnv {
    fn open_log(&self) -> io::Result<Box<dyn LogFile>> {
        Ok(Box::new(FaultLog { inner: self.inner.open_log()?, plan: Arc::clone(&self.plan) }))
    }

    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_snapshot(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_env_shares_bytes_across_clones() {
        let env = MemEnv::new();
        let mut log = env.open_log().unwrap();
        log.append(b"hello").unwrap();
        let clone = env.clone();
        assert_eq!(clone.wal_bytes(), b"hello");
        clone.set_wal_bytes(b"he".to_vec());
        assert_eq!(log.read_all().unwrap(), b"he");
        assert!(env.snapshot_bytes().is_none());
        env.write_snapshot(b"snap").unwrap();
        assert_eq!(clone.read_snapshot().unwrap().as_deref(), Some(&b"snap"[..]));
    }

    #[test]
    fn fault_env_fails_and_short_writes() {
        let plan = Arc::new(FaultPlan { fail_at_append: Some(2), ..Default::default() });
        let env = FaultEnv::new(Box::new(MemEnv::new()), Arc::clone(&plan));
        let mut log = env.open_log().unwrap();
        log.append(b"aaaa").unwrap();
        assert!(log.append(b"bbbb").is_err());
        assert_eq!(plan.appends_seen(), 2);

        let mem = MemEnv::new();
        let plan = Arc::new(FaultPlan { short_write_at_append: Some(1), ..Default::default() });
        let env = FaultEnv::new(Box::new(mem.clone()), plan);
        let mut log = env.open_log().unwrap();
        assert!(log.append(b"abcdef").is_err());
        assert_eq!(mem.wal_bytes(), b"abc", "torn write left half the buffer");

        // syncs are counted across the log's handles, and only the Nth fails
        let mem = MemEnv::new();
        let plan = Arc::new(FaultPlan::fail_sync_at(2));
        let env = FaultEnv::new(Box::new(mem.clone()), Arc::clone(&plan));
        let mut log = env.open_log().unwrap();
        let mut handle = log.sync_handle().unwrap();
        log.sync().unwrap();
        assert!(handle.sync().is_err());
        handle.sync().unwrap();
        assert_eq!((plan.syncs_seen(), mem.syncs()), (3, 2));
    }

    #[test]
    #[should_panic(expected = "injected crash")]
    fn fault_env_panics_after_n_appends() {
        let plan = Arc::new(FaultPlan { panic_after_appends: Some(1), ..Default::default() });
        let env = FaultEnv::new(Box::new(MemEnv::new()), plan);
        let mut log = env.open_log().unwrap();
        let _ = log.append(b"x");
    }

    #[test]
    fn dir_env_roundtrip() {
        let dir = crate::durable::testing::TempDir::new("dir908-env");
        let env = DirEnv::new(dir.path()).unwrap();
        let mut log = env.open_log().unwrap();
        log.append(b"abc").unwrap();
        log.sync().unwrap();
        assert_eq!(log.read_all().unwrap(), b"abc");
        log.truncate(1).unwrap();
        log.append(b"z").unwrap();
        log.sync_handle().unwrap().sync().unwrap();
        assert_eq!(log.read_all().unwrap(), b"az");
        assert!(env.read_snapshot().unwrap().is_none());
        env.write_snapshot(b"snapshot-1").unwrap();
        env.write_snapshot(b"snapshot-2").unwrap();
        assert_eq!(env.read_snapshot().unwrap().unwrap(), b"snapshot-2");
        // reopening the log sees the same bytes
        let mut log2 = env.open_log().unwrap();
        assert_eq!(log2.read_all().unwrap(), b"az");
    }
}
