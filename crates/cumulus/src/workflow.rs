//! Executable workflow definitions: activities bound to Rust functions, plus
//! the shared file store activations exchange artifacts through.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use provenance::Value;

use crate::algebra::{Operator, Tuple};

/// The content digest: 64-bit XXH64 (seed 0) of `bytes`.
///
/// The one function that names file contents — in a [`FileStore`], on the
/// worker wire and in the keys of the receptor tier and the on-disk grid
/// cache — so it is a published algorithm with fixed constants, stable
/// across builds and platforms, and reads eight bytes a step (several times
/// FNV-1a's byte loop).
pub fn digest(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, lane: u64| {
        acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    };
    let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("eight bytes"));

    let mut rest = bytes;
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        while rest.len() >= 32 {
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = round(*lane, word(&rest[8 * i..]));
            }
            rest = &rest[32..];
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, word(rest))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("four bytes")) as u64;
        h = (h ^ w.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A file's contents and their [`digest`], taken once when the contents are
/// made. Cloning shares both: a blob staged again, shipped or looked up is
/// never hashed again. Dereferences to the text.
#[derive(Clone)]
pub struct Blob {
    text: Arc<str>,
    digest: u64,
}

impl Blob {
    /// Digest `text` and wrap it.
    pub fn new(text: impl Into<Arc<str>>) -> Blob {
        let text = text.into();
        Blob { digest: digest(text.as_bytes()), text }
    }

    /// The content digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The shared allocation holding the text.
    pub fn text(&self) -> &Arc<str> {
        &self.text
    }

    /// Equal bytes (the same allocation, or a digest hit and a byte compare).
    fn same_content(&self, other: &Blob) -> bool {
        self.digest == other.digest
            && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Deref for Blob {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Blob) -> bool {
        self.same_content(other)
    }
}

impl Eq for Blob {}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl fmt::Display for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// What [`FileStore::write`] takes: text, which the store digests on the
/// way in, or a [`Blob`], whose digest it reuses.
pub struct Contents(Repr);

enum Repr {
    Text(Arc<str>),
    Blob(Blob),
}

impl From<Blob> for Contents {
    fn from(blob: Blob) -> Contents {
        Contents(Repr::Blob(blob))
    }
}

impl From<Arc<str>> for Contents {
    fn from(text: Arc<str>) -> Contents {
        Contents(Repr::Text(text))
    }
}

impl From<String> for Contents {
    fn from(text: String) -> Contents {
        Contents(Repr::Text(text.into()))
    }
}

impl From<&str> for Contents {
    fn from(text: &str) -> Contents {
        Contents(Repr::Text(text.into()))
    }
}

/// Read-through hook consulted by [`FileStore::read`] on a local miss (e.g.
/// a distributed worker fetching a staged input from the master's store).
/// Returns `None` when the remote side doesn't have the file either.
pub type FetchFn = Box<dyn Fn(&str) -> Option<Contents> + Send + Sync>;

/// The in-memory shared filesystem (stands in for the s3fs mount): path →
/// file contents. Thread-safe; activations on any worker see each other's
/// files.
///
/// Contents are [`Blob`]s, **interned**: `write` digests new text (outside
/// the store's lock), and if the store already holds equal contents —
/// a digest hit, then a byte compare — the path names that allocation
/// instead. So one content exists once however many paths name it and
/// however it arrived; [`FileStore::resident_bytes`] is what that costs and
/// [`FileStore::total_bytes`] what it would cost without. A content leaves
/// the store with the last path naming it. Overwriting a path swaps the
/// pointer; readers holding the old contents keep them. Activations that
/// share a path (the per-receptor grid maps) must write identical bytes —
/// which one lands last is a scheduling artifact.
///
/// A store may carry a read-through [`FetchFn`]: on a local `read` miss the
/// hook is consulted and a hit is cached locally, so a distributed worker
/// transparently pulls inputs it doesn't hold yet. `exists`/`size`/`list`
/// stay strictly local — only `read` reaches out.
#[derive(Default)]
pub struct FileStore {
    table: Mutex<Table>,
    fetch: OnceLock<FetchFn>,
    /// Bytes digested by `write` and not yet taken by
    /// [`FileStore::take_digest_bytes`].
    digested: AtomicU64,
}

#[derive(Default)]
struct Table {
    paths: HashMap<String, Blob>,
    /// Every content some path names, by digest (contents whose digests
    /// collide share a list), with how many paths name it.
    contents: HashMap<u64, Vec<(Blob, usize)>>,
}

impl Table {
    /// Name `blob`'s content `path`; returns the stored blob.
    fn put(&mut self, path: &str, blob: Blob) -> Blob {
        let same = self.contents.entry(blob.digest).or_default();
        let stored = match same.iter_mut().find(|(held, _)| held.same_content(&blob)) {
            Some((held, paths)) => {
                *paths += 1;
                held.clone()
            }
            None => {
                same.push((blob.clone(), 1));
                blob
            }
        };
        if let Some(old) = self.paths.insert(path.to_string(), stored.clone()) {
            self.release(&old);
        }
        stored
    }

    /// One path fewer names `blob`'s content.
    fn release(&mut self, blob: &Blob) {
        let Entry::Occupied(mut same) = self.contents.entry(blob.digest) else {
            unreachable!("a named content is held");
        };
        let list = same.get_mut();
        let at = list.iter().position(|(held, _)| Arc::ptr_eq(&held.text, &blob.text));
        let at = at.expect("a named content is held");
        list[at].1 -= 1;
        if list[at].1 == 0 {
            list.swap_remove(at);
            if list.is_empty() {
                same.remove();
            }
        }
    }
}

impl fmt::Debug for FileStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileStore")
            .field("files", &self.table.lock().paths)
            .field("fetch", &self.fetch.get().map(|_| "<hook>"))
            .finish()
    }
}

impl FileStore {
    /// Empty store.
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Write (or overwrite) a file; returns the blob the store keeps for it,
    /// which is an earlier writer's when the store already held the content.
    /// Text (`String`, `&str`, `Arc<str>`) is digested here; a [`Blob`] is
    /// stored as is.
    pub fn write(&self, path: &str, contents: impl Into<Contents>) -> Blob {
        let blob = self.blob(contents.into());
        self.table.lock().put(path, blob)
    }

    fn blob(&self, contents: Contents) -> Blob {
        match contents.0 {
            Repr::Blob(blob) => blob,
            Repr::Text(text) => {
                self.digested.fetch_add(text.len() as u64, Ordering::Relaxed);
                Blob::new(text)
            }
        }
    }

    /// Read a file's contents. On a local miss, consults the remote-fetch
    /// hook (if [`FileStore::set_fetch_hook`] installed one) and caches a
    /// hit locally so repeat reads stay in-process.
    pub fn read(&self, path: &str) -> Option<Blob> {
        if let Some(blob) = self.table.lock().paths.get(path) {
            return Some(blob.clone());
        }
        let fetched = self.blob(self.fetch.get()?(path)?);
        let mut table = self.table.lock();
        match table.paths.get(path) {
            Some(raced) => Some(raced.clone()),
            None => Some(table.put(path, fetched)),
        }
    }

    /// Install the read-through hook consulted on local `read` misses.
    /// Settable once per store; a second call is ignored (the first hook
    /// wins), which keeps an already-wired worker store consistent.
    pub fn set_fetch_hook(&self, hook: FetchFn) {
        let _ = self.fetch.set(hook);
    }

    /// File size in bytes, if present.
    pub fn size(&self, path: &str) -> Option<u64> {
        self.table.lock().paths.get(path).map(|c| c.len() as u64)
    }

    /// Does a file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.table.lock().paths.contains_key(path)
    }

    /// All paths under a prefix (sorted).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let table = self.table.lock();
        let mut v: Vec<String> =
            table.paths.keys().filter(|k| k.starts_with(prefix)).cloned().collect();
        v.sort();
        v
    }

    /// Number of files stored.
    pub fn len(&self) -> usize {
        self.table.lock().paths.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.table.lock().paths.is_empty()
    }

    /// Total bytes of every file, each counted under every path naming it
    /// (the paper's "600 GB per execution" figure is the real-system
    /// analogue of this counter).
    pub fn total_bytes(&self) -> u64 {
        self.table.lock().paths.values().map(|c| c.len() as u64).sum()
    }

    /// Bytes the store actually holds: each distinct content once.
    pub fn resident_bytes(&self) -> u64 {
        let table = self.table.lock();
        table.contents.values().flatten().map(|(blob, _)| blob.len() as u64).sum()
    }

    /// Bytes this store has digested since the last call — what a run adds
    /// to `files.digest_bytes` for it.
    pub fn take_digest_bytes(&self) -> u64 {
        self.digested.swap(0, Ordering::Relaxed)
    }
}

/// Error from an activity function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityError(pub String);

impl fmt::Display for ActivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "activity error: {}", self.0)
    }
}

impl std::error::Error for ActivityError {}

/// Per-activation context: file I/O plus provenance instrumentation.
///
/// Mirrors SciCumulus' template/extractor instrumentation: activities write
/// files through the context (recorded into `hfile`) and extract domain
/// values (recorded into `hparameter`).
pub struct ActivationCtx<'a> {
    /// The shared file store.
    pub files: &'a FileStore,
    /// Working directory of this activation (expdir/activity/tuple).
    pub workdir: String,
    pub(crate) produced: Vec<String>,
    pub(crate) params: Vec<(String, Option<f64>, Option<String>)>,
}

impl<'a> ActivationCtx<'a> {
    /// New context rooted at `workdir`.
    pub fn new(files: &'a FileStore, workdir: impl Into<String>) -> ActivationCtx<'a> {
        ActivationCtx { files, workdir: workdir.into(), produced: Vec::new(), params: Vec::new() }
    }

    /// Write an output file into the workdir; records it for provenance.
    pub fn write_file(&mut self, name: &str, contents: impl Into<Contents>) -> String {
        let path = format!("{}/{}", self.workdir.trim_end_matches('/'), name);
        self.files.write(&path, contents);
        self.produced.push(path.clone());
        path
    }

    /// Write an output file at an absolute path (for artifacts shared
    /// across activations, e.g. per-receptor grid maps, which are passed as
    /// one [`Blob`] and so staged by reference); records it for provenance
    /// like [`ActivationCtx::write_file`].
    pub fn write_file_at(&mut self, path: &str, contents: impl Into<Contents>) {
        self.files.write(path, contents);
        self.produced.push(path.to_string());
    }

    /// Read any file from the shared store.
    pub fn read_file(&self, path: &str) -> Result<Blob, ActivityError> {
        self.files.read(path).ok_or_else(|| ActivityError(format!("missing input file {path}")))
    }

    /// Record an extracted domain parameter (SciCumulus extractor component).
    pub fn record_param(&mut self, name: &str, num: Option<f64>, text: Option<&str>) {
        self.params.push((name.to_string(), num, text.map(str::to_string)));
    }

    /// Paths written so far.
    pub fn produced_files(&self) -> &[String] {
        &self.produced
    }
}

/// The function executed per activation: receives the activation's input
/// tuples (one for Map/Filter, a group for Reduce, everything for queries)
/// and returns output tuples.
pub type ActivityFn = Arc<
    dyn Fn(&[Tuple], &mut ActivationCtx<'_>) -> Result<Vec<Tuple>, ActivityError> + Send + Sync,
>;

/// Predicate marking tuples that must not be executed (poison inputs, e.g.
/// Hg-containing receptors — paper §V.C).
pub type BlacklistFn = Arc<dyn Fn(&Tuple) -> bool + Send + Sync>;

/// An executable activity.
#[derive(Clone)]
pub struct Activity {
    /// Tag used in provenance (`hactivity.tag`).
    pub tag: String,
    /// Algebraic operator.
    pub operator: Operator,
    /// Output relation column names.
    pub output_columns: Vec<String>,
    /// The activation function.
    pub func: ActivityFn,
    /// Consume only input tuples where `column == value` (routing after a
    /// Filter activity, e.g. small→AD4, large→Vina).
    pub route: Option<(String, Value)>,
    /// Input column whose value names what an activation works on (a
    /// receptor): the engine keeps two activations of this activity with
    /// equal values off the workers at once while other ready work exists.
    pub affinity: Option<String>,
    /// Poison-input rule: matching tuples are recorded as BLACKLISTED and
    /// skipped.
    pub blacklist: Option<BlacklistFn>,
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("tag", &self.tag)
            .field("operator", &self.operator)
            .field("output_columns", &self.output_columns)
            .field("route", &self.route)
            .field("affinity", &self.affinity)
            .field("has_blacklist", &self.blacklist.is_some())
            .finish()
    }
}

impl Activity {
    /// A Map activity with no routing or blacklist.
    pub fn map(tag: &str, output_columns: &[&str], func: ActivityFn) -> Activity {
        Activity {
            tag: tag.to_string(),
            operator: Operator::Map,
            output_columns: output_columns.iter().map(|s| s.to_string()).collect(),
            func,
            route: None,
            affinity: None,
            blacklist: None,
        }
    }

    /// Builder: set the operator.
    pub fn with_operator(mut self, op: Operator) -> Activity {
        self.operator = op;
        self
    }

    /// Builder: route on `column == value`.
    pub fn with_route(mut self, column: &str, value: Value) -> Activity {
        self.route = Some((column.to_string(), value));
        self
    }

    /// Builder: dispatch with affinity on input `column` — activations
    /// sharing its value (a receptor whose grids the first one builds) are
    /// not run side by side while other ready work can fill the slot. A
    /// column missing from the input schema sets no affinity.
    pub fn with_affinity(mut self, column: &str) -> Activity {
        self.affinity = Some(column.to_string());
        self
    }

    /// Builder: install a blacklist predicate.
    pub fn with_blacklist(mut self, f: BlacklistFn) -> Activity {
        self.blacklist = Some(f);
        self
    }
}

/// A workflow: activities plus dataflow dependencies.
#[derive(Debug, Clone)]
pub struct WorkflowDef {
    /// Workflow tag (`hworkflow.tag`).
    pub tag: String,
    /// Human description.
    pub description: String,
    /// Experiment directory (paths of produced files live under it).
    pub expdir: String,
    /// Activities in topological order.
    pub activities: Vec<Activity>,
    /// `deps[i]` = indices of activities whose outputs feed activity `i`
    /// (empty = consumes the workflow's input relation).
    pub deps: Vec<Vec<usize>>,
}

impl WorkflowDef {
    /// Validate structural invariants; returns an error message on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.activities.len() != self.deps.len() {
            return Err(format!(
                "{} activities but {} dependency lists",
                self.activities.len(),
                self.deps.len()
            ));
        }
        let mut tags = std::collections::HashSet::new();
        for (i, a) in self.activities.iter().enumerate() {
            if !tags.insert(a.tag.clone()) {
                return Err(format!("duplicate activity tag {:?}", a.tag));
            }
            for &d in &self.deps[i] {
                if d >= i {
                    return Err(format!(
                        "activity {i} ({}) depends on {d}, which is not upstream",
                        a.tag
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_fn() -> ActivityFn {
        Arc::new(|tuples, _ctx| Ok(tuples.to_vec()))
    }

    #[test]
    fn filestore_basics() {
        let fs = FileStore::new();
        assert!(fs.is_empty());
        fs.write("/a/b.txt", "hello");
        assert!(fs.exists("/a/b.txt"));
        assert_eq!(fs.read("/a/b.txt").as_deref(), Some("hello"));
        assert_eq!(fs.size("/a/b.txt"), Some(5));
        assert_eq!(fs.read("/nope"), None);
        fs.write("/a/c.txt", "x");
        assert_eq!(fs.list("/a/"), vec!["/a/b.txt", "/a/c.txt"]);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.total_bytes(), 6);
    }

    #[test]
    fn filestore_fetch_hook_reads_through_and_caches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let fs = FileStore::new();
        let c = Arc::clone(&calls);
        fs.set_fetch_hook(Box::new(move |path| {
            c.fetch_add(1, Ordering::SeqCst);
            (path == "/remote/only.txt").then(|| "from master".into())
        }));
        // local files never hit the hook
        fs.write("/local.txt", "here");
        assert_eq!(fs.read("/local.txt").as_deref(), Some("here"));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // miss → fetch → cached, so the second read is local
        assert_eq!(fs.read("/remote/only.txt").as_deref(), Some("from master"));
        assert_eq!(fs.read("/remote/only.txt").as_deref(), Some("from master"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // exists/size stay strictly local
        assert!(!fs.exists("/remote/other.txt"));
        assert_eq!(fs.size("/remote/other.txt"), None);
        // a remote miss is a miss (and not cached)
        assert_eq!(fs.read("/remote/other.txt"), None);
        assert_eq!(fs.read("/remote/other.txt"), None);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // second hook install is ignored
        fs.set_fetch_hook(Box::new(|_| Some("usurper".into())));
        assert_eq!(fs.read("/remote/other.txt"), None);
    }

    #[test]
    fn filestore_shares_contents_by_reference() {
        let fs = FileStore::new();
        let shared = Blob::new("0.125\n");
        fs.write("/maps/r.C.map", shared.clone());
        let mut ctx = ActivationCtx::new(&fs, "/exp/autogrid4/1");
        ctx.write_file_at("/maps/r.C.map", shared.clone());
        // every read is the writer's allocation, not a copy of it, and a
        // blob is staged without being digested again
        assert!(Arc::ptr_eq(fs.read("/maps/r.C.map").unwrap().text(), shared.text()));
        assert!(Arc::ptr_eq(ctx.read_file("/maps/r.C.map").unwrap().text(), shared.text()));
        assert_eq!(fs.size("/maps/r.C.map"), Some(6));
        assert_eq!(fs.take_digest_bytes(), 0);
        // an overwrite swaps the pointer; earlier readers keep what they read
        let before = fs.read("/maps/r.C.map").unwrap();
        fs.write("/maps/r.C.map", "0.250\n");
        assert_eq!(&*before, "0.125\n");
        assert_eq!(fs.read("/maps/r.C.map").as_deref(), Some("0.250\n"));
        assert_eq!(fs.take_digest_bytes(), 6);
        assert_eq!(fs.take_digest_bytes(), 0, "taken once");
    }

    #[test]
    fn digest_is_xxh64() {
        // reference values of XXH64 with seed 0: each length class (the
        // 32-byte stripes, 8- and 4-byte words, single bytes) is covered
        assert_eq!(digest(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(digest(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(digest(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(digest(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
        assert_eq!(Blob::new("abc").digest(), digest(b"abc"));
    }

    #[test]
    fn equal_contents_are_stored_once_until_the_last_path_goes() {
        let fs = FileStore::new();
        let text = "ATOM 1\n".repeat(100);
        let a = fs.write("/in/a.pdb", text.clone());
        let b = fs.write("/out/b.pdbqt", text.clone()); // another allocation, equal bytes
        assert!(Arc::ptr_eq(a.text(), b.text()), "the second write names the first's allocation");
        assert_eq!((fs.total_bytes(), fs.resident_bytes()), (1400, 700));
        fs.write("/in/a.pdb", "moved");
        assert_eq!(fs.read("/out/b.pdbqt").as_deref(), Some(text.as_str()));
        assert_eq!((fs.total_bytes(), fs.resident_bytes()), (705, 705));
        fs.write("/out/b.pdbqt", "moved");
        let (a, b) = (fs.read("/in/a.pdb").unwrap(), fs.read("/out/b.pdbqt").unwrap());
        assert!(Arc::ptr_eq(a.text(), b.text()));
        assert_eq!((fs.total_bytes(), fs.resident_bytes()), (10, 5), "no path names the text");
    }

    #[test]
    fn colliding_digests_keep_every_content_intact() {
        // every content under one digest: only the byte compare tells them
        // apart, and every path must still read back its own bytes
        let collide = |text: &str| Blob { text: text.into(), digest: 7 };
        let fs = FileStore::new();
        let texts = ["one", "two", "three", "one", "", "two"];
        for (i, text) in texts.iter().enumerate() {
            fs.write(&format!("/f{i}"), collide(text));
        }
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(fs.read(&format!("/f{i}")).as_deref(), Some(*text));
        }
        assert_eq!(fs.resident_bytes(), 3 + 3 + 5);
        assert!(Arc::ptr_eq(fs.read("/f0").unwrap().text(), fs.read("/f3").unwrap().text()));
        assert!(!Arc::ptr_eq(fs.read("/f0").unwrap().text(), fs.read("/f1").unwrap().text()));
        for i in 0..texts.len() {
            fs.write(&format!("/f{i}"), collide("one"));
        }
        assert_eq!(fs.resident_bytes(), 3);
        assert_eq!(fs.table.lock().contents[&7].len(), 1);
    }

    #[test]
    fn filestore_overwrite() {
        let fs = FileStore::new();
        fs.write("/f", "one");
        fs.write("/f", "two!");
        assert_eq!(fs.read("/f").as_deref(), Some("two!"));
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn ctx_records_files_and_params() {
        let fs = FileStore::new();
        let mut ctx = ActivationCtx::new(&fs, "/exp/babel/0/");
        let p = ctx.write_file("out.mol2", "MOL");
        assert_eq!(p, "/exp/babel/0/out.mol2");
        assert!(fs.exists(&p));
        assert_eq!(ctx.produced_files(), std::slice::from_ref(&p));
        ctx.record_param("feb", Some(-5.0), None);
        assert_eq!(ctx.params.len(), 1);
        assert_eq!(&*ctx.read_file(&p).unwrap(), "MOL");
        assert!(ctx.read_file("/missing").is_err());
    }

    #[test]
    fn workflow_validation() {
        let wf = WorkflowDef {
            tag: "T".into(),
            description: String::new(),
            expdir: "/exp".into(),
            activities: vec![
                Activity::map("a", &["x"], identity_fn()),
                Activity::map("b", &["x"], identity_fn()),
            ],
            deps: vec![vec![], vec![0]],
        };
        assert!(wf.validate().is_ok());

        let mut bad = wf.clone();
        bad.deps = vec![vec![], vec![1]];
        assert!(bad.validate().unwrap_err().contains("not upstream"));

        let mut dup = wf.clone();
        dup.activities[1].tag = "a".into();
        assert!(dup.validate().unwrap_err().contains("duplicate"));

        let mut mismatch = wf;
        mismatch.deps.pop();
        assert!(mismatch.validate().is_err());
    }

    #[test]
    fn activity_debug_format() {
        let a = Activity::map("tag1", &["c"], identity_fn())
            .with_blacklist(Arc::new(|_| false))
            .with_operator(Operator::Filter);
        let s = format!("{a:?}");
        assert!(s.contains("tag1"));
        assert!(s.contains("Filter"));
        assert!(s.contains("has_blacklist: true"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Writes and overwrites over a few paths and contents, each write
        /// a fresh allocation: the store reads back what was written last,
        /// names each content with one allocation, and holds exactly the
        /// contents some path still names.
        #[test]
        fn interning_store_matches_a_path_map(
            ops in proptest::collection::vec((0usize..4, 0usize..5, 0u8..2), 0..60)
        ) {
            let contents = ["", "x", "abc", &"0.125\n".repeat(9), &"ATOM ".repeat(20)];
            let fs = FileStore::new();
            let mut model: HashMap<usize, usize> = HashMap::new();
            for (path, content, as_blob) in ops {
                let text = contents[content].to_string();
                if as_blob == 1 {
                    fs.write(&format!("/p{path}"), Blob::new(text));
                } else {
                    fs.write(&format!("/p{path}"), text);
                }
                model.insert(path, content);

                for (p, c) in &model {
                    let got = fs.read(&format!("/p{p}")).expect("written");
                    proptest::prop_assert_eq!(&*got, contents[*c]);
                    for (q, d) in &model {
                        let other = fs.read(&format!("/p{q}")).expect("written");
                        proptest::prop_assert_eq!(Arc::ptr_eq(got.text(), other.text()), c == d);
                    }
                }
                let mut named: Vec<usize> = model.values().copied().collect();
                named.sort_unstable();
                named.dedup();
                let resident: u64 = named.iter().map(|&c| contents[c].len() as u64).sum();
                proptest::prop_assert_eq!(fs.resident_bytes(), resident);
                proptest::prop_assert_eq!(fs.len(), model.len());
            }
        }
    }

    #[test]
    fn filestore_concurrent_access() {
        let fs = Arc::new(FileStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                for k in 0..50 {
                    fs.write(&format!("/t{t}/f{k}"), format!("{t}:{k}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fs.len(), 400);
        assert_eq!(fs.read("/t3/f7").as_deref(), Some("3:7"));
    }
}
