//! Executable workflow definitions: activities bound to Rust functions, plus
//! the shared file store activations exchange artifacts through.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use provenance::Value;

use crate::algebra::{Operator, Relation, Tuple};

/// Read-through hook consulted by [`FileStore::read`] on a local miss (e.g.
/// a distributed worker fetching a staged input from the master's store).
/// Returns `None` when the remote side doesn't have the file either.
pub type FetchFn = Box<dyn Fn(&str) -> Option<Arc<str>> + Send + Sync>;

/// The in-memory shared filesystem (stands in for the s3fs mount): path →
/// file contents. Thread-safe; activations on any worker see each other's
/// files.
///
/// Contents are immutable shared strings: `write` stores an `Arc<str>` and
/// `read` hands the same allocation back, so a file staged under many paths
/// or read by many activations exists once. Overwriting a path swaps the
/// pointer; readers holding the old contents keep them. Activations that
/// share a path (the per-receptor grid maps) must therefore write identical
/// bytes — which one lands last is a scheduling artifact.
///
/// A store may carry a read-through [`FetchFn`]: on a local `read` miss the
/// hook is consulted and a hit is cached locally, so a distributed worker
/// transparently pulls inputs it doesn't hold yet. `exists`/`size`/`list`
/// stay strictly local — only `read` reaches out.
#[derive(Default)]
pub struct FileStore {
    files: Mutex<HashMap<String, Arc<str>>>,
    fetch: OnceLock<FetchFn>,
}

impl fmt::Debug for FileStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileStore")
            .field("files", &self.files)
            .field("fetch", &self.fetch.get().map(|_| "<hook>"))
            .finish()
    }
}

impl FileStore {
    /// Empty store.
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Write (or overwrite) a file. An `Arc<str>` is stored as is (no copy);
    /// a `String` or `&str` is moved or copied into one.
    pub fn write(&self, path: &str, contents: impl Into<Arc<str>>) {
        self.files.lock().insert(path.to_string(), contents.into());
    }

    /// Read a file's contents. On a local miss, consults the remote-fetch
    /// hook (if [`FileStore::set_fetch_hook`] installed one) and caches a
    /// hit locally so repeat reads stay in-process.
    pub fn read(&self, path: &str) -> Option<Arc<str>> {
        if let Some(c) = self.files.lock().get(path) {
            return Some(Arc::clone(c));
        }
        let fetched = self.fetch.get()?(path)?;
        self.files.lock().entry(path.to_string()).or_insert_with(|| Arc::clone(&fetched));
        Some(fetched)
    }

    /// Install the read-through hook consulted on local `read` misses.
    /// Settable once per store; a second call is ignored (the first hook
    /// wins), which keeps an already-wired worker store consistent.
    pub fn set_fetch_hook(&self, hook: FetchFn) {
        let _ = self.fetch.set(hook);
    }

    /// File size in bytes, if present.
    pub fn size(&self, path: &str) -> Option<u64> {
        self.files.lock().get(path).map(|c| c.len() as u64)
    }

    /// Does a file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    /// All paths under a prefix (sorted).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> =
            self.files.lock().keys().filter(|k| k.starts_with(prefix)).cloned().collect();
        v.sort();
        v
    }

    /// Number of files stored.
    pub fn len(&self) -> usize {
        self.files.lock().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.files.lock().is_empty()
    }

    /// Total bytes stored (the paper's "600 GB per execution" figure is the
    /// real-system analogue of this counter).
    pub fn total_bytes(&self) -> u64 {
        self.files.lock().values().map(|c| c.len() as u64).sum()
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
    pub fn write_file(&mut self, name: &str, contents: impl Into<Arc<str>>) -> String {
        let path = format!("{}/{}", self.workdir.trim_end_matches('/'), name);
        self.files.write(&path, contents);
        self.produced.push(path.clone());
        path
    }

    /// Write an output file at an absolute path (for artifacts shared
    /// across activations, e.g. per-receptor grid maps, which are passed as
    /// one `Arc<str>` and so staged by reference); records it for
    /// provenance like [`ActivationCtx::write_file`].
    pub fn write_file_at(&mut self, path: &str, contents: impl Into<Arc<str>>) {
        self.files.write(path, contents);
        self.produced.push(path.to_string());
    }

    /// Read any file from the shared store.
    pub fn read_file(&self, path: &str) -> Result<Arc<str>, ActivityError> {
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

    /// Assemble the input relation of activity `i` from upstream outputs
    /// (or the workflow input when it has no dependencies), applying the
    /// activity's route filter.
    pub fn input_for(&self, i: usize, workflow_input: &Relation, outputs: &[Relation]) -> Relation {
        let a = &self.activities[i];
        let mut rel = if self.deps[i].is_empty() {
            workflow_input.clone()
        } else {
            let first = &outputs[self.deps[i][0]];
            let mut r = Relation { columns: first.columns.clone(), tuples: Vec::new() };
            for &d in &self.deps[i] {
                let o = &outputs[d];
                assert_eq!(
                    o.columns, r.columns,
                    "activity {i}: upstream relations must share a schema"
                );
                r.tuples.extend(o.tuples.iter().cloned());
            }
            r
        };
        if let Some((col, val)) = &a.route {
            if let Some(ci) = rel.column(col) {
                rel.tuples.retain(|t| t[ci].sql_eq(val).unwrap_or(false));
            } else {
                rel.tuples.clear();
            }
        }
        rel
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
        let shared: Arc<str> = "0.125\n".into();
        fs.write("/maps/r.C.map", Arc::clone(&shared));
        let mut ctx = ActivationCtx::new(&fs, "/exp/autogrid4/1");
        ctx.write_file_at("/maps/r.C.map", Arc::clone(&shared));
        // every read is the writer's allocation, not a copy of it
        assert!(Arc::ptr_eq(&fs.read("/maps/r.C.map").unwrap(), &shared));
        assert!(Arc::ptr_eq(&ctx.read_file("/maps/r.C.map").unwrap(), &shared));
        assert_eq!(fs.size("/maps/r.C.map"), Some(6));
        // an overwrite swaps the pointer; earlier readers keep what they read
        let before = fs.read("/maps/r.C.map").unwrap();
        fs.write("/maps/r.C.map", "0.250\n");
        assert_eq!(&*before, "0.125\n");
        assert_eq!(fs.read("/maps/r.C.map").as_deref(), Some("0.250\n"));
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
    fn input_routing() {
        let wf = WorkflowDef {
            tag: "T".into(),
            description: String::new(),
            expdir: "/exp".into(),
            activities: vec![
                Activity::map("src", &["pair", "engine"], identity_fn()),
                Activity::map("ad4", &["pair"], identity_fn())
                    .with_route("engine", Value::from("AD4")),
            ],
            deps: vec![vec![], vec![0]],
        };
        let mut out0 = Relation::new(&["pair", "engine"]);
        out0.push(vec!["p1".into(), "AD4".into()]);
        out0.push(vec!["p2".into(), "VINA".into()]);
        out0.push(vec!["p3".into(), "AD4".into()]);
        let input = wf.input_for(1, &Relation::new(&["pair", "engine"]), &[out0]);
        assert_eq!(input.len(), 2);
        assert_eq!(input.tuples[0][0], Value::from("p1"));
        assert_eq!(input.tuples[1][0], Value::from("p3"));
    }

    #[test]
    fn input_concatenates_multiple_upstreams() {
        let wf = WorkflowDef {
            tag: "T".into(),
            description: String::new(),
            expdir: "/exp".into(),
            activities: vec![
                Activity::map("a", &["x"], identity_fn()),
                Activity::map("b", &["x"], identity_fn()),
                Activity::map("c", &["x"], identity_fn()),
            ],
            deps: vec![vec![], vec![], vec![0, 1]],
        };
        let mut o0 = Relation::new(&["x"]);
        o0.push(vec![Value::Int(1)]);
        let mut o1 = Relation::new(&["x"]);
        o1.push(vec![Value::Int(2)]);
        let input = wf.input_for(2, &Relation::new(&["x"]), &[o0, o1, Relation::new(&["x"])]);
        assert_eq!(input.len(), 2);
    }

    #[test]
    fn source_activity_reads_workflow_input() {
        let wf = WorkflowDef {
            tag: "T".into(),
            description: String::new(),
            expdir: "/exp".into(),
            activities: vec![Activity::map("a", &["x"], identity_fn())],
            deps: vec![vec![]],
        };
        let mut input = Relation::new(&["x"]);
        input.push(vec![Value::Int(9)]);
        let got = wf.input_for(0, &input, &[]);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn route_on_missing_column_drops_everything() {
        let act = Activity::map("a", &["x"], identity_fn()).with_route("nope", Value::Int(1));
        let wf = WorkflowDef {
            tag: "T".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![act],
            deps: vec![vec![]],
        };
        let mut input = Relation::new(&["x"]);
        input.push(vec![Value::Int(1)]);
        assert!(wf.input_for(0, &input, &[]).is_empty());
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
