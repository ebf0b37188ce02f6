//! # telemetry — lock-cheap structured telemetry for the SciDock stack
//!
//! The paper's §V.C workflow is a scientist *watching* a running campaign;
//! this crate is the instrumentation layer that makes watching possible:
//!
//! * **Spans** — timed intervals with ids, parent linkage (a thread-local
//!   span stack), and a per-thread *track* so a trace viewer can lay them
//!   out one lane per worker thread or per simulated VM;
//! * **Counters** — named `AtomicU64`s (pool parks, steals, DES events …);
//! * **Histograms** — log₂-bucketed latency histograms with exact max,
//!   powering per-activity p50/p95/max in [`MetricsSnapshot`];
//! * **Gauges** — timestamped value samples (queue depth over time); the
//!   last sample of each outlives the ring, so a snapshot always has it;
//! * a **sharded ring-buffer collector** behind everything, safe to write
//!   from many threads with one short mutex hold per record;
//! * a **Chrome-trace exporter** ([`Telemetry::export_chrome_trace`]) whose
//!   output opens directly in `chrome://tracing` or Perfetto.
//!
//! Instrumentation is *always compiled* but near-free when no sink is
//! attached: a [`Telemetry`] handle is an `Option<Arc<Collector>>`, and every
//! entry point starts with one branch on that option — no allocation, no
//! clock read, no locking on the disabled path (the layer suite's
//! `telemetry.*` rows measure this; see `benchmark/README.md`).
//!
//! ```
//! use telemetry::Telemetry;
//!
//! let tel = Telemetry::attached();
//! {
//!     let _outer = tel.span("demo", "outer");
//!     let _inner = tel.span("demo", "inner"); // parent-linked to `outer`
//! }
//! tel.count("demo.widgets", 3);
//! let snap = tel.snapshot().unwrap();
//! assert_eq!(snap.counter("demo.widgets"), Some(3));
//! let trace = tel.export_chrome_trace().unwrap();
//! assert!(trace.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod registry;

pub use metrics::{GaugeSeries, HistogramStats, MetricsSnapshot, TrackStats};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-wide track allocator: tracks are unique across collectors so a
/// thread's lazily-assigned track id is valid for any collector it records
/// into. Track 0 is reserved ("no track").
static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);
/// Process-wide collector instance ids (thread-local span stacks tag
/// entries with the collector they belong to).
static NEXT_COLLECTOR: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's track id (0 = not yet assigned).
    static THREAD_TRACK: Cell<u64> = const { Cell::new(0) };
    /// Stack of open spans on this thread: `(collector id, span id)`.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Track id of the current thread, assigning one on first use.
pub fn current_track() -> u64 {
    THREAD_TRACK.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// A monotonically increasing named counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets in a [`Histogram`] (and its serialized
/// [`HistogramSnapshot`] form).
pub const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (nanoseconds by convention).
///
/// Bucket `i` holds values whose highest set bit is `i-1` (bucket 0 holds
/// zero), i.e. the range `[2^(i-1), 2^i)`. Quantiles are approximate (bucket
/// geometric midpoint); the maximum is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        // values with the top bit set land in the last bucket
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Representative value of bucket `i` (geometric midpoint of its range).
    fn bucket_rep(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            1.5 * 2f64.powi(i as i32 - 1)
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket midpoint, exact max for
    /// the top sample).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of this histogram's state, suitable for
    /// serialization and merging. Concurrent writers may leave `count`,
    /// `sum` and the bucket totals momentarily out of step with each other;
    /// each field is individually consistent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, out) in self.buckets.iter().zip(buckets.iter_mut()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Merge a (possibly remote) snapshot's samples into this histogram:
    /// bucket counts, count and sum add; max takes the maximum.
    pub fn merge_from(&self, snap: &HistogramSnapshot) {
        for (b, v) in self.buckets.iter().zip(snap.buckets.iter()) {
            if *v > 0 {
                b.fetch_add(*v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }
}

/// A lossless, mergeable serialized form of a [`Histogram`]: the raw bucket
/// counts plus count/sum/max. This is what workers stream to the master in
/// `Stats` frames and what quantile math runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (same log₂ layout as [`Histogram`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.buckets.iter().all(|b| *b == 0)
    }

    /// Record one sample (handy for tests and offline aggregation; live
    /// recording goes through [`Histogram::record`]).
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        // wrap like the live histogram's atomic adds do
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Merge `other` into `self`: bucket counts, count and sum add; max
    /// takes the maximum. Merging two snapshots is exactly equivalent to
    /// having recorded the union of their sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `earlier` (bucket counts, count and sum
    /// subtract, saturating; max carries the current cumulative maximum so
    /// that merging deltas preserves the exact max).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, (a, b)) in buckets.iter_mut().zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *out = a.saturating_sub(*b);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket midpoint, exact max for
    /// the top sample).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count;
        if n == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        if target >= n {
            return self.max as f64;
        }
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += *b;
            if seen >= target {
                // the top bucket's representative can overshoot the true
                // maximum; clamp to the exact max
                return Histogram::bucket_rep(i).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Serialize to a flat word vector: `[count, sum, max, bucket 0 .. 63]`.
    pub fn to_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(3 + HIST_BUCKETS);
        w.push(self.count);
        w.push(self.sum);
        w.push(self.max);
        w.extend_from_slice(&self.buckets);
        w
    }

    /// Deserialize the [`HistogramSnapshot::to_words`] layout. `None` when
    /// the word count is wrong.
    pub fn from_words(w: &[u64]) -> Option<HistogramSnapshot> {
        if w.len() != 3 + HIST_BUCKETS {
            return None;
        }
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets.copy_from_slice(&w[3..]);
        Some(HistogramSnapshot { buckets, count: w[0], sum: w[1], max: w[2] })
    }
}

/// One record in the ring buffer.
#[derive(Debug, Clone)]
pub(crate) enum Record {
    /// A completed span.
    Span {
        id: u64,
        parent: u64,
        track: u64,
        cat: &'static str,
        name: Box<str>,
        start_ns: u64,
        end_ns: u64,
        detail: Option<Box<str>>,
    },
    /// An instantaneous event.
    Instant { track: u64, cat: &'static str, name: Box<str>, ts_ns: u64, detail: Option<Box<str>> },
    /// A timestamped gauge sample.
    Gauge { name: &'static str, ts_ns: u64, value: f64 },
}

impl Record {
    pub(crate) fn order_key(&self) -> u64 {
        match self {
            Record::Span { start_ns, .. } => *start_ns,
            Record::Instant { ts_ns, .. } => *ts_ns,
            Record::Gauge { ts_ns, .. } => *ts_ns,
        }
    }
}

#[derive(Debug)]
struct Shard {
    buf: Vec<Record>,
    cap: usize,
    /// Next overwrite position once the buffer is full.
    head: usize,
    dropped: u64,
}

impl Shard {
    fn push(&mut self, r: Record) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// Collector sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Number of ring-buffer shards (writers pick `track % shards`).
    pub shards: usize,
    /// Capacity of each shard; the oldest records are overwritten beyond it.
    pub shard_capacity: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig { shards: 16, shard_capacity: 16 * 1024 }
    }
}

/// The event sink: sharded ring buffers plus counter/histogram registries.
#[derive(Debug)]
pub struct Collector {
    id: u64,
    epoch: Instant,
    next_span: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// The last sample of every gauge: the ring forgets, and a gauge sampled
    /// only when it changes must not scroll out of `/metrics`.
    gauges: Mutex<BTreeMap<&'static str, (u64, f64)>>,
    tracks: Mutex<Vec<(u64, String)>>,
}

impl Collector {
    fn new(cfg: CollectorConfig) -> Collector {
        let shards = cfg.shards.max(1);
        Collector {
            id: NEXT_COLLECTOR.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        buf: Vec::new(),
                        cap: cfg.shard_capacity.max(16),
                        head: 0,
                        dropped: 0,
                    })
                })
                .collect(),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            tracks: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, track: u64, r: Record) {
        let shard = &self.shards[(track as usize) % self.shards.len()];
        shard.lock().expect("telemetry shard poisoned").push(r);
    }

    /// All records, oldest first, plus the total number of overwritten ones.
    pub(crate) fn drain_snapshot(&self) -> (Vec<Record>, u64) {
        let mut out = Vec::new();
        let mut dropped = 0;
        for s in &self.shards {
            let g = s.lock().expect("telemetry shard poisoned");
            out.extend(g.buf.iter().cloned());
            dropped += g.dropped;
        }
        out.sort_by_key(|r| r.order_key());
        (out, dropped)
    }

    pub(crate) fn track_names(&self) -> Vec<(u64, String)> {
        self.tracks.lock().expect("telemetry tracks poisoned").clone()
    }

    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("telemetry counters poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// `(name, timestamp ns, value)` of every gauge's last sample.
    pub(crate) fn last_gauges(&self) -> Vec<(&'static str, u64, f64)> {
        let g = self.gauges.lock().expect("telemetry gauges poisoned");
        g.iter().map(|(name, (ts_ns, value))| (*name, *ts_ns, *value)).collect()
    }

    pub(crate) fn hist_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.hists
            .lock()
            .expect("telemetry hists poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

/// A live span; records itself into the collector when dropped.
///
/// Obtained from [`Telemetry::span`]; a span from a disabled handle is a
/// zero-cost no-op.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    col: Arc<Collector>,
    id: u64,
    parent: u64,
    track: u64,
    cat: &'static str,
    name: Box<str>,
    start_ns: u64,
    detail: Option<Box<str>>,
    hist: Option<Arc<Histogram>>,
}

impl Span {
    /// Attach/replace the span's detail string (e.g. an outcome discovered
    /// mid-span). No-op on disabled spans; the closure is not called.
    pub fn set_detail(&mut self, f: impl FnOnce() -> String) {
        if let Some(i) = self.inner.as_mut() {
            i.detail = Some(f().into_boxed_str());
        }
    }

    /// Also record this span's duration into `hist` when it closes.
    pub fn with_histogram(mut self, hist: Option<Arc<Histogram>>) -> Span {
        if let Some(i) = self.inner.as_mut() {
            i.hist = hist;
        }
        self
    }

    /// The span id (0 for disabled spans).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(i) = self.inner.take() else { return };
        let end_ns = i.col.now_ns();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|e| *e == (i.col.id, i.id)) {
                stack.truncate(pos);
            }
        });
        if let Some(h) = &i.hist {
            h.record(end_ns.saturating_sub(i.start_ns));
        }
        i.col.push(
            i.track,
            Record::Span {
                id: i.id,
                parent: i.parent,
                track: i.track,
                cat: i.cat,
                name: i.name,
                start_ns: i.start_ns,
                end_ns,
                detail: i.detail,
            },
        );
    }
}

/// A cheap, cloneable telemetry handle: either disabled (the default — every
/// operation is a single branch) or attached to a shared [`Collector`].
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Collector>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(c) => write!(f, "Telemetry(attached #{})", c.id),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle attached to a fresh collector with default sizing.
    pub fn attached() -> Telemetry {
        Telemetry::with_config(CollectorConfig::default())
    }

    /// A handle attached to a fresh collector with explicit sizing.
    pub fn with_config(cfg: CollectorConfig) -> Telemetry {
        Telemetry { inner: Some(Arc::new(Collector::new(cfg))) }
    }

    /// Is a sink attached?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the collector's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.now_ns())
    }

    /// Open a span on the current thread's track. `name` is only copied when
    /// a sink is attached.
    pub fn span(&self, cat: &'static str, name: &str) -> Span {
        let Some(col) = &self.inner else { return Span { inner: None } };
        let id = col.next_span.fetch_add(1, Ordering::Relaxed);
        let track = current_track();
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find_map(|(cid, sid)| (*cid == col.id).then_some(*sid))
                .unwrap_or(0);
            stack.push((col.id, id));
            parent
        });
        Span {
            inner: Some(SpanInner {
                col: Arc::clone(col),
                id,
                parent,
                track,
                cat,
                name: name.into(),
                start_ns: col.now_ns(),
                detail: None,
                hist: None,
            }),
        }
    }

    /// Open a span with a lazily-built detail string (not evaluated when
    /// disabled).
    pub fn span_detail(
        &self,
        cat: &'static str,
        name: &str,
        detail: impl FnOnce() -> String,
    ) -> Span {
        let mut s = self.span(cat, name);
        s.set_detail(detail);
        s
    }

    /// Record an already-measured interval (used for simulated clocks, where
    /// `start_ns`/`end_ns` are simulated nanoseconds). `track` of `None`
    /// means the current thread's track. Returns the span id (0 if disabled).
    pub fn record_span_at(
        &self,
        cat: &'static str,
        name: &str,
        track: Option<u64>,
        start_ns: u64,
        end_ns: u64,
        detail: Option<&str>,
    ) -> u64 {
        let Some(col) = &self.inner else { return 0 };
        let id = col.next_span.fetch_add(1, Ordering::Relaxed);
        let track = track.unwrap_or_else(current_track);
        col.push(
            track,
            Record::Span {
                id,
                parent: 0,
                track,
                cat,
                name: name.into(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                detail: detail.map(Into::into),
            },
        );
        id
    }

    /// Record an instantaneous event on the current thread's track (or an
    /// explicit one).
    pub fn instant(&self, cat: &'static str, name: &str, detail: Option<&str>) {
        self.instant_at(cat, name, None, self.now_ns(), detail);
    }

    /// Record an instantaneous event with an explicit timestamp/track.
    pub fn instant_at(
        &self,
        cat: &'static str,
        name: &str,
        track: Option<u64>,
        ts_ns: u64,
        detail: Option<&str>,
    ) {
        let Some(col) = &self.inner else { return };
        let track = track.unwrap_or_else(current_track);
        col.push(
            track,
            Record::Instant {
                track,
                cat,
                name: name.into(),
                ts_ns,
                detail: detail.map(Into::into),
            },
        );
    }

    /// Record a gauge sample (timestamped value series, e.g. queue depth).
    pub fn gauge(&self, name: &'static str, value: f64) {
        let Some(col) = &self.inner else { return };
        let ts_ns = col.now_ns();
        self.gauge_at(name, ts_ns, value);
    }

    /// Record a gauge sample at an explicit (e.g. simulated) timestamp.
    pub fn gauge_at(&self, name: &'static str, ts_ns: u64, value: f64) {
        let Some(col) = &self.inner else { return };
        col.gauges.lock().expect("telemetry gauges poisoned").insert(name, (ts_ns, value));
        col.push(0, Record::Gauge { name, ts_ns, value });
    }

    /// Handle to the named counter (None when disabled). Hot paths should
    /// call this once and keep the `Arc`.
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        let col = self.inner.as_ref()?;
        let mut g = col.counters.lock().expect("telemetry counters poisoned");
        Some(Arc::clone(g.entry(name.to_string()).or_default()))
    }

    /// Add `delta` to the named counter (registry lookup per call — fine off
    /// the hot path).
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(c) = self.counter(name) {
            c.add(delta);
        }
    }

    /// Handle to the named histogram (None when disabled).
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        let col = self.inner.as_ref()?;
        let mut g = col.hists.lock().expect("telemetry hists poisoned");
        Some(Arc::clone(g.entry(name.to_string()).or_default()))
    }

    /// Allocate a fresh named track (a lane in the trace viewer, e.g. one
    /// per simulated VM). Returns 0 when disabled.
    pub fn alloc_track(&self, name: &str) -> u64 {
        let Some(col) = &self.inner else { return 0 };
        let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        col.tracks.lock().expect("telemetry tracks poisoned").push((id, name.to_string()));
        id
    }

    /// Name the current thread's track (e.g. "cumulus-worker-3").
    pub fn name_current_track(&self, name: &str) {
        let Some(col) = &self.inner else { return };
        let id = current_track();
        let mut g = col.tracks.lock().expect("telemetry tracks poisoned");
        if let Some(e) = g.iter_mut().find(|(t, _)| *t == id) {
            e.1 = name.to_string();
        } else {
            g.push((id, name.to_string()));
        }
    }

    /// Aggregate everything recorded so far into a [`MetricsSnapshot`]
    /// (None when disabled).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|c| metrics::build_snapshot(c))
    }

    /// Export everything recorded so far as Chrome-trace JSON (open in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). None when disabled.
    pub fn export_chrome_trace(&self) -> Option<String> {
        self.inner.as_ref().map(|c| chrome::export(c))
    }

    /// Counter and histogram growth since `cursor`'s last position,
    /// advancing the cursor. This is the worker side of metrics streaming:
    /// call it periodically and ship the (small) delta; the receiver feeds
    /// each delta to [`Telemetry::absorb`]. An empty delta (and a disabled
    /// handle) returns [`StatsDelta::is_empty`]` == true`.
    pub fn delta_since(&self, cursor: &mut DeltaCursor) -> StatsDelta {
        let mut out = StatsDelta::default();
        let Some(col) = &self.inner else { return out };
        for (name, cur) in col.counter_values() {
            let last = cursor.counters.get(&name).copied().unwrap_or(0);
            if cur > last {
                out.counters.push((name.clone(), cur - last));
            }
            cursor.counters.insert(name, cur);
        }
        for (name, h) in col.hist_handles() {
            let snap = h.snapshot();
            let delta = match cursor.hists.get(&name) {
                Some(prev) => snap.delta_since(prev),
                None => snap.clone(),
            };
            if !delta.is_empty() {
                out.hists.push((name.clone(), delta));
            }
            cursor.hists.insert(name, snap);
        }
        out
    }

    /// Merge a [`StatsDelta`] (usually streamed from a remote worker) into
    /// this collector's counters and histograms. No-op when disabled.
    pub fn absorb(&self, delta: &StatsDelta) {
        if self.inner.is_none() {
            return;
        }
        for (name, v) in &delta.counters {
            self.count(name, *v);
        }
        for (name, snap) in &delta.hists {
            if let Some(h) = self.histogram(name) {
                h.merge_from(snap);
            }
        }
    }

    /// Merge spans measured on a *remote* clock into this collector, placed
    /// on `track` (usually one lane per worker, from [`Telemetry::alloc_track`]).
    /// Each timestamp is shifted by `offset_ns` — the master-epoch time minus
    /// the remote-epoch time at a common instant — so remote spans line up
    /// with local ones in a Chrome trace. No-op when disabled.
    pub fn import_spans(&self, track: u64, offset_ns: i64, spans: &[RemoteSpan]) {
        if self.inner.is_none() {
            return;
        }
        let shift = |t: u64| -> u64 { (t as i64).saturating_add(offset_ns).max(0) as u64 };
        for s in spans {
            self.record_span_at(
                "worker",
                &s.name,
                Some(track),
                shift(s.start_ns),
                shift(s.end_ns),
                s.detail.as_deref(),
            );
        }
    }
}

/// Counter increments and histogram sample deltas accumulated between two
/// [`Telemetry::delta_since`] calls — the payload of a worker `Stats` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Counter increments since the cursor position, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Histogram sample deltas since the cursor position, name-sorted.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl StatsDelta {
    /// True when nothing changed since the cursor position.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }
}

/// Remembers the counter/histogram state last seen by
/// [`Telemetry::delta_since`], so successive calls return only growth.
#[derive(Debug, Default)]
pub struct DeltaCursor {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

/// A span measured on a remote worker's own monotonic clock, shipped back in
/// a result frame and merged into the master's collector with
/// [`Telemetry::import_spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSpan {
    /// Span name (e.g. the activity tag the worker executed).
    pub name: String,
    /// Start, in nanoseconds since the worker's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the worker's epoch.
    pub end_ns: u64,
    /// Optional human detail (pair key, attempt number, …).
    pub detail: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.now_ns(), 0);
        let mut s = tel.span("a", "b");
        s.set_detail(|| panic!("detail closure must not run when disabled"));
        drop(s);
        tel.count("x", 5);
        tel.gauge("g", 1.0);
        assert!(tel.counter("x").is_none());
        assert!(tel.histogram("h").is_none());
        assert!(tel.snapshot().is_none());
        assert!(tel.export_chrome_trace().is_none());
    }

    #[test]
    fn spans_nest_via_thread_stack() {
        let tel = Telemetry::attached();
        let outer = tel.span("t", "outer");
        let outer_id = outer.id();
        let inner = tel.span("t", "inner");
        let inner_id = inner.id();
        drop(inner);
        drop(outer);
        let (records, dropped) = tel.inner.as_ref().unwrap().drain_snapshot();
        assert_eq!(dropped, 0);
        let mut parents = std::collections::HashMap::new();
        for r in &records {
            if let Record::Span { id, parent, .. } = r {
                parents.insert(*id, *parent);
            }
        }
        assert_eq!(parents[&inner_id], outer_id);
        assert_eq!(parents[&outer_id], 0);
    }

    #[test]
    fn sibling_spans_share_parent() {
        let tel = Telemetry::attached();
        let outer = tel.span("t", "outer");
        let oid = outer.id();
        let a = tel.span("t", "a");
        let aid = a.id();
        drop(a);
        let b = tel.span("t", "b");
        let bid = b.id();
        drop(b);
        drop(outer);
        let (records, _) = tel.inner.as_ref().unwrap().drain_snapshot();
        let parent_of = |want: u64| {
            records
                .iter()
                .find_map(|r| match r {
                    Record::Span { id, parent, .. } if *id == want => Some(*parent),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(parent_of(aid), oid);
        assert_eq!(parent_of(bid), oid);
    }

    #[test]
    fn two_collectors_do_not_cross_link() {
        let t1 = Telemetry::attached();
        let t2 = Telemetry::attached();
        let outer = t1.span("t", "outer1");
        let s2 = t2.span("t", "lone2");
        let s2id = s2.id();
        drop(s2);
        drop(outer);
        let (r2, _) = t2.inner.as_ref().unwrap().drain_snapshot();
        let p2 = r2
            .iter()
            .find_map(|r| match r {
                Record::Span { id, parent, .. } if *id == s2id => Some(*parent),
                _ => None,
            })
            .unwrap();
        assert_eq!(p2, 0, "a span must not adopt a parent from a different collector");
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let tel = Telemetry::attached();
        let c = tel.counter("pool.steals").unwrap();
        c.add(2);
        c.incr();
        assert_eq!(c.get(), 3);
        let h = tel.histogram("lat").unwrap();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100_000);
        assert!(h.mean() > 0.0);
        let p50 = h.quantile(0.5);
        assert!((100.0..=1024.0).contains(&p50), "p50 {p50}");
        assert!(h.quantile(1.0) <= 100_000.0);
        // same name returns the same underlying histogram
        let h2 = tel.histogram("lat").unwrap();
        assert_eq!(h2.count(), 5);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let q: Vec<f64> = [0.1, 0.5, 0.9, 0.95, 1.0].iter().map(|&p| h.quantile(p)).collect();
        for w in q.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {q:?}");
        }
        assert_eq!(h.quantile(1.0), 1_000_000.0);
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let tel = Telemetry::with_config(CollectorConfig { shards: 1, shard_capacity: 16 });
        for i in 0..40 {
            tel.instant("t", &format!("e{i}"), None);
        }
        let (records, dropped) = tel.inner.as_ref().unwrap().drain_snapshot();
        assert_eq!(records.len(), 16);
        assert_eq!(dropped, 24);
        // the survivors are the newest events
        assert!(records.iter().all(|r| match r {
            Record::Instant { name, .. } =>
                name.trim_start_matches('e').parse::<usize>().unwrap() >= 24,
            _ => false,
        }));
    }

    #[test]
    fn explicit_time_spans_for_simulated_clocks() {
        let tel = Telemetry::attached();
        let vm = tel.alloc_track("vm-0 (m3.xlarge)");
        assert!(vm > 0);
        let id = tel.record_span_at("sim", "boot", Some(vm), 0, 95_000_000_000, None);
        assert!(id > 0);
        let snap = tel.snapshot().unwrap();
        let t = snap.tracks.iter().find(|t| t.track == vm).expect("vm track present");
        assert_eq!(t.name, "vm-0 (m3.xlarge)");
        assert!((t.busy_s - 95.0).abs() < 1e-9);
    }

    #[test]
    fn remote_spans_merge_onto_their_track_with_clock_shift() {
        let tel = Telemetry::attached();
        let lane = tel.alloc_track("worker-1 (pid 4242)");
        let spans = vec![
            RemoteSpan {
                name: "vina".into(),
                start_ns: 5_000,
                end_ns: 1_000_005_000,
                detail: Some("pair=1AEC:042 attempt=0".into()),
            },
            RemoteSpan { name: "rank".into(), start_ns: 10, end_ns: 20, detail: None },
        ];
        // offset larger than the remote timestamps: all spans shift forward
        tel.import_spans(lane, 2_000_000_000, &spans);
        let snap = tel.snapshot().unwrap();
        let t = snap.tracks.iter().find(|t| t.track == lane).expect("worker lane present");
        assert_eq!(t.name, "worker-1 (pid 4242)");
        assert!((t.busy_s - 1.0).abs() < 1e-6, "busy {} != imported span time", t.busy_s);
        let trace = tel.export_chrome_trace().unwrap();
        assert!(trace.contains("pair=1AEC:042 attempt=0"));
        // a negative offset saturates at 0 instead of wrapping
        tel.import_spans(lane, -1_000_000, &[spans[1].clone()]);
        json::validate(&tel.export_chrome_trace().unwrap()).unwrap();
        // disabled handles ignore imports entirely
        Telemetry::disabled().import_spans(lane, 0, &spans);
    }

    #[test]
    fn histogram_snapshot_round_trips_and_merges() {
        let h = Histogram::default();
        for v in [0u64, 1, 7, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.max(), u64::MAX);
        assert_eq!(HistogramSnapshot::from_words(&snap.to_words()), Some(snap.clone()));
        assert_eq!(HistogramSnapshot::from_words(&[1, 2, 3]), None);

        // merge(a, b) == recording the union stream
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        let mut union = HistogramSnapshot::new();
        for v in [5u64, 80, 80, 4096] {
            a.record(v);
            union.record(v);
        }
        for v in [1u64, 80, 1 << 40] {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
        assert_eq!(a.quantile(1.0), (1u64 << 40) as f64);

        // merge_from feeds a snapshot back into a live histogram
        let live = Histogram::default();
        live.record(2);
        live.merge_from(&union);
        assert_eq!(live.count(), union.count() + 1);
        assert_eq!(live.max(), union.max());
    }

    #[test]
    fn delta_since_streams_only_growth() {
        let tel = Telemetry::attached();
        let mut cur = DeltaCursor::default();
        tel.count("jobs", 3);
        tel.histogram("lat").unwrap().record(500);

        let d1 = tel.delta_since(&mut cur);
        assert_eq!(d1.counters, vec![("jobs".to_string(), 3)]);
        assert_eq!(d1.hists.len(), 1);
        assert_eq!(d1.hists[0].1.count(), 1);

        // nothing new → empty delta
        assert!(tel.delta_since(&mut cur).is_empty());

        tel.count("jobs", 2);
        tel.histogram("lat").unwrap().record(9000);
        let d2 = tel.delta_since(&mut cur);
        assert_eq!(d2.counters, vec![("jobs".to_string(), 2)]);
        assert_eq!(d2.hists[0].1.count(), 1);
        assert_eq!(d2.hists[0].1.max(), 9000, "delta carries the cumulative max");

        // absorbing both deltas reconstructs the full stream elsewhere
        let master = Telemetry::attached();
        master.absorb(&d1);
        master.absorb(&d2);
        let snap = master.snapshot().unwrap();
        assert_eq!(snap.counter("jobs"), Some(5));
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max_s, 9000.0 / 1e9);

        // disabled handles stream nothing and absorb nothing
        let off = Telemetry::disabled();
        assert!(off.delta_since(&mut DeltaCursor::default()).is_empty());
        off.absorb(&d1);
    }

    #[test]
    fn threads_get_distinct_tracks() {
        let tel = Telemetry::attached();
        let tel2 = tel.clone();
        let here = {
            let _s = tel.span("t", "main");
            current_track()
        };
        let there = std::thread::spawn(move || {
            let _s = tel2.span("t", "worker");
            current_track()
        })
        .join()
        .unwrap();
        assert_ne!(here, there);
    }
}
