//! The master–worker wire protocol: length-prefixed binary frames over TCP.
//!
//! Layout of every frame on the wire:
//!
//! ```text
//! [u32 LE body length][body]
//! body := [u8 frame tag][fields...]
//! ```
//!
//! Integers are little-endian and fixed-width; strings are
//! `[u32 len][utf-8 bytes]`; options are `[u8 0|1][payload]`; vectors are
//! `[u32 count][items]`. The handshake frames ([`Frame::Ready`], then
//! [`Frame::Hello`]) open with the `SDW2` magic, so each side rejects a
//! stranger or an older peer before trusting anything else on the socket.
//! Bodies are capped at 64 MiB — a frame above the cap is a protocol error,
//! not an allocation.
//!
//! File contents are named by `(digest, len)` ([`WireContent`]) and carry
//! their bytes only the first time the connection carries that digest, in
//! either direction; each end keeps what its connection carried in a
//! [`Carried`] table.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

use provenance::Value;
use telemetry::Telemetry;

use crate::algebra::Tuple;
use crate::workflow::Blob;

/// `"SDW2"` — SciDock Worker protocol, version 2 (content-addressed files).
pub(crate) const MAGIC: u32 = 0x5344_5732;

/// Check a handshake frame's magic.
fn check_magic(magic: u32) -> DecodeResult<()> {
    if magic == MAGIC {
        return Ok(());
    }
    let name: String = magic.to_be_bytes().iter().map(|&b| b as char).collect();
    let name = if name.chars().all(|c| c.is_ascii_alphanumeric()) { name } else { "?".into() };
    Err(format!("bad magic {magic:#x}: the peer speaks {name}, this end speaks SDW2"))
}

/// A file's contents on the wire: named by digest and length, with the
/// bytes only the first time this connection carries the digest.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WireContent {
    pub digest: u64,
    pub len: u64,
    /// The text, when the connection has not carried `digest` before.
    pub bytes: Option<Arc<str>>,
}

/// The contents one connection has carried, in either direction, by
/// digest. Neither end evicts during a run, so "the peer has it" is exact:
/// what one end's table holds, the other end's holds too once the frames
/// between them are read.
#[derive(Default)]
pub(crate) struct Carried(HashMap<u64, Blob>);

impl Carried {
    /// How to send `blobs`: bytes for a digest neither this table nor an
    /// earlier entry of the same batch holds, the digest alone otherwise.
    /// The blobs sent as bytes come back separately; they join the table
    /// ([`Carried::extend`]) once the frame is written.
    pub(crate) fn offer<'a>(
        &self,
        blobs: impl IntoIterator<Item = &'a Blob>,
    ) -> (Vec<WireContent>, Vec<Blob>) {
        let mut fresh: Vec<Blob> = Vec::new();
        let wire = blobs
            .into_iter()
            .map(|blob| {
                let known = self.0.contains_key(&blob.digest())
                    || fresh.iter().any(|f| f.digest() == blob.digest());
                if !known {
                    fresh.push(blob.clone());
                }
                WireContent {
                    digest: blob.digest(),
                    len: blob.len() as u64,
                    bytes: (!known).then(|| Arc::clone(blob.text())),
                }
            })
            .collect();
        (wire, fresh)
    }

    /// Record blobs the peer now holds.
    pub(crate) fn extend(&mut self, blobs: impl IntoIterator<Item = Blob>) {
        self.0.extend(blobs.into_iter().map(|b| (b.digest(), b)));
    }

    /// Resolve received contents: bytes are digested again (counted as
    /// `files.digest_bytes` on `tel`) and must match their name; a digest
    /// alone must be one this connection carried. The error is the reason
    /// the connection is dropped.
    pub(crate) fn land(&mut self, c: WireContent, tel: &Telemetry) -> Result<Blob, &'static str> {
        let blob = match c.bytes {
            Some(text) => {
                tel.count("files.digest_bytes", text.len() as u64);
                let blob = Blob::new(text);
                if blob.digest() != c.digest {
                    return Err("digest_mismatch");
                }
                self.0.insert(blob.digest(), blob.clone());
                blob
            }
            None => self.0.get(&c.digest).cloned().ok_or("unknown_digest")?,
        };
        if blob.len() as u64 != c.len {
            return Err("length_mismatch");
        }
        Ok(blob)
    }
}

/// Upper bound on a frame body; larger lengths are rejected before reading.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// The fate the master rolled for an attempt, shipped to the worker so
/// failure injection behaves exactly like the local backend (the worker
/// executes the activation either way; a `Fail` fate discards its result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireFate {
    /// Execute and keep the result.
    Ok,
    /// Execute, then report an injected failure (work is lost).
    Fail,
}

impl WireFate {
    /// The wire form of the lifecycle's verdict on an attempt that is about
    /// to execute: was a failure injected or not.
    pub(crate) fn injected(fail: bool) -> WireFate {
        if fail {
            WireFate::Fail
        } else {
            WireFate::Ok
        }
    }
}

/// A telemetry span measured on the worker's clock, shipped back in the
/// result frame and merged into the master's collector with a clock offset
/// (see `telemetry::Telemetry::import_spans`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WireSpan {
    /// Span name (the activity tag).
    pub name: String,
    /// Start, nanoseconds on the worker's epoch.
    pub start_ns: u64,
    /// End, nanoseconds on the worker's epoch.
    pub end_ns: u64,
    /// Optional human detail.
    pub detail: Option<String>,
}

/// Result of one activation attempt on a worker.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireOutcome {
    /// The activation finished; everything the master needs to write
    /// provenance rides along.
    Finished {
        /// Output tuples.
        tuples: Vec<Tuple>,
        /// Produced files as `(path, contents)`, in production order. Bytes
        /// the worker ships are its store's own allocations (no copy until
        /// the frame is encoded).
        files: Vec<(String, WireContent)>,
        /// Extracted domain parameters.
        params: Vec<(String, Option<f64>, Option<String>)>,
        /// Worker-side telemetry spans.
        spans: Vec<WireSpan>,
    },
    /// The activation failed (injected fate or a domain error).
    Failed {
        /// Error description.
        error: String,
        /// Files written before the failure (kept for file-store parity
        /// with the local backend, which shares one store).
        files: Vec<(String, WireContent)>,
        /// Worker-side telemetry spans.
        spans: Vec<WireSpan>,
    },
}

/// Every message exchanged between master and worker.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// Worker → master, first frame on the socket: magic + worker identity.
    Ready {
        /// Worker OS process id (0 for in-process workers).
        pid: u32,
        /// Worker clock at send time, nanoseconds on its epoch — the
        /// master derives the clock offset for span merging from this.
        now_ns: u64,
    },
    /// Master → worker, in response to `Ready`: magic + the worker's task.
    Hello {
        /// Master-assigned worker id (also its telemetry lane).
        worker_id: u32,
        /// Workflow spec name the worker must resolve and load.
        spec: String,
        /// Requested heartbeat interval in milliseconds.
        heartbeat_ms: u64,
    },
    /// Master → worker: execute one activation.
    Run {
        /// Master-assigned job id, echoed in `Done`.
        job: u64,
        /// Activity index into the resolved workflow.
        activity: u32,
        /// Working-directory index (names the workdir only).
        part_index: u64,
        /// Retry attempt number (0-based).
        attempt: u32,
        /// Injected fate for this attempt.
        fate: WireFate,
        /// Absolute working directory for the activation.
        workdir: String,
        /// Input tuples.
        part: Vec<Tuple>,
    },
    /// Worker → master: read-through miss on the worker's file store.
    FileReq {
        /// Worker-chosen request id, echoed in `FileData`.
        req: u64,
        /// Path to fetch.
        path: String,
    },
    /// Master → worker: answer to `FileReq` (`None` = no such file).
    FileData {
        /// Echoed request id.
        req: u64,
        /// File contents, if the master has the file.
        contents: Option<WireContent>,
    },
    /// Worker → master: liveness beacon, sent on a fixed interval.
    Heartbeat {
        /// Job currently executing, if any.
        job: Option<u64>,
        /// How long that job has been running, in milliseconds.
        job_elapsed_ms: u64,
    },
    /// Worker → master: an activation attempt finished (either way).
    Done {
        /// Echoed job id.
        job: u64,
        /// What happened.
        outcome: WireOutcome,
    },
    /// Master → worker: drain and exit.
    Shutdown,
    /// Master → worker: finish everything already queued, confirm with
    /// [`Frame::Bye`], then exit. Sent when the fleet controller retires a
    /// worker; the master guarantees no further `Run` frames follow.
    Drain,
    /// Worker → master: drain complete, socket about to close. Lets the
    /// master tell a *retired* worker from a *lost* one — no failure rows,
    /// no reassignment, no blacklist pressure.
    Bye {
        /// Activation attempts this worker completed over its lifetime.
        completed: u64,
    },
    /// Worker → master: metrics streamed at heartbeat cadence — the growth
    /// of the worker's counters and histograms since its previous `Stats`
    /// frame. The master absorbs each delta into its own collector, so a
    /// cluster-wide merged [`telemetry::MetricsSnapshot`] exists *mid-run*
    /// rather than only after every `Done` has landed. Deltas ride TCP, so
    /// nothing is lost or double-counted.
    Stats {
        /// Counter increments and histogram sample deltas since the last
        /// `Stats` frame from this worker.
        delta: telemetry::StatsDelta,
    },
}

// ---------------------------------------------------------------- encoding

pub(crate) struct Buf {
    out: Vec<u8>,
    err: Option<String>,
}

impl Buf {
    pub(crate) fn new() -> Buf {
        Buf { out: Vec::new(), err: None }
    }
    pub(crate) fn finish(self) -> Result<Vec<u8>, String> {
        match self.err {
            None => Ok(self.out),
            Some(e) => Err(e),
        }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    /// Emit a length prefix, refusing values the u32 cannot hold: an
    /// unchecked `as u32` would silently truncate a ≥ 4 GiB payload and
    /// desync the stream for every frame after it.
    pub(crate) fn len32(&mut self, n: usize, what: &str) {
        match u32::try_from(n) {
            Ok(v) => self.u32(v),
            Err(_) => {
                if self.err.is_none() {
                    self.err = Some(format!("{what} length {n} overflows the u32 length prefix"));
                }
                self.u32(0);
            }
        }
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.len32(s.len(), "string");
        self.out.extend_from_slice(s.as_bytes());
    }
    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(x) => {
                self.u8(2);
                self.f64(*x);
            }
            Value::Text(s) => {
                self.u8(3);
                self.str(s);
            }
            Value::Timestamp(t) => {
                self.u8(4);
                self.f64(*t);
            }
            Value::Bool(b) => {
                self.u8(5);
                self.u8(*b as u8);
            }
        }
    }
    pub(crate) fn tuples(&mut self, ts: &[Tuple]) {
        self.len32(ts.len(), "tuple vector");
        for t in ts {
            self.len32(t.len(), "tuple");
            for v in t {
                self.value(v);
            }
        }
    }
    fn spans(&mut self, ss: &[WireSpan]) {
        self.len32(ss.len(), "span vector");
        for s in ss {
            self.str(&s.name);
            self.u64(s.start_ns);
            self.u64(s.end_ns);
            self.opt_str(s.detail.as_deref());
        }
    }
    fn content(&mut self, c: &WireContent) {
        self.u64(c.digest);
        self.u64(c.len);
        match &c.bytes {
            None => self.u8(0),
            Some(text) => {
                self.u8(1);
                self.out.extend_from_slice(text.as_bytes());
            }
        }
    }
    fn files(&mut self, fs: &[(String, WireContent)]) {
        self.len32(fs.len(), "file vector");
        for (p, c) in fs {
            self.str(p);
            self.content(c);
        }
    }
    fn stats_delta(&mut self, d: &telemetry::StatsDelta) {
        self.len32(d.counters.len(), "counter vector");
        for (name, v) in &d.counters {
            self.str(name);
            self.u64(*v);
        }
        self.len32(d.hists.len(), "histogram vector");
        for (name, snap) in &d.hists {
            self.str(name);
            for w in snap.to_words() {
                self.u64(w);
            }
        }
    }
}

/// Encode a frame body (without the length prefix). Fails if any length
/// field overflows its u32 prefix — nothing is emitted for such a frame.
pub(crate) fn encode(frame: &Frame) -> Result<Vec<u8>, String> {
    let mut b = Buf::new();
    match frame {
        Frame::Ready { pid, now_ns } => {
            b.u8(0);
            b.u32(MAGIC);
            b.u32(*pid);
            b.u64(*now_ns);
        }
        Frame::Hello { worker_id, spec, heartbeat_ms } => {
            b.u8(1);
            b.u32(MAGIC);
            b.u32(*worker_id);
            b.str(spec);
            b.u64(*heartbeat_ms);
        }
        Frame::Run { job, activity, part_index, attempt, fate, workdir, part } => {
            b.u8(2);
            b.u64(*job);
            b.u32(*activity);
            b.u64(*part_index);
            b.u32(*attempt);
            b.u8(match fate {
                WireFate::Ok => 0,
                WireFate::Fail => 1,
            });
            b.str(workdir);
            b.tuples(part);
        }
        Frame::FileReq { req, path } => {
            b.u8(3);
            b.u64(*req);
            b.str(path);
        }
        Frame::FileData { req, contents } => {
            b.u8(4);
            b.u64(*req);
            match contents {
                None => b.u8(0),
                Some(c) => {
                    b.u8(1);
                    b.content(c);
                }
            }
        }
        Frame::Heartbeat { job, job_elapsed_ms } => {
            b.u8(5);
            match job {
                None => b.u8(0),
                Some(j) => {
                    b.u8(1);
                    b.u64(*j);
                }
            }
            b.u64(*job_elapsed_ms);
        }
        Frame::Done { job, outcome } => {
            b.u8(6);
            b.u64(*job);
            match outcome {
                WireOutcome::Finished { tuples, files, params, spans } => {
                    b.u8(0);
                    b.tuples(tuples);
                    b.files(files);
                    b.len32(params.len(), "parameter vector");
                    for (name, num, text) in params {
                        b.str(name);
                        match num {
                            None => b.u8(0),
                            Some(x) => {
                                b.u8(1);
                                b.f64(*x);
                            }
                        }
                        b.opt_str(text.as_deref());
                    }
                    b.spans(spans);
                }
                WireOutcome::Failed { error, files, spans } => {
                    b.u8(1);
                    b.str(error);
                    b.files(files);
                    b.spans(spans);
                }
            }
        }
        Frame::Shutdown => b.u8(7),
        Frame::Drain => b.u8(8),
        Frame::Bye { completed } => {
            b.u8(9);
            b.u64(*completed);
        }
        Frame::Stats { delta } => {
            b.u8(10);
            b.stats_delta(delta);
        }
    }
    b.finish()
}

// ---------------------------------------------------------------- decoding

pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, at: 0 }
    }

    pub(crate) fn at_end(&self) -> bool {
        self.at == self.buf.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if n > self.buf.len() - self.at {
            return Err(format!("truncated frame: wanted {n} bytes at {}", self.at));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn utf8(&mut self, n: usize) -> DecodeResult<&'a str> {
        std::str::from_utf8(self.take(n)?).map_err(|_| "invalid utf-8 in string".to_string())
    }
    pub(crate) fn str(&mut self) -> DecodeResult<String> {
        let n = self.u32()? as usize;
        self.utf8(n).map(str::to_owned)
    }
    pub(crate) fn opt_str(&mut self) -> DecodeResult<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(format!("bad option tag {t}")),
        }
    }
    /// File contents, their bytes copied once, straight into the
    /// allocation the receiving store keeps.
    fn content(&mut self) -> DecodeResult<WireContent> {
        let (digest, len) = (self.u64()?, self.u64()?);
        let bytes = match self.u8()? {
            0 => None,
            1 => {
                let n = usize::try_from(len).map_err(|_| format!("content of {len} bytes"))?;
                Some(self.utf8(n)?.into())
            }
            t => return Err(format!("bad option tag {t}")),
        };
        Ok(WireContent { digest, len, bytes })
    }
    pub(crate) fn value(&mut self) -> DecodeResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Text(self.str()?),
            4 => Value::Timestamp(self.f64()?),
            5 => Value::Bool(self.u8()? != 0),
            t => return Err(format!("bad value tag {t}")),
        })
    }
    pub(crate) fn tuples(&mut self) -> DecodeResult<Vec<Tuple>> {
        let n = self.u32()? as usize;
        let mut ts = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let k = self.u32()? as usize;
            let mut t = Vec::with_capacity(k.min(1 << 12));
            for _ in 0..k {
                t.push(self.value()?);
            }
            ts.push(t);
        }
        Ok(ts)
    }
    fn spans(&mut self) -> DecodeResult<Vec<WireSpan>> {
        let n = self.u32()? as usize;
        let mut ss = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            ss.push(WireSpan {
                name: self.str()?,
                start_ns: self.u64()?,
                end_ns: self.u64()?,
                detail: self.opt_str()?,
            });
        }
        Ok(ss)
    }
    fn files(&mut self) -> DecodeResult<Vec<(String, WireContent)>> {
        let n = self.u32()? as usize;
        let mut fs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            fs.push((self.str()?, self.content()?));
        }
        Ok(fs)
    }
    fn stats_delta(&mut self) -> DecodeResult<telemetry::StatsDelta> {
        let mut d = telemetry::StatsDelta::default();
        let n = self.u32()? as usize;
        d.counters.reserve(n.min(1 << 12));
        for _ in 0..n {
            d.counters.push((self.str()?, self.u64()?));
        }
        let n = self.u32()? as usize;
        d.hists.reserve(n.min(1 << 12));
        for _ in 0..n {
            let name = self.str()?;
            let mut words = [0u64; 3 + telemetry::HIST_BUCKETS];
            for w in words.iter_mut() {
                *w = self.u64()?;
            }
            let snap = telemetry::HistogramSnapshot::from_words(&words)
                .ok_or_else(|| "bad histogram snapshot".to_string())?;
            d.hists.push((name, snap));
        }
        Ok(d)
    }
}

/// Decode a frame body (without the length prefix).
pub(crate) fn decode(buf: &[u8]) -> DecodeResult<Frame> {
    let mut c = Cur { buf, at: 0 };
    let frame = match c.u8()? {
        0 => {
            check_magic(c.u32()?)?;
            Frame::Ready { pid: c.u32()?, now_ns: c.u64()? }
        }
        1 => {
            check_magic(c.u32()?)?;
            Frame::Hello { worker_id: c.u32()?, spec: c.str()?, heartbeat_ms: c.u64()? }
        }
        2 => Frame::Run {
            job: c.u64()?,
            activity: c.u32()?,
            part_index: c.u64()?,
            attempt: c.u32()?,
            fate: match c.u8()? {
                0 => WireFate::Ok,
                1 => WireFate::Fail,
                t => return Err(format!("bad fate tag {t}")),
            },
            workdir: c.str()?,
            part: c.tuples()?,
        },
        3 => Frame::FileReq { req: c.u64()?, path: c.str()? },
        4 => Frame::FileData {
            req: c.u64()?,
            contents: match c.u8()? {
                0 => None,
                1 => Some(c.content()?),
                t => return Err(format!("bad option tag {t}")),
            },
        },
        5 => Frame::Heartbeat {
            job: match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                t => return Err(format!("bad option tag {t}")),
            },
            job_elapsed_ms: c.u64()?,
        },
        6 => {
            let job = c.u64()?;
            let outcome = match c.u8()? {
                0 => WireOutcome::Finished {
                    tuples: c.tuples()?,
                    files: c.files()?,
                    params: {
                        let n = c.u32()? as usize;
                        let mut ps = Vec::with_capacity(n.min(1 << 16));
                        for _ in 0..n {
                            ps.push((
                                c.str()?,
                                match c.u8()? {
                                    0 => None,
                                    1 => Some(c.f64()?),
                                    t => return Err(format!("bad option tag {t}")),
                                },
                                c.opt_str()?,
                            ));
                        }
                        ps
                    },
                    spans: c.spans()?,
                },
                1 => WireOutcome::Failed { error: c.str()?, files: c.files()?, spans: c.spans()? },
                t => return Err(format!("bad outcome tag {t}")),
            };
            Frame::Done { job, outcome }
        }
        7 => Frame::Shutdown,
        8 => Frame::Drain,
        9 => Frame::Bye { completed: c.u64()? },
        10 => Frame::Stats { delta: c.stats_delta()? },
        t => return Err(format!("unknown frame tag {t}")),
    };
    if c.at != buf.len() {
        return Err(format!("{} trailing bytes after frame", buf.len() - c.at));
    }
    Ok(frame)
}

/// Marker prefix in the error message of a frame refused for size, so
/// callers can tell "my frame was too big" (recoverable: degrade the
/// payload) from a genuinely broken stream.
const FRAME_TOO_BIG: &str = "frame exceeds the 64 MiB cap";

/// True if `e` is [`write_body`]'s refusal of an oversized frame.
pub(crate) fn frame_too_big(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::InvalidData && e.to_string().starts_with(FRAME_TOO_BIG)
}

/// Write one length-prefixed frame body and flush it — the framing both
/// `SDW2` and `SDC1` share.
///
/// A body above [`MAX_FRAME`] is refused with `InvalidData` **before any
/// byte is written**, so the stream stays framed and the connection stays
/// usable — the peer would reject the oversized frame anyway, but only
/// after the sender had already desynced the socket.
pub(crate) fn write_body<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{FRAME_TOO_BIG}: body is {} bytes", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one length-prefixed frame body; a length above [`MAX_FRAME`] is a
/// protocol error, not an allocation.
pub(crate) fn read_body<R: Read>(r: &mut R) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

pub(crate) fn invalid(e: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Write one frame (see [`write_body`]) and return the bytes it took on the
/// wire; a frame whose lengths overflow their u32 prefixes is refused the
/// same way, before any byte is written.
pub(crate) fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<usize> {
    let body = encode(frame).map_err(invalid)?;
    write_body(w, &body)?;
    Ok(body.len() + 4)
}

/// Read one frame; decode failures surface as `InvalidData` I/O errors so
/// callers treat them like a broken peer.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Frame> {
    decode(&read_body(r)?).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let body = encode(&f).unwrap();
        assert_eq!(decode(&body).unwrap(), f, "roundtrip mismatch");
        // and through a byte pipe with the length prefix
        let mut wire = Vec::new();
        write_frame(&mut wire, &f).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), f);
        assert!(cursor.is_empty());
    }

    /// `text` as a first carriage sends it: digest, length and bytes.
    fn shipped(text: &str) -> WireContent {
        let blob = Blob::new(text);
        WireContent { digest: blob.digest(), len: blob.len() as u64, bytes: Some(text.into()) }
    }

    /// `text` named by digest alone, as every later carriage sends it.
    fn named(text: &str) -> WireContent {
        WireContent { bytes: None, ..shipped(text) }
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Ready { pid: 4242, now_ns: 17 });
        roundtrip(Frame::Hello { worker_id: 3, spec: "scidock:ad4:2x8".into(), heartbeat_ms: 150 });
        roundtrip(Frame::Run {
            job: 9,
            activity: 2,
            part_index: 31,
            attempt: 1,
            fate: WireFate::Fail,
            workdir: "/exp/dock/31".into(),
            part: vec![
                vec![
                    Value::Int(-5),
                    Value::Float(2.5),
                    Value::Text("1AEC".into()),
                    Value::Null,
                    Value::Timestamp(12.125),
                    Value::Bool(true),
                ],
                vec![Value::Text("ZINC04".into())],
            ],
        });
        roundtrip(Frame::FileReq { req: 7, path: "/exp/prep/0/r.pdbqt".into() });
        roundtrip(Frame::FileData { req: 7, contents: Some(shipped("ATOM…")) });
        roundtrip(Frame::FileData { req: 8, contents: Some(named("ATOM…")) });
        roundtrip(Frame::FileData { req: 9, contents: None });
        roundtrip(Frame::Heartbeat { job: None, job_elapsed_ms: 0 });
        roundtrip(Frame::Heartbeat { job: Some(9), job_elapsed_ms: 340 });
        roundtrip(Frame::Done {
            job: 9,
            outcome: WireOutcome::Finished {
                tuples: vec![vec![Value::Float(-7.25)]],
                files: vec![
                    ("/exp/dock/31/out.dlg".into(), shipped("DOCKED")),
                    ("/exp/maps/r.C.map".into(), named("0.125\n")),
                    ("/exp/dock/31/empty".into(), shipped("")),
                ],
                params: vec![
                    ("feb".into(), Some(-7.25), None),
                    ("pose".into(), None, Some("model 1".into())),
                ],
                spans: vec![WireSpan {
                    name: "dock".into(),
                    start_ns: 10,
                    end_ns: 999,
                    detail: Some("job=9".into()),
                }],
            },
        });
        roundtrip(Frame::Done {
            job: 10,
            outcome: WireOutcome::Failed {
                error: "missing input file".into(),
                files: vec![],
                spans: vec![],
            },
        });
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn fleet_frames_roundtrip() {
        // The scale-up handshake reuses Ready/Hello mid-run …
        roundtrip(Frame::Ready { pid: 0, now_ns: u64::MAX });
        roundtrip(Frame::Hello {
            worker_id: 17,
            spec: "unit:sleep:6:50".into(),
            heartbeat_ms: 100,
        });
        // … and drain-then-retire adds Drain/Bye.
        roundtrip(Frame::Drain);
        roundtrip(Frame::Bye { completed: 0 });
        roundtrip(Frame::Bye { completed: 12_345_678 });
    }

    #[test]
    fn stats_frames_roundtrip() {
        use telemetry::{HistogramSnapshot, StatsDelta};
        roundtrip(Frame::Stats { delta: StatsDelta::default() });
        let mut h = HistogramSnapshot::new();
        for v in [0u64, 17, 4096, 1 << 40, u64::MAX] {
            h.record(v);
        }
        roundtrip(Frame::Stats {
            delta: StatsDelta {
                counters: vec![("worker.jobs".into(), 3), ("worker.failures".into(), 1)],
                hists: vec![("activation.dock".into(), h.clone()), ("rank".into(), h)],
            },
        });
        // a truncated histogram body is a decode error, not a panic
        let body = encode(&Frame::Stats {
            delta: StatsDelta {
                counters: vec![],
                hists: vec![("h".into(), HistogramSnapshot::new())],
            },
        })
        .unwrap();
        assert!(decode(&body[..body.len() - 4]).unwrap_err().contains("truncated"));
    }

    #[test]
    fn rejects_bad_magic_truncation_and_trailing_bytes() {
        let mut body = encode(&Frame::Ready { pid: 1, now_ns: 2 }).unwrap();
        body[1] ^= 0xFF; // corrupt the magic
        assert!(decode(&body).unwrap_err().contains("bad magic"));

        let body =
            encode(&Frame::Hello { worker_id: 1, spec: "s".into(), heartbeat_ms: 1 }).unwrap();
        assert!(decode(&body[..body.len() - 2]).unwrap_err().contains("truncated"));

        let mut body = encode(&Frame::Shutdown).unwrap();
        body.push(0);
        assert!(decode(&body).unwrap_err().contains("trailing"));

        assert!(decode(&[99]).unwrap_err().contains("unknown frame tag"));
    }

    #[test]
    fn a_version_1_handshake_is_refused_by_name() {
        // SDW1's Ready and Hello, byte for byte: tag, [magic,] fields
        let mut ready = vec![0u8];
        ready.extend_from_slice(&0x5344_5731u32.to_le_bytes());
        ready.extend_from_slice(&7u32.to_le_bytes());
        ready.extend_from_slice(&0u64.to_le_bytes());
        let err = decode(&ready).unwrap_err();
        assert!(err.contains("the peer speaks SDW1, this end speaks SDW2"), "{err}");

        let mut hello = vec![1u8];
        hello.extend_from_slice(&3u32.to_le_bytes()); // worker id, no magic
        hello.extend_from_slice(&1u32.to_le_bytes());
        hello.push(b's');
        hello.extend_from_slice(&100u64.to_le_bytes());
        assert!(decode(&hello).unwrap_err().contains("bad magic"));
    }

    #[test]
    fn a_connection_carries_each_content_once_per_direction_pair() {
        let tel = Telemetry::attached();
        let (mut worker, mut master) = (Carried::default(), Carried::default());
        let (map, dlg) = (Blob::new("0.125\n".repeat(50)), Blob::new("DOCKED"));

        // first Done: the map twice (two paths) and the log — bytes once each
        let (wire, fresh) = worker.offer([&map, &map, &dlg]);
        assert_eq!(wire.iter().map(|c| c.bytes.is_some()).collect::<Vec<_>>(), [true, false, true]);
        assert_eq!(fresh.len(), 2);
        worker.extend(fresh);
        let landed: Vec<Blob> =
            wire.into_iter().map(|c| master.land(c, &tel).expect("resolves")).collect();
        assert_eq!(landed, [map.clone(), map.clone(), dlg.clone()]);
        assert_eq!(tel.snapshot().unwrap().counter("files.digest_bytes"), Some(306));

        // the next Done, and the master's FileData for either: digests only
        let (wire, fresh) = worker.offer([&map]);
        assert!(wire[0].bytes.is_none() && fresh.is_empty());
        assert_eq!(master.land(wire[0].clone(), &tel), Ok(map.clone()));
        let (wire, fresh) = master.offer([&dlg]);
        assert!(wire[0].bytes.is_none() && fresh.is_empty());
        assert_eq!(worker.land(wire[0].clone(), &tel), Ok(dlg.clone()));
        assert_eq!(tel.snapshot().unwrap().counter("files.digest_bytes"), Some(306));

        // bytes that do not hash to their name, a name never carried, and a
        // wrong length are each a reason to drop the connection
        let forged = WireContent { bytes: Some("DOCKEX".into()), ..shipped("DOCKED") };
        assert_eq!(Carried::default().land(forged, &tel), Err("digest_mismatch"));
        assert_eq!(Carried::default().land(named("DOCKED"), &tel), Err("unknown_digest"));
        let short = WireContent { len: 5, ..named("DOCKED") };
        assert_eq!(master.land(short, &tel), Err("length_mismatch"));
    }

    #[test]
    fn content_lengths_are_checked_before_allocation() {
        let mut body = encode(&Frame::FileData { req: 1, contents: Some(shipped("abc")) }).unwrap();
        // the length field follows tag, req, option tag and digest
        body[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&body).unwrap_err().contains("truncated"));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &wire[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_write_is_refused_without_touching_the_stream() {
        // A Done frame whose produced file blows past MAX_FRAME. Before the
        // fix, release builds wrote it anyway (the cap was a debug_assert)
        // and the peer's read_frame desynced — the master then declared a
        // healthy worker lost.
        let big = Frame::Done {
            job: 1,
            outcome: WireOutcome::Failed {
                error: "x".into(),
                files: vec![("/exp/big.map".into(), shipped(&"G".repeat(MAX_FRAME + 1)))],
                spans: vec![],
            },
        };
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &big).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(frame_too_big(&err), "cap refusals must be distinguishable: {err}");
        assert!(wire.is_empty(), "no bytes may hit the wire for a refused frame");

        // The stream stays usable: the very next frame round-trips.
        write_frame(&mut wire, &Frame::Heartbeat { job: None, job_elapsed_ms: 3 }).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Frame::Heartbeat { job: None, job_elapsed_ms: 3 }
        );
        assert!(cursor.is_empty());
    }

    #[test]
    fn length_prefix_overflow_is_a_checked_error() {
        // Lengths ≥ 4 GiB used to be cast `as u32`, silently truncating the
        // prefix. A 4 GiB string cannot be allocated in a unit test, so the
        // length path is exercised directly.
        let mut b = Buf::new();
        b.len32(u32::MAX as usize, "string");
        assert!(b.err.is_none(), "u32::MAX itself still fits");
        let mut b = Buf::new();
        b.len32(u32::MAX as usize + 1, "string");
        b.len32(u32::MAX as usize + 2, "tuple vector"); // only the first error is kept
        let err = b.finish().unwrap_err();
        assert!(
            err.contains("string length") && err.contains("overflows the u32"),
            "unexpected error: {err}"
        );
        // and frame_too_big does not claim overflow errors
        let io = std::io::Error::new(std::io::ErrorKind::InvalidData, err);
        assert!(!frame_too_big(&io));
    }

    #[test]
    fn random_bytes_never_panic_the_decoder() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF022);
        for _ in 0..512 {
            let len = rng.gen_range(0..512);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let _ = decode(&buf); // must return Err, never panic or OOM
        }
        // Mutated valid frames: flip bytes in real encodings.
        let seed = encode(&Frame::Done {
            job: 3,
            outcome: WireOutcome::Finished {
                tuples: vec![vec![Value::Int(1), Value::Text("t".into())]],
                files: vec![("/f".into(), shipped("c")), ("/g".into(), named("c"))],
                params: vec![("p".into(), Some(1.0), Some("s".into()))],
                spans: vec![WireSpan { name: "n".into(), start_ns: 0, end_ns: 1, detail: None }],
            },
        })
        .unwrap();
        for _ in 0..512 {
            let mut m = seed.clone();
            let i = rng.gen_range(0..m.len());
            m[i] = rng.gen();
            let _ = decode(&m); // Ok or Err both fine; panics are not
        }
    }
}
