//! The master–worker wire protocol: length-prefixed binary frames over TCP.
//!
//! Layout of every frame on the wire:
//!
//! ```text
//! [u32 LE body length][body]
//! body := [u8 frame tag][fields...]
//! ```
//!
//! Bodies are written and read by the one codec, [`provenance::codec`]:
//! integers are little-endian and fixed-width; strings are
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

use provenance::codec::{self, CodecError, Decode, Encode, Reader, Writer};
use telemetry::Telemetry;

use crate::algebra::Tuple;
use crate::workflow::Blob;

/// `"SDW2"` — SciDock Worker protocol, version 2 (content-addressed files).
pub(crate) const MAGIC: u32 = 0x5344_5732;

/// Check a handshake frame's magic.
fn check_magic(magic: u32) -> Result<(), CodecError> {
    if magic == MAGIC {
        return Ok(());
    }
    let name: String = magic.to_be_bytes().iter().map(|&b| b as char).collect();
    let name = if name.chars().all(|c| c.is_ascii_alphanumeric()) { name } else { "?".into() };
    Err(CodecError(format!("bad magic {magic:#x}: the peer speaks {name}, this end speaks SDW2")))
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

// ------------------------------------------------------------------ codec

/// `digest`, `len`, then the bytes as an option with no length prefix of
/// their own: `len` is it.
impl Encode for WireContent {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.digest).put(&self.len);
        match &self.bytes {
            None => w.u8(0),
            Some(text) if text.len() as u64 != self.len => {
                w.fail(format!("{} content bytes named as {}", text.len(), self.len))
            }
            Some(text) => w.u8(1).bytes(text.as_bytes()),
        };
    }
}

/// The bytes are copied once, straight into the allocation the receiving
/// store keeps.
impl Decode for WireContent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (digest, len) = (r.get()?, r.get()?);
        let bytes = match r.u8()? {
            0 => None,
            1 => {
                let n = usize::try_from(len)
                    .map_err(|_| CodecError(format!("content of {len} bytes")))?;
                Some(r.utf8(n)?.into())
            }
            t => return Err(CodecError(format!("bad option tag {t}"))),
        };
        Ok(WireContent { digest, len, bytes })
    }
}

/// One flag: was a failure injected.
impl Encode for WireFate {
    fn encode(&self, w: &mut Writer) {
        w.put(&(*self == WireFate::Fail));
    }
}

impl Decode for WireFate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get().map(WireFate::injected)
    }
}

impl Encode for WireSpan {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.name).put(&self.start_ns).put(&self.end_ns).put(&self.detail);
    }
}

impl Decode for WireSpan {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireSpan { name: r.get()?, start_ns: r.get()?, end_ns: r.get()?, detail: r.get()? })
    }
}

/// A tag byte, then the fields in declaration order; `Ready` and `Hello`
/// carry the magic after their tag.
impl Encode for Frame {
    fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Ready { pid, now_ns } => w.u8(0).put(&MAGIC).put(pid).put(now_ns),
            Frame::Hello { worker_id, spec, heartbeat_ms } => {
                w.u8(1).put(&MAGIC).put(worker_id).put(spec).put(heartbeat_ms)
            }
            Frame::Run { job, activity, part_index, attempt, fate, workdir, part } => {
                w.u8(2).put(job).put(activity).put(part_index).put(attempt);
                w.put(fate).put(workdir).put(part)
            }
            Frame::FileReq { req, path } => w.u8(3).put(req).put(path),
            Frame::FileData { req, contents } => w.u8(4).put(req).put(contents),
            Frame::Heartbeat { job, job_elapsed_ms } => w.u8(5).put(job).put(job_elapsed_ms),
            Frame::Done {
                job,
                outcome: WireOutcome::Finished { tuples, files, params, spans },
            } => w.u8(6).put(job).u8(0).put(tuples).put(files).put(params).put(spans),
            Frame::Done { job, outcome: WireOutcome::Failed { error, files, spans } } => {
                w.u8(6).put(job).u8(1).put(error).put(files).put(spans)
            }
            Frame::Shutdown => w.u8(7),
            Frame::Drain => w.u8(8),
            Frame::Bye { completed } => w.u8(9).put(completed),
            Frame::Stats { delta } => w.u8(10).put(delta),
        };
    }
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => {
                check_magic(r.get()?)?;
                Frame::Ready { pid: r.get()?, now_ns: r.get()? }
            }
            1 => {
                check_magic(r.get()?)?;
                Frame::Hello { worker_id: r.get()?, spec: r.get()?, heartbeat_ms: r.get()? }
            }
            2 => Frame::Run {
                job: r.get()?,
                activity: r.get()?,
                part_index: r.get()?,
                attempt: r.get()?,
                fate: r.get()?,
                workdir: r.get()?,
                part: r.get()?,
            },
            3 => Frame::FileReq { req: r.get()?, path: r.get()? },
            4 => Frame::FileData { req: r.get()?, contents: r.get()? },
            5 => Frame::Heartbeat { job: r.get()?, job_elapsed_ms: r.get()? },
            6 => Frame::Done {
                job: r.get()?,
                outcome: match r.u8()? {
                    0 => WireOutcome::Finished {
                        tuples: r.get()?,
                        files: r.get()?,
                        params: r.get()?,
                        spans: r.get()?,
                    },
                    1 => WireOutcome::Failed { error: r.get()?, files: r.get()?, spans: r.get()? },
                    t => return Err(CodecError(format!("bad outcome tag {t}"))),
                },
            },
            7 => Frame::Shutdown,
            8 => Frame::Drain,
            9 => Frame::Bye { completed: r.get()? },
            10 => Frame::Stats { delta: r.get()? },
            t => return Err(CodecError(format!("unknown frame tag {t}"))),
        })
    }
}

/// Encode a frame body (without the length prefix). Fails if any length
/// field overflows its u32 prefix — nothing is emitted for such a frame.
pub(crate) fn encode(frame: &Frame) -> Result<Vec<u8>, String> {
    codec::to_bytes(frame).map_err(|e| e.0)
}

/// Decode a frame body (without the length prefix).
pub(crate) fn decode(buf: &[u8]) -> Result<Frame, String> {
    codec::from_bytes(buf).map_err(|e| e.0)
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
    let len = match u32::try_from(body.len()) {
        Ok(len) if body.len() <= MAX_FRAME => len,
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{FRAME_TOO_BIG}: body is {} bytes", body.len()),
            ))
        }
    };
    w.write_all(&len.to_le_bytes())?;
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
    use provenance::codec::testing::{check_codec, Gen};
    use provenance::Value;

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

    /// One frame of every tag, byte for byte as the wire carries it: three
    /// in full, and all of them through the XXH64 of their concatenation.
    #[test]
    fn sdw2_frames_are_pinned() {
        let mut h = telemetry::HistogramSnapshot::new();
        for v in [0u64, 17, 4096] {
            h.record(v);
        }
        let content = |bytes: Option<&str>| WireContent {
            digest: 0x0123_4567_89ab_cdef,
            len: 5,
            bytes: bytes.map(Arc::from),
        };
        let frames = [
            Frame::Ready { pid: 4242, now_ns: 17 },
            Frame::Hello { worker_id: 3, spec: "scidock:ad4:2x8".into(), heartbeat_ms: 150 },
            Frame::Run {
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
                    vec![],
                ],
            },
            Frame::FileReq { req: 7, path: "/exp/prep/0/r.pdbqt".into() },
            Frame::FileData { req: 7, contents: Some(content(Some("ATOM\n"))) },
            Frame::FileData { req: 8, contents: Some(content(None)) },
            Frame::FileData { req: 9, contents: None },
            Frame::Heartbeat { job: Some(9), job_elapsed_ms: 340 },
            Frame::Heartbeat { job: None, job_elapsed_ms: 0 },
            Frame::Done {
                job: 9,
                outcome: WireOutcome::Finished {
                    tuples: vec![vec![Value::Float(-7.25)]],
                    files: vec![
                        ("/exp/dock/31/out.dlg".into(), content(Some("DOCK\n"))),
                        ("/exp/maps/r.C.map".into(), content(None)),
                    ],
                    params: vec![
                        ("feb".into(), Some(-7.25), None),
                        ("pose".into(), None, Some("model 1".into())),
                    ],
                    spans: vec![
                        WireSpan { name: "dock".into(), start_ns: 10, end_ns: 999, detail: None },
                        WireSpan {
                            name: "vina".into(),
                            start_ns: 1,
                            end_ns: 2,
                            detail: Some("job=9".into()),
                        },
                    ],
                },
            },
            Frame::Done {
                job: 10,
                outcome: WireOutcome::Failed {
                    error: "missing input file".into(),
                    files: vec![("/exp/x".into(), content(None))],
                    spans: vec![],
                },
            },
            Frame::Shutdown,
            Frame::Drain,
            Frame::Bye { completed: 12 },
            Frame::Stats {
                delta: telemetry::StatsDelta {
                    counters: vec![("worker.jobs".into(), 3)],
                    hists: vec![("activation.dock".into(), h)],
                },
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        assert_eq!(wire.len(), 1220);
        assert_eq!(crate::workflow::digest(&wire), 0x6179_ebc3_6137_2eee);
        let ready: [u8; 17] = [0, 50, 87, 68, 83, 146, 16, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(encode(&frames[0]).unwrap(), ready);
        let run: [u8; 93] = [
            2, 9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 31, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 12, 0,
            0, 0, 47, 101, 120, 112, 47, 100, 111, 99, 107, 47, 51, 49, 2, 0, 0, 0, 6, 0, 0, 0, 1,
            251, 255, 255, 255, 255, 255, 255, 255, 2, 0, 0, 0, 0, 0, 0, 4, 64, 3, 4, 0, 0, 0, 49,
            65, 69, 67, 0, 4, 0, 0, 0, 0, 0, 64, 40, 64, 5, 1, 0, 0, 0, 0,
        ];
        assert_eq!(encode(&frames[2]).unwrap(), run);
        let file_data: [u8; 32] = [
            4, 7, 0, 0, 0, 0, 0, 0, 0, 1, 239, 205, 171, 137, 103, 69, 35, 1, 5, 0, 0, 0, 0, 0, 0,
            0, 1, 65, 84, 79, 77, 10,
        ];
        assert_eq!(encode(&frames[4]).unwrap(), file_data);
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
        // and bytes that disagree with their length are never sent
        let short = WireContent { len: 2, ..shipped("abc") };
        let err = encode(&Frame::FileData { req: 1, contents: Some(short) }).unwrap_err();
        assert!(err.contains("3 content bytes named as 2"), "{err}");
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
    fn a_length_overflow_is_not_taken_for_an_oversized_frame() {
        // the codec latches the overflow instead of truncating the prefix;
        // a caller that degrades oversized payloads must not mistake it
        let mut w = Writer::new();
        w.len(u32::MAX as usize + 1);
        let io = invalid(w.finish().unwrap_err().0);
        assert!(!frame_too_big(&io));
    }

    fn any_content(g: &mut Gen) -> WireContent {
        let text = g.text();
        WireContent {
            digest: g.u64(),
            len: text.len() as u64,
            bytes: g.bool().then(|| text.into()),
        }
    }

    fn any_files(g: &mut Gen) -> Vec<(String, WireContent)> {
        g.vec(3, |g| (g.text(), any_content(g)))
    }

    fn any_spans(g: &mut Gen) -> Vec<WireSpan> {
        g.vec(3, |g| WireSpan {
            name: g.text(),
            start_ns: g.u64(),
            end_ns: g.u64(),
            detail: g.option(Gen::text),
        })
    }

    /// A frame with tag `tag` (`Done` either way) and random fields.
    fn any_frame(g: &mut Gen, tag: usize) -> Frame {
        match tag {
            0 => Frame::Ready { pid: g.u64() as u32, now_ns: g.u64() },
            1 => Frame::Hello { worker_id: g.u64() as u32, spec: g.text(), heartbeat_ms: g.u64() },
            2 => Frame::Run {
                job: g.u64(),
                activity: g.u64() as u32,
                part_index: g.u64(),
                attempt: g.u64() as u32,
                fate: WireFate::injected(g.bool()),
                workdir: g.text(),
                part: g.vec(3, |g| g.vec(4, Gen::cell)),
            },
            3 => Frame::FileReq { req: g.u64(), path: g.text() },
            4 => Frame::FileData { req: g.u64(), contents: g.option(any_content) },
            5 => Frame::Heartbeat { job: g.option(Gen::u64), job_elapsed_ms: g.u64() },
            6 if g.bool() => Frame::Done {
                job: g.u64(),
                outcome: WireOutcome::Finished {
                    tuples: g.vec(3, |g| g.vec(4, Gen::cell)),
                    files: any_files(g),
                    params: g.vec(3, |g| (g.text(), g.option(Gen::f64), g.option(Gen::text))),
                    spans: any_spans(g),
                },
            },
            6 => Frame::Done {
                job: g.u64(),
                outcome: WireOutcome::Failed {
                    error: g.text(),
                    files: any_files(g),
                    spans: any_spans(g),
                },
            },
            7 => Frame::Shutdown,
            8 => Frame::Drain,
            9 => Frame::Bye { completed: g.u64() },
            _ => Frame::Stats {
                delta: telemetry::StatsDelta {
                    counters: g.vec(3, |g| (g.text(), g.u64())),
                    hists: g.vec(2, |g| {
                        let words: Vec<u64> =
                            (0..3 + telemetry::HIST_BUCKETS).map(|_| g.u64()).collect();
                        (g.text(), telemetry::HistogramSnapshot::from_words(&words).unwrap())
                    }),
                },
            },
        }
    }

    #[test]
    fn every_frame_passes_the_codec_harness() {
        let mut n = 0;
        check_codec(
            |g| {
                n += 1;
                any_frame(g, n % 11)
            },
            220,
        );
    }
}
