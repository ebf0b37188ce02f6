//! The worker half of the distributed backend.
//!
//! A worker is a single TCP client (one per OS process, or one per thread
//! for in-process tests). It connects to the master, announces itself
//! (a `Ready` frame), resolves the workflow spec the master
//! names in its `Hello`, and then executes `Run` frames one at a time on a
//! dedicated executor thread while the socket thread keeps servicing
//! file-fetch responses and a heartbeat thread keeps the master convinced
//! it is alive. Input files it does not hold locally are pulled from the
//! master through the [`FileStore`] read-through hook (`FileReq` /
//! `FileData`), so workers start empty and warm up lazily.

use std::collections::HashMap;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use telemetry::Telemetry;

use crate::error::CumulusError;
use crate::workflow::{ActivationCtx, Blob, Contents, FileStore, WorkflowDef};

use super::proto::{self, Carried, Frame, WireFate, WireOutcome, WireSpan};

/// Maps the spec name shipped in the master's `Hello` to an executable
/// workflow definition. Activity functions are Rust closures and cannot
/// cross a process boundary, so master and worker must both link a
/// registry that rebuilds the same workflow from its name.
pub type WorkflowResolver = Arc<dyn Fn(&str) -> Option<WorkflowDef> + Send + Sync>;

/// Test and fault-drill knobs for [`serve_with`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ServeOptions {
    /// Suppress heartbeats entirely (to test the master's liveness timeout).
    pub no_heartbeat: bool,
    /// Abruptly sever the connection upon *receiving* the Nth `Run` frame
    /// (1-based), simulating a SIGKILL for in-process crash tests.
    pub die_on_run: Option<usize>,
}

/// Where the socket thread delivers the master's answer to one `FileReq`.
type FetchReply = mpsc::Sender<Option<Blob>>;

/// How long a read-through file fetch waits for the master's answer.
const FETCH_TIMEOUT: Duration = Duration::from_secs(30);

/// Connect to a master at `addr` and serve activations until it sends
/// `Shutdown` (or the connection drops). This is the entry point the
/// `scidock-worker` binary wraps.
///
/// `resolver` is handed the worker's metrics collector, whose growth every
/// `Stats` frame ships to the master: counters of the workflows it resolves
/// (the receptor tier's, say) reach the master's snapshot through it.
pub fn serve(
    addr: &str,
    resolver: impl FnOnce(Telemetry) -> WorkflowResolver,
) -> Result<(), CumulusError> {
    serve_with(addr, resolver, ServeOptions::default())
}

pub(crate) fn serve_with(
    addr: &str,
    resolver: impl FnOnce(Telemetry) -> WorkflowResolver,
    opts: ServeOptions,
) -> Result<(), CumulusError> {
    let epoch = Instant::now();
    let now_ns = move |at: Instant| -> u64 { (at - epoch).as_nanos() as u64 };
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));

    proto::write_frame(
        &mut *writer.lock(),
        &Frame::Ready { pid: std::process::id(), now_ns: now_ns(Instant::now()) },
    )?;
    let (spec, heartbeat_ms) = match proto::read_frame(&mut reader) {
        Ok(Frame::Hello { spec, heartbeat_ms, .. }) => (spec, heartbeat_ms),
        Ok(f) => return Err(CumulusError::Protocol(format!("expected Hello, got {f:?}"))),
        Err(e) => return Err(CumulusError::Protocol(format!("bad handshake: {e}"))),
    };

    // worker-local metrics (activation latencies, outcome counters, and
    // whatever the resolved workflow counts), streamed to the master as
    // Stats deltas at heartbeat cadence. The collector's ring shards stay
    // unused (spans ship inside Done frames), so the smallest sizing
    // suffices.
    let wtel = Telemetry::with_config(telemetry::CollectorConfig { shards: 1, shard_capacity: 16 });
    let def = resolver(wtel.clone())(&spec)
        .ok_or_else(|| CumulusError::Protocol(format!("unknown workflow spec {spec:?}")))?;

    // worker-local file store with read-through to the master, and what
    // this connection has carried
    let files = Arc::new(FileStore::new());
    let carried: Arc<Mutex<Carried>> = Arc::default();
    let pending: Arc<Mutex<HashMap<u64, FetchReply>>> = Arc::new(Mutex::new(HashMap::new()));
    let next_req = Arc::new(AtomicU64::new(1));
    {
        let writer = Arc::clone(&writer);
        let pending = Arc::clone(&pending);
        let next_req = Arc::clone(&next_req);
        files.set_fetch_hook(Box::new(move |path| {
            let req = next_req.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = mpsc::channel();
            pending.lock().insert(req, tx);
            let sent = proto::write_frame(
                &mut *writer.lock(),
                &Frame::FileReq { req, path: path.to_string() },
            )
            .is_ok();
            let got = if sent { rx.recv_timeout(FETCH_TIMEOUT).ok().flatten() } else { None };
            pending.lock().remove(&req);
            got.map(Contents::from)
        }));
    }

    let alive = Arc::new(AtomicBool::new(true));
    // the job currently executing: (job id, started at), for heartbeats
    let current: Arc<Mutex<Option<(u64, Instant)>>> = Arc::new(Mutex::new(None));
    // lifetime Done count, reported in the Bye frame when drained
    let completed = Arc::new(AtomicU64::new(0));

    let stats_cursor = Arc::new(Mutex::new(telemetry::DeltaCursor::default()));
    let flush_stats = {
        let wtel = wtel.clone();
        let cursor = Arc::clone(&stats_cursor);
        let writer = Arc::clone(&writer);
        Arc::new(move || -> bool {
            let delta = wtel.delta_since(&mut cursor.lock());
            delta.is_empty()
                || proto::write_frame(&mut *writer.lock(), &Frame::Stats { delta }).is_ok()
        })
    };

    let heartbeat = (!opts.no_heartbeat).then(|| {
        let writer = Arc::clone(&writer);
        let alive = Arc::clone(&alive);
        let current = Arc::clone(&current);
        let flush_stats = Arc::clone(&flush_stats);
        let interval = Duration::from_millis(heartbeat_ms.max(10));
        std::thread::spawn(move || {
            while alive.load(Ordering::SeqCst) {
                // parked, not asleep: the exit paths unpark this thread
                // before joining it, so a worker's exit does not wait out
                // the interval
                std::thread::park_timeout(interval);
                if !alive.load(Ordering::SeqCst) {
                    break;
                }
                let (job, elapsed) = match *current.lock() {
                    Some((j, at)) => (Some(j), at.elapsed().as_millis() as u64),
                    None => (None, 0),
                };
                let hb = Frame::Heartbeat { job, job_elapsed_ms: elapsed };
                if proto::write_frame(&mut *writer.lock(), &hb).is_err() {
                    break;
                }
                // piggyback a Stats frame when anything changed
                if !flush_stats() {
                    break;
                }
            }
        })
    });

    // dedicated executor: runs activations sequentially so the socket
    // thread stays responsive (file fetches must not wait behind compute)
    let (run_tx, run_rx) = mpsc::channel::<Frame>();
    let executor = {
        let writer = Arc::clone(&writer);
        let files = Arc::clone(&files);
        let current = Arc::clone(&current);
        let completed = Arc::clone(&completed);
        let carried = Arc::clone(&carried);
        let wtel = wtel.clone();
        let def = Arc::new(def);
        std::thread::spawn(move || {
            while let Ok(frame) = run_rx.recv() {
                let Frame::Run { job, activity, part_index, attempt, fate, workdir, part } = frame
                else {
                    continue;
                };
                *current.lock() = Some((job, Instant::now()));
                let start = now_ns(Instant::now());
                let tag = def
                    .activities
                    .get(activity as usize)
                    .map(|a| a.tag.clone())
                    .unwrap_or_else(|| format!("activity-{activity}"));
                // contents this connection carried before go as digests;
                // they join its table once the frame is on the wire
                let mut fresh = Vec::new();
                let outcome = match def.activities.get(activity as usize) {
                    None => WireOutcome::Failed {
                        error: format!("no activity at index {activity}"),
                        files: Vec::new(),
                        spans: Vec::new(),
                    },
                    Some(a) => {
                        let func = Arc::clone(&a.func);
                        let mut ctx = ActivationCtx::new(&files, &workdir);
                        let result = catch_unwind(AssertUnwindSafe(|| func(&part, &mut ctx)));
                        // the store's own allocations: nothing is copied
                        // until the Done frame is encoded
                        let produced: Vec<Blob> = ctx
                            .produced_files()
                            .iter()
                            .map(|p| files.read(p).unwrap_or_else(|| Blob::new("")))
                            .collect();
                        let (contents, new) = carried.lock().offer(&produced);
                        fresh = new;
                        let shipped: Vec<_> =
                            ctx.produced_files().iter().cloned().zip(contents).collect();
                        let span = |detail: &str| WireSpan {
                            name: tag.clone(),
                            start_ns: start,
                            end_ns: now_ns(Instant::now()),
                            detail: Some(format!(
                                "job={job} part={part_index} attempt={attempt} {detail}"
                            )),
                        };
                        match (result, fate) {
                            // an injected failure executes (the work is
                            // lost) but its files persist, matching the
                            // local backend's shared store
                            (_, WireFate::Fail) => WireOutcome::Failed {
                                error: "injected failure".into(),
                                files: shipped,
                                spans: vec![span("failed(injected)")],
                            },
                            (Ok(Ok(tuples)), WireFate::Ok) => WireOutcome::Finished {
                                tuples,
                                files: shipped,
                                params: ctx.params.clone(),
                                spans: vec![span("finished")],
                            },
                            (Ok(Err(e)), WireFate::Ok) => WireOutcome::Failed {
                                error: e.to_string(),
                                files: shipped,
                                spans: vec![span("failed")],
                            },
                            (Err(panic), WireFate::Ok) => WireOutcome::Failed {
                                error: panic_message(&panic),
                                files: shipped,
                                spans: vec![span("panicked")],
                            },
                        }
                    }
                };
                *current.lock() = None;
                // stream-side metrics: per-activity latency plus outcome
                // counters, picked up by the next heartbeat's Stats frame
                if let Some(h) = wtel.histogram(&format!("activation.{tag}")) {
                    h.record(now_ns(Instant::now()).saturating_sub(start));
                }
                wtel.count(
                    match &outcome {
                        WireOutcome::Finished { .. } => "worker.finished",
                        WireOutcome::Failed { .. } => "worker.failed",
                    },
                    1,
                );
                let digested = files.take_digest_bytes();
                if digested > 0 {
                    wtel.count("files.digest_bytes", digested);
                }
                // complete the first write in its own statement: a guard
                // created in a match scrutinee lives to the end of the
                // match, and the fallback arm must re-lock the writer
                let first = proto::write_frame(&mut *writer.lock(), &Frame::Done { job, outcome });
                let sent = match first {
                    Ok(_) => {
                        carried.lock().extend(fresh);
                        true
                    }
                    Err(e) if proto::frame_too_big(&e) => {
                        // The result is too large for the wire. write_frame
                        // refused it *before* emitting bytes, so the stream
                        // is still framed: degrade to a Failed outcome the
                        // master records against the attempt, instead of
                        // desyncing the socket and being declared lost.
                        let fallback = Frame::Done {
                            job,
                            outcome: WireOutcome::Failed {
                                error: format!("oversized result: {e}"),
                                files: Vec::new(),
                                spans: Vec::new(),
                            },
                        };
                        proto::write_frame(&mut *writer.lock(), &fallback).is_ok()
                    }
                    Err(_) => false,
                };
                if !sent {
                    break;
                }
                completed.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // socket loop: route frames until shutdown / disconnect / injected death
    let mut run_tx = Some(run_tx);
    let mut executor = Some(executor);
    let mut drain_helper: Option<std::thread::JoinHandle<()>> = None;
    let mut runs_seen = 0usize;
    let mut result = Ok(());
    loop {
        match proto::read_frame(&mut reader) {
            Ok(frame @ Frame::Run { .. }) => {
                runs_seen += 1;
                if opts.die_on_run == Some(runs_seen) {
                    // simulate SIGKILL: sever the socket without draining
                    alive.store(false, Ordering::SeqCst);
                    let _ = writer.lock().shutdown(std::net::Shutdown::Both);
                    drop(run_tx.take());
                    if let Some(h) = executor.take() {
                        let _ = h.join();
                    }
                    if let Some(h) = heartbeat {
                        h.thread().unpark();
                        let _ = h.join();
                    }
                    return Ok(());
                }
                match run_tx.as_ref() {
                    Some(tx) => {
                        if tx.send(frame).is_err() {
                            break;
                        }
                    }
                    None => {
                        result = Err(CumulusError::Protocol("Run frame after Drain".to_string()));
                        break;
                    }
                }
            }
            Ok(Frame::FileData { req, contents }) => {
                // landed even when its fetch timed out: the master counts the
                // content as carried either way
                let landed = contents.map(|c| carried.lock().land(c, &wtel)).transpose();
                match landed {
                    Ok(blob) => {
                        if let Some(tx) = pending.lock().remove(&req) {
                            let _ = tx.send(blob);
                        }
                    }
                    Err(reason) => {
                        result = Err(CumulusError::Protocol(format!("FileData {req}: {reason}")));
                        // no graceful drain on a broken stream: queued work
                        // fails to report and waiting fetches give up now
                        let _ = writer.lock().shutdown(std::net::Shutdown::Both);
                        pending.lock().clear();
                        break;
                    }
                }
            }
            Ok(Frame::Drain) => {
                // Finish everything already queued, confirm with Bye, exit.
                // The socket loop keeps running meanwhile: in-flight
                // activations may still need FileData answers. A helper
                // waits for the executor, sends Bye, and severs the socket
                // — which pops this loop out of read_frame.
                drop(run_tx.take());
                if let Some(h) = executor.take() {
                    let writer = Arc::clone(&writer);
                    let alive = Arc::clone(&alive);
                    let completed = Arc::clone(&completed);
                    let flush_stats = Arc::clone(&flush_stats);
                    drain_helper = Some(std::thread::spawn(move || {
                        let _ = h.join();
                        // final stats so the master's merged view does not
                        // miss this worker's last activations
                        let _ = flush_stats();
                        let bye = Frame::Bye { completed: completed.load(Ordering::SeqCst) };
                        let _ = proto::write_frame(&mut *writer.lock(), &bye);
                        alive.store(false, Ordering::SeqCst);
                        let _ = writer.lock().shutdown(std::net::Shutdown::Both);
                    }));
                }
            }
            Ok(Frame::Shutdown) => break,
            Ok(f) => {
                result = Err(CumulusError::Protocol(format!("unexpected frame {f:?}")));
                break;
            }
            Err(_) => {
                // master gone: waiting fetches and queued results give up now
                let _ = writer.lock().shutdown(std::net::Shutdown::Both);
                pending.lock().clear();
                break;
            }
        }
    }

    // graceful drain: finish queued work (Done frames flush through the
    // writer), then tear the connection down
    drop(run_tx.take());
    if let Some(h) = executor.take() {
        let _ = h.join();
    }
    if let Some(h) = drain_helper {
        let _ = h.join();
    }
    let _ = flush_stats(); // best-effort: the master may already be gone
    alive.store(false, Ordering::SeqCst);
    let _ = writer.lock().shutdown(std::net::Shutdown::Both);
    if let Some(h) = heartbeat {
        h.thread().unpark();
        let _ = h.join();
    }
    result
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("activation panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("activation panicked: {s}")
    } else {
        "activation panicked".to_string()
    }
}
