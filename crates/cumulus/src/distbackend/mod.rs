//! The distributed execution backend: one workflow across multiple OS
//! processes on the same machine.
//!
//! [`run_dist`] is one campaign of the crate's run scope ([`crate::serve`]'s
//! directory, which the local backend runs its one campaign in too), whose
//! engine (`engine.rs`) runs it — the same ready-driven pipelined dispatcher
//! as the local backend — with this module's `SDW2` port as its workers:
//! instead of handing activations to threads, the port shards them over TCP
//! to worker processes, each a [`worker::serve`] loop around the
//! length-prefixed frame protocol of the private `proto` module (the frame
//! layout is documented in `DESIGN.md` §10). Together they keep every run
//! honest:
//!
//! * **Backpressure** — at most [`RunConfig::max_in_flight`] activations
//!   are outstanding per worker; the rest wait in a FIFO.
//! * **Liveness** — workers heartbeat on an interval; a silent worker is
//!   declared lost after [`RunConfig::heartbeat_timeout`], its socket cut,
//!   and its in-flight activations reassigned.
//! * **Crash recovery** — a lost activation gets a `FAILED` provenance row
//!   and re-enters the queue with a bumped attempt; after more than
//!   [`RunConfig::reassign_budget`] crashes the input is treated as poison
//!   and `BLACKLISTED`, so one bad tuple cannot wedge the run.
//! * **Provenance parity** — the master process writes every row itself
//!   through the lifecycle the local backend uses (the reader thread of the
//!   connection a `Done` frame arrived on settles the attempt, and the run's
//!   committer writes a finished activation as one atomic record: outputs
//!   and `FINISHED` row together), so `provenance::export_provn_canonical`
//!   of a local and a distributed run are byte-identical and `resume_from`
//!   stays sound across a master crash. A store fault in that write is the
//!   run's: the committer forwards the panic to the engine, which re-raises
//!   it.
//! * **One copy per content** — produced files and fetched inputs are
//!   named by digest; a connection carries each content's bytes once, and
//!   the receiver re-hashes what it is sent.
//! * **Telemetry lanes** — each worker ships its spans back inside result
//!   frames; the master merges them onto a per-worker track with a clock
//!   offset, so a Chrome trace shows one lane per worker process.
//!
//! Activity functions are Rust closures and cannot cross a process
//! boundary, so both sides rebuild the workflow from a spec name: the
//! master ships [`RunConfig::spec`] in its `Hello`, and the worker
//! resolves it through a [`worker::WorkflowResolver`] registry.
//!
//! Its [`RunConfig`] is the one every run scope reads; the `SDW2` port
//! fields — the worker command or resolver, the spec, and the liveness
//! settings above — are read here alone.

pub mod worker;

pub(crate) mod proto;

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use provenance::ProvenanceStore;
use telemetry::{RemoteSpan, Telemetry};

use crate::algebra::Relation;
use crate::backend::{RunReport, Workflow};
use crate::engine::{EngineCfg, Job, PortEvent, WorkerPort};
use crate::error::CumulusError;
use crate::lifecycle::{ActivityCtx, Attempt, Exec, Settled};
use crate::serve::{Directory, RunConfig};
use crate::workflow::{Blob, FileStore, WorkflowDef};

use proto::{Carried, Frame, WireFate, WireOutcome};

/// Fault-drill hook: sever worker `worker` right after it has been sent its
/// `after_runs`-th `Run` frame (1-based). Spawned workers are killed with
/// SIGKILL mid-activation; in-process workers cut their own socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// Index of the doomed worker (accept order, 0-based).
    pub worker: usize,
    /// Die upon the Nth dispatched activation (1-based).
    pub after_runs: usize,
}

// --------------------------------------------------------------------- run

/// Deadline for a launched worker to connect and complete the handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Run a workflow across worker processes — the one entry point of a
/// distributed run.
///
/// One campaign of a directory (the run scope `scidockd` turns too) whose
/// engine holds it with `SDW2` connections as its workers, turned on the
/// calling thread; what is specific to a distributed run — the utilisation
/// epilogue — follows it. Of `cfg`, it reads the fleet, run and endpoint
/// fields and the `SDW2` port fields.
pub fn run_dist(
    def: &WorkflowDef,
    input: Relation,
    files: Arc<FileStore>,
    prov: Arc<ProvenanceStore>,
    cfg: &RunConfig,
) -> Result<RunReport, CumulusError> {
    if cfg.workers == 0 {
        return Err(CumulusError::Invalid("distributed run needs at least one worker".into()));
    }
    if cfg.worker_cmd.is_none() && cfg.resolver.is_none() {
        return Err(CumulusError::Invalid(
            "a distributed run needs a worker command or an in-process resolver".into(),
        ));
    }
    def.validate().map_err(CumulusError::Invalid)?;
    let tel = &cfg.telemetry;
    let port = |obs_tel: &Telemetry, tx| SdwPort::connect(cfg, &files, tel, obs_tel, tx);
    let fleet = EngineCfg::sdw(cfg);
    let mut dir = Directory::new(cfg.clone(), Arc::new(|_| None), prov, fleet, port)?;
    let wf = Workflow { def: def.clone(), input, files };
    let mut report = dir.run_one(wf, "master")?;

    // per-worker utilisation
    for (i, (life, busy)) in dir.engine.worker_lives().enumerate() {
        let (life_s, busy_s) = (life.as_secs_f64(), busy.as_secs_f64());
        let util = if life_s > 0.0 { (busy_s / life_s).min(1.0) } else { 0.0 };
        tel.instant(
            "fleet",
            "utilization",
            Some(&format!(
                "worker-{i} busy={busy_s:.3}s life={life_s:.3}s util={:.0}%",
                util * 100.0
            )),
        );
    }
    report.metrics = dir.close();
    Ok(report)
}

// --------------------------------------------------------------- SDW2 port

/// Attempts begun for one worker and not yet settled, by job id. Whoever
/// takes an entry out — the connection's reader on `Done`, the engine
/// through [`WorkerPort::sever`] on a loss — settles it; nobody else can.
type Begun = Arc<Mutex<HashMap<u64, (Arc<ActivityCtx>, Attempt)>>>;

/// Everything the port tracks about one worker connection.
struct Conn {
    writer: Arc<Mutex<TcpStream>>,
    child: Option<Child>,
    thread: Option<std::thread::JoinHandle<()>>,
    reader: Option<std::thread::JoinHandle<()>>,
    begun: Begun,
    runs_sent: usize,
}

impl Conn {
    fn sever(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

/// The engine's port onto `SDW2` worker connections, [`RunConfig::max_in_flight`]
/// activation slots each, plus everything needed to grow the fleet mid-run:
/// the listening socket stays open for the run's lifetime, and the port
/// keeps a sender of the engine's event channel for the readers of
/// scaled-up workers.
///
/// `begin` is called where the `Run` frame is written (the engine's thread:
/// the frame carries the attempt's fate, and the store's interval runs from
/// dispatch to result); the connection's reader thread lands the files a
/// `Done` frame ships and calls `settle`, which queues the attempt's rows
/// for the run's committer, so no result waits behind the engine's dispatch.
struct SdwPort<'a, M: From<PortEvent> + Send + 'static> {
    cfg: &'a RunConfig,
    tel: Telemetry,
    /// The collector `/metrics` serves: workers' `Stats` deltas merge here.
    obs_tel: Telemetry,
    conns: Vec<Conn>,
    listener: TcpListener,
    addr: String,
    /// The owner's channel, as whatever message `M` it carries.
    events_tx: mpsc::Sender<M>,
    /// Shared file store reader threads answer `FileReq` from.
    files: Arc<FileStore>,
    /// Spawned OS processes not yet matched to a connection (by pid).
    children: Vec<Child>,
    /// In-process serve threads not yet matched to a connection.
    threads: VecDeque<std::thread::JoinHandle<()>>,
    /// Launch instants of workers that have not completed the handshake.
    spawning: VecDeque<Instant>,
    /// Total launches ever (drives per-launch test options).
    launched: usize,
    /// Connections the engine has not been told about yet.
    fresh: usize,
}

impl<'a, M: From<PortEvent> + Send + 'static> SdwPort<'a, M> {
    /// Bind, launch the initial fleet, and complete the `Ready`/`Hello`
    /// handshake with every worker of it.
    fn connect(
        cfg: &'a RunConfig,
        files: &Arc<FileStore>,
        tel: &Telemetry,
        obs_tel: &Telemetry,
        events_tx: mpsc::Sender<M>,
    ) -> Result<SdwPort<'a, M>, CumulusError> {
        let workers = cfg.initial_workers();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        let mut port = SdwPort {
            cfg,
            tel: tel.clone(),
            obs_tel: obs_tel.clone(),
            conns: Vec::with_capacity(workers),
            listener,
            addr,
            events_tx,
            files: Arc::clone(files),
            children: Vec::new(),
            threads: VecDeque::new(),
            spawning: VecDeque::new(),
            launched: 0,
            fresh: 0,
        };
        for _ in 0..workers {
            port.launch()?;
        }
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        while port.conns.len() < workers {
            if port.accept()? == 0 {
                if Instant::now() > deadline {
                    // Drop reaps the children and joins the threads
                    return Err(CumulusError::Timeout(format!(
                        "only {}/{} workers connected within {CONNECT_TIMEOUT:?}",
                        port.conns.len(),
                        workers,
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        Ok(port)
    }

    /// Accept and handshake every connection currently waiting on the
    /// listener; spawn a reader thread per new worker. Returns how many
    /// workers joined. Non-blocking: returns 0 when nobody is knocking.
    fn accept(&mut self) -> Result<usize, CumulusError> {
        let mut joined = 0;
        loop {
            let (mut stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(CumulusError::Io(e.to_string())),
            };
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(CONNECT_TIMEOUT))?;
            let (pid, worker_now) = match recv(&self.tel, &mut stream) {
                Ok(Frame::Ready { pid, now_ns }) => (pid, now_ns),
                Ok(f) => {
                    return Err(CumulusError::Protocol(format!("expected Ready, got {f:?}")));
                }
                Err(e) => return Err(CumulusError::Protocol(format!("bad handshake: {e}"))),
            };
            stream.set_read_timeout(None)?;
            let offset_ns = self.tel.now_ns() as i64 - worker_now as i64;
            let i = self.conns.len();
            let track = self.tel.alloc_track(&format!("worker-{i}"));
            send(
                &self.tel,
                &mut stream,
                &Frame::Hello {
                    worker_id: i as u32,
                    spec: self.cfg.spec.clone(),
                    heartbeat_ms: self.cfg.heartbeat.as_millis() as u64,
                },
            )?;
            // match the OS child (if any) to this connection by pid
            let child = self
                .children
                .iter()
                .position(|c| c.id() == pid)
                .map(|at| self.children.swap_remove(at));
            let writer = Arc::new(Mutex::new(stream));
            let begun = Begun::default();
            let reader = Reader {
                worker: i,
                stream: writer
                    .lock()
                    .try_clone()
                    .map_err(|e| CumulusError::Io(format!("cloning worker {i} stream: {e}")))?,
                writer: Arc::clone(&writer),
                files: Arc::clone(&self.files),
                carried: Carried::default(),
                tx: self.events_tx.clone(),
                begun: Arc::clone(&begun),
                tel: self.tel.clone(),
                obs_tel: self.obs_tel.clone(),
                track,
                offset_ns,
            };
            self.conns.push(Conn {
                writer,
                child,
                thread: self.threads.pop_front(),
                reader: Some(std::thread::spawn(move || reader.serve())),
                begun,
                runs_sent: 0,
            });
            self.spawning.pop_front();
            joined += 1;
        }
        self.fresh += joined;
        Ok(joined)
    }

    /// Sever everything and join every handle, including launches that
    /// never finished connecting.
    fn teardown(&mut self) {
        // every connection first: an in-process worker's thread is matched to
        // a connection by launch order, so it may hold a socket further down
        self.conns.iter_mut().for_each(Conn::sever);
        for c in &mut self.conns {
            if let Some(t) = c.thread.take() {
                let _ = t.join();
            }
            if let Some(r) = c.reader.take() {
                let _ = r.join();
            }
        }
        for mut c in self.children.drain(..) {
            let _ = c.kill();
            let _ = c.wait();
        }
        // Unmatched in-process threads detach rather than join: one could
        // still be blocked in its handshake read, which only fails once
        // the listener drops — joining here would deadlock against it.
        self.threads.clear();
    }
}

impl<M: From<PortEvent> + Send + 'static> WorkerPort for SdwPort<'_, M> {
    fn slots(&self) -> usize {
        self.cfg.max_in_flight
    }

    /// Launch one more worker (process or in-process thread) toward the
    /// listening socket. The handshake completes later, in `joined`.
    fn launch(&mut self) -> Result<(), CumulusError> {
        let seq = self.launched;
        self.launched += 1;
        if let Some((program, args)) = &self.cfg.worker_cmd {
            let child = Command::new(program)
                .args(args)
                .arg("--connect")
                .arg(&self.addr)
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| CumulusError::Io(format!("spawning worker {seq} ({program}): {e}")))?;
            self.children.push(child);
        } else {
            let resolver = self.cfg.resolver.clone().expect("validated by run_dist");
            let addr = self.addr.clone();
            let opts = worker::ServeOptions {
                no_heartbeat: self.cfg.mute_heartbeat == Some(seq),
                die_on_run: self.cfg.kill_plan.filter(|p| p.worker == seq).map(|p| p.after_runs),
            };
            self.threads.push_back(std::thread::spawn(move || {
                let _ = worker::serve_with(&addr, |_| resolver, opts);
            }));
        }
        self.spawning.push_back(Instant::now());
        Ok(())
    }

    fn joined(&mut self) -> Result<(usize, usize), CumulusError> {
        // launches that never completed the handshake within the connect
        // deadline are forgotten, so the scheduler stops counting them
        let before = self.spawning.len();
        self.spawning.retain(|at| at.elapsed() <= CONNECT_TIMEOUT);
        let expired = before - self.spawning.len();
        self.accept()?;
        Ok((std::mem::take(&mut self.fresh), expired))
    }

    fn run(&mut self, worker: usize, id: u64, ctx: &Arc<ActivityCtx>, job: &Job) -> bool {
        let mut at = ctx.begin(&job.key, job.attempt);
        at.worker = Some(worker);
        let frame = Frame::Run {
            job: id,
            activity: job.activity as u32,
            part_index: job.part_index as u64,
            attempt: job.attempt,
            fate: WireFate::injected(at.doomed()),
            workdir: ctx.workdir(job.part_index),
            part: job.part.to_vec(),
        };
        let c = &mut self.conns[worker];
        c.begun.lock().insert(id, (Arc::clone(ctx), at));
        let sent = send(&self.tel, &mut c.writer.lock(), &frame).is_ok();
        c.runs_sent += 1;
        if let Some(plan) = self.cfg.kill_plan {
            if plan.worker == worker && plan.after_runs == c.runs_sent {
                // SIGKILL mid-activation; in-process workers sever
                // themselves via their own die_on_run counter
                if let Some(child) = &mut c.child {
                    let _ = child.kill();
                }
            }
        }
        sent
    }

    fn drain(&mut self, worker: usize) -> bool {
        send(&self.tel, &mut self.conns[worker].writer.lock(), &Frame::Drain).is_ok()
    }

    fn sever(&mut self, worker: usize) -> Vec<(u64, Attempt)> {
        let c = &mut self.conns[worker];
        c.sever();
        c.begun.lock().drain().map(|(id, (_, at))| (id, at)).collect()
    }

    /// Graceful shutdown: ask every worker still connected to exit, give
    /// processes a moment to do so, then reap whatever is left.
    fn shutdown(&mut self) {
        for c in &self.conns {
            let _ = send(&self.tel, &mut c.writer.lock(), &Frame::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut waiting = false;
            for c in &mut self.conns {
                if let Some(child) = &mut c.child {
                    match child.try_wait() {
                        Ok(Some(_)) => c.child = None,
                        Ok(None) => waiting = true,
                        Err(_) => c.child = None,
                    }
                }
            }
            if !waiting || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.teardown();
    }
}

impl<M: From<PortEvent> + Send + 'static> Drop for SdwPort<'_, M> {
    fn drop(&mut self) {
        // safety net for error paths: never leave worker processes behind
        self.teardown();
    }
}

/// Write one frame to a worker, counted as `sdw.bytes_out`.
fn send(tel: &Telemetry, stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    tel.count("sdw.bytes_out", proto::write_frame(stream, frame)? as u64);
    Ok(())
}

/// Read one frame from a worker, counted as `sdw.bytes_in`.
fn recv(tel: &Telemetry, stream: &mut TcpStream) -> std::io::Result<Frame> {
    let body = proto::read_body(stream)?;
    tel.count("sdw.bytes_in", body.len() as u64 + 4);
    proto::decode(&body).map_err(proto::invalid)
}

/// The thread reading one worker connection.
struct Reader<M: From<PortEvent> + Send + 'static> {
    worker: usize,
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    files: Arc<FileStore>,
    /// What this connection has carried, in either direction.
    carried: Carried,
    tx: mpsc::Sender<M>,
    begun: Begun,
    tel: Telemetry,
    obs_tel: Telemetry,
    /// Telemetry track (trace lane) for this worker's spans.
    track: u64,
    /// master_clock − worker_clock, for span merging.
    offset_ns: i64,
}

impl<M: From<PortEvent> + Send + 'static> Reader<M> {
    fn serve(mut self) {
        let worker = self.worker;
        let lost = loop {
            let event = match recv(&self.tel, &mut self.stream) {
                // answer file fetches right here so they never queue
                // behind the engine's dispatch
                Ok(Frame::FileReq { req, path }) => {
                    let contents = self.files.read(&path).map(|blob| {
                        let (mut wire, fresh) = self.carried.offer([&blob]);
                        self.carried.extend(fresh);
                        wire.remove(0)
                    });
                    let reply = Frame::FileData { req, contents };
                    if send(&self.tel, &mut self.writer.lock(), &reply).is_err() {
                        break "socket_closed";
                    }
                    continue;
                }
                Ok(Frame::Stats { delta }) => {
                    // periodic worker-local counter/histogram growth:
                    // merging it here keeps a continuously-current
                    // cluster-wide snapshot behind /metrics mid-run
                    self.obs_tel.absorb(&delta);
                    continue;
                }
                Ok(Frame::Heartbeat { job, job_elapsed_ms }) => {
                    // the worker's own view of its current activation's
                    // age: the straggler sweep cross-checks it and the hang
                    // detector quotes it on a loss
                    if job.is_some() {
                        if let Some(h) = self.obs_tel.histogram("dist.heartbeat.job_elapsed") {
                            h.record(job_elapsed_ms.saturating_mul(1_000_000));
                        }
                    }
                    PortEvent::Seen { worker, job: job.map(|j| (j, job_elapsed_ms)) }
                }
                Ok(Frame::Done { job, mut outcome }) => {
                    // resolved even for a completion that raced a
                    // reassignment: the worker counts its contents carried
                    let (WireOutcome::Finished { files, .. } | WireOutcome::Failed { files, .. }) =
                        &mut outcome;
                    let files: Result<Vec<(String, Blob)>, _> = std::mem::take(files)
                        .into_iter()
                        .map(|(path, c)| Ok((path, self.carried.land(c, &self.tel)?)))
                        .collect();
                    let files = match files {
                        Ok(files) => files,
                        Err(reason) => break reason,
                    };
                    let Some((ctx, at)) = self.begun.lock().remove(&job) else {
                        continue; // completion raced a reassignment
                    };
                    let paths = self.land(files);
                    // a panic here is a fault of the lifecycle itself, e.g.
                    // a dead committer: the run dies of it, as the engine's
                    // other ports make it
                    match catch_unwind(AssertUnwindSafe(|| self.settle(&ctx, at, outcome, &paths)))
                    {
                        Ok(settled) => PortEvent::Settled { worker, job, settled },
                        Err(payload) => {
                            let _ = self.tx.send(PortEvent::Panicked(payload).into());
                            return;
                        }
                    }
                }
                Ok(Frame::Bye { completed }) => PortEvent::Retired { worker, completed },
                Ok(_) => break "unexpected_frame",
                Err(_) => break "socket_closed",
            };
            if self.tx.send(event.into()).is_err() {
                return;
            }
        };
        let _ = self.tx.send(PortEvent::Lost { worker, reason: lost }.into());
    }

    /// Land an attempt's artifacts in the shared store before the lifecycle
    /// records them, so recorded sizes are real and downstream fetches
    /// always hit — even a failed attempt's files persist: the local backend
    /// shares one store, so parity demands the same here. The connection's
    /// table then names each content by the store's allocation of it, not
    /// by the frame's copy.
    fn land(&mut self, files: Vec<(String, Blob)>) -> Vec<String> {
        files
            .into_iter()
            .map(|(path, blob)| {
                let stored = self.files.write(&path, blob);
                self.carried.extend([stored]);
                path
            })
            .collect()
    }

    /// Let the lifecycle record an attempt whose files have landed.
    fn settle(
        &self,
        ctx: &ActivityCtx,
        at: Attempt,
        outcome: WireOutcome,
        paths: &[String],
    ) -> Settled {
        match outcome {
            WireOutcome::Finished { tuples, params, spans, .. } => {
                self.import(spans);
                ctx.settle(at, Exec::Finished { tuples, files: paths, params })
            }
            WireOutcome::Failed { error, spans, .. } => {
                self.import(spans);
                if error.starts_with("oversized result") {
                    // the worker degraded an over-cap Done frame into a
                    // failed attempt; the run survives, but the cause
                    // stays countable
                    self.tel.count("proto.oversized_done", 1);
                }
                ctx.settle(at, Exec::Failed)
            }
        }
    }

    fn import(&self, spans: Vec<proto::WireSpan>) {
        if spans.is_empty() {
            return;
        }
        let remote: Vec<RemoteSpan> = spans
            .into_iter()
            .map(|s| RemoteSpan {
                name: s.name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                detail: s.detail,
            })
            .collect();
        self.tel.import_spans(self.track, self.offset_ns, &remote);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Operator;
    use crate::backend::{Backend, LocalBackend};
    use crate::fleet::{
        QueueDepthConfig, QueueDepthScheduler, ScaleDecision, ScaleEvent, SchedulerFactory,
    };
    use crate::obs::{BoundAddr, EventLog};
    use crate::workflow::Activity;
    use cloudsim::FailureModel;
    use provenance::{export_provn_canonical, Value};

    /// Three activities: stage (writes a file per tuple), score (reads the
    /// staged file — exercising cross-worker fetch), and reduce (a barrier
    /// summing everything).
    fn test_def(sleep_ms: u64) -> WorkflowDef {
        WorkflowDef {
            tag: "dist-test".into(),
            description: "distbackend test workflow".into(),
            expdir: "/exp/dist".into(),
            activities: vec![
                Activity::map(
                    "stage",
                    &["x", "path"],
                    Arc::new(move |t, ctx| {
                        if sleep_ms > 0 {
                            std::thread::sleep(Duration::from_millis(sleep_ms));
                        }
                        Ok(t.iter()
                            .map(|row| {
                                let x = match row[0] {
                                    Value::Int(i) => i,
                                    _ => 0,
                                };
                                let path = ctx.write_file(&format!("in-{x}.txt"), x.to_string());
                                vec![Value::Int(x), Value::Text(path)]
                            })
                            .collect())
                    }),
                ),
                Activity::map(
                    "score",
                    &["y"],
                    Arc::new(|t, ctx| {
                        ctx.record_param("factor", Some(3.0), None);
                        t.iter()
                            .map(|row| {
                                let path = row[1].to_string();
                                let staged: i64 = ctx.read_file(&path)?.trim().parse().unwrap_or(0);
                                Ok(vec![Value::Int(staged * 3)])
                            })
                            .collect()
                    }),
                ),
                Activity::map(
                    "reduce",
                    &["total"],
                    Arc::new(|t: &[crate::algebra::Tuple], _: &mut _| {
                        let s: i64 = t
                            .iter()
                            .map(|row| match row[0] {
                                Value::Int(i) => i,
                                _ => 0,
                            })
                            .sum();
                        Ok(vec![vec![Value::Int(s)]])
                    }),
                )
                .with_operator(Operator::SRQuery),
            ],
            deps: vec![vec![], vec![0], vec![1]],
        }
    }

    fn test_input(n: i64) -> Relation {
        let mut r = Relation::new(&["x"]);
        for i in 0..n {
            r.push(vec![Value::Int(i)]);
        }
        r
    }

    fn resolver(sleep_ms: u64) -> worker::WorkflowResolver {
        Arc::new(move |spec| (spec == "dist-test").then(|| test_def(sleep_ms)))
    }

    fn dist_cfg(workers: usize) -> RunConfig {
        RunConfig {
            resolver: Some(resolver(0)),
            ..RunConfig::new().with_workers(workers).with_spec("dist-test")
        }
    }

    /// `test_def(0)` over four inputs through the local backend.
    fn run_local(cfg: RunConfig, prov: &Arc<ProvenanceStore>) -> RunReport {
        let wf = Workflow::new(test_def(0), test_input(4));
        LocalBackend::new(cfg).run(&wf, prov).expect("local run")
    }

    fn run(cfg: &RunConfig) -> (RunReport, Arc<ProvenanceStore>, Arc<FileStore>) {
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let report =
            run_dist(&test_def(0), test_input(4), Arc::clone(&files), Arc::clone(&prov), cfg)
                .expect("distributed run");
        (report, prov, files)
    }

    #[test]
    fn dist_matches_local_canonical_provenance() {
        let (report, prov, _) = run(&dist_cfg(2));
        assert_eq!(report.finished, 9); // 4 stage + 4 score + 1 reduce
                                        // 0+1+2+3 staged, ×3 scored, summed
        let last = report.outputs.last().unwrap();
        assert_eq!(last.tuples, vec![vec![Value::Int(18)]]);

        let lprov = Arc::new(ProvenanceStore::new());
        let lreport = run_local(RunConfig::new().with_workers(2), &lprov);
        assert_eq!(lreport.finished, report.finished);
        assert_eq!(
            export_provn_canonical(&prov),
            export_provn_canonical(&lprov),
            "local and distributed canonical PROV-N must be byte-identical"
        );
    }

    #[test]
    fn workers_fetch_files_through_the_master() {
        // serialize hard so stage and score land on different workers
        let cfg = RunConfig { max_in_flight: 1, ..dist_cfg(2) };
        let (report, _, files) = run(&cfg);
        assert_eq!(report.finished, 9);
        assert_eq!(report.outputs.last().unwrap().tuples, vec![vec![Value::Int(18)]]);
        // every staged artifact landed in the master's shared store
        assert_eq!(files.list("/exp/dist").len(), 4);
    }

    #[test]
    fn injected_failures_stay_in_parity_with_local() {
        let failures =
            FailureModel { fail_rate: 0.35, hang_rate: 0.15, fail_at_fraction: 0.5, seed: 7 };
        let cfg = dist_cfg(2).with_failures(failures).with_max_retries(2);
        let (report, prov, _) = run(&cfg);

        let lprov = Arc::new(ProvenanceStore::new());
        let lreport = run_local(
            RunConfig::new().with_workers(2).with_failures(failures).with_max_retries(2),
            &lprov,
        );
        assert_eq!(report.finished, lreport.finished);
        assert_eq!(report.failed_attempts, lreport.failed_attempts);
        assert_eq!(report.aborted, lreport.aborted);
        assert!(
            report.failed_attempts > 0 || report.aborted > 0,
            "seed 7 must actually inject faults for this test to mean anything"
        );
        assert_eq!(export_provn_canonical(&prov), export_provn_canonical(&lprov));
    }

    #[test]
    fn killed_worker_is_reassigned_and_the_run_completes() {
        let fair = RunConfig { max_in_flight: 1, ..dist_cfg(2) };
        let (clean, _, _) = run(&fair);

        // worker 0 dies the moment it receives its first activation
        let cfg =
            RunConfig { kill_plan: Some(KillPlan { worker: 0, after_runs: 1 }), ..fair.clone() };
        let (report, prov, _) = run(&cfg);
        assert_eq!(report.finished, clean.finished);
        assert_eq!(report.failed_attempts, 1, "exactly the activation lost with the worker");
        assert_eq!(report.blacklisted, 0);
        let sorted = |r: &RunReport| {
            let mut t = r.outputs.last().unwrap().tuples.clone();
            t.sort_by_key(|row| row.first().map(|v| v.to_string()));
            t
        };
        assert_eq!(sorted(&report), sorted(&clean));
        // the crash left exactly one FAILED attempt in provenance
        let failed = prov
            .query_rows("SELECT taskid FROM hactivation WHERE status = 'FAILED'", &[])
            .unwrap()
            .rows
            .len();
        assert_eq!(failed, 1);
    }

    #[test]
    fn silent_worker_trips_the_heartbeat_timeout() {
        let cfg = RunConfig {
            heartbeat: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(250),
            reassign_budget: 0,
            mute_heartbeat: Some(0),
            resolver: Some(resolver(600)),
            ..RunConfig::new().with_workers(1).with_spec("dist-test")
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_dist(
            &test_def(600),
            test_input(1),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .expect("run must complete by blacklisting the lost activation");
        assert_eq!(report.finished, 0);
        assert_eq!(report.failed_attempts, 1);
        assert_eq!(report.blacklisted, 1, "budget 0 turns the crash into poison");
    }

    #[test]
    fn wedged_activation_trips_the_hang_detector() {
        // tuple 0 wedges its worker for 2s; the detector fires at 300ms
        let def = WorkflowDef {
            tag: "hang-test".into(),
            description: "hang detector".into(),
            expdir: "/exp/hang".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(|t, _| {
                    for row in t {
                        if row[0] == Value::Int(0) {
                            std::thread::sleep(Duration::from_secs(2));
                        }
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let hung = def.clone();
        let cfg = RunConfig {
            activation_timeout: Some(Duration::from_millis(300)),
            reassign_budget: 0,
            resolver: Some(Arc::new(move |spec| (spec == "hang-test").then(|| hung.clone()))),
            max_in_flight: 1,
            ..RunConfig::new().with_workers(2).with_spec("hang-test")
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&def, test_input(3), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .expect("the healthy worker must finish the rest");
        assert_eq!(report.finished, 2);
        assert_eq!(report.blacklisted, 1);
    }

    // -------------------------------------------------- elastic fleet

    /// One Map activity over `x`, each activation sleeping `sleep_ms`.
    fn flat_def(sleep_ms: u64) -> WorkflowDef {
        WorkflowDef {
            tag: "flat-test".into(),
            description: "flat elastic workload".into(),
            expdir: "/exp/flat".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(move |t, _: &mut _| {
                    if sleep_ms > 0 {
                        std::thread::sleep(Duration::from_millis(sleep_ms));
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        }
    }

    fn qd_factory(max_workers: usize) -> SchedulerFactory {
        SchedulerFactory::new(move || {
            Box::new(QueueDepthScheduler::new(QueueDepthConfig {
                max_workers,
                ..QueueDepthConfig::default()
            }))
        })
    }

    fn flat_cfg(sleep_ms: u64) -> RunConfig {
        RunConfig {
            resolver: Some(Arc::new(move |spec| (spec == "flat-test").then(|| flat_def(sleep_ms)))),
            max_in_flight: 1,
            ..RunConfig::new().with_workers(1).with_spec("flat-test")
        }
    }

    /// The decision trace a queue-depth policy (factor 2, step 1, cooldown
    /// 2, fleet 1..=3) must produce over 10 flat activations starting from
    /// one single-slot worker — and the simulator must reproduce it
    /// event-for-event (see tests/fleet.rs).
    fn expected_qd_trace() -> Vec<ScaleEvent> {
        vec![
            ScaleEvent {
                completions: 0,
                fleet: 1,
                outstanding: 10,
                decision: ScaleDecision::Grow(1),
            },
            ScaleEvent {
                completions: 2,
                fleet: 2,
                outstanding: 8,
                decision: ScaleDecision::Grow(1),
            },
            ScaleEvent {
                completions: 8,
                fleet: 3,
                outstanding: 2,
                decision: ScaleDecision::Shrink(1),
            },
            ScaleEvent {
                completions: 10,
                fleet: 2,
                outstanding: 0,
                decision: ScaleDecision::Shrink(1),
            },
        ]
    }

    fn sorted_ints(report: &RunReport) -> Vec<i64> {
        let mut got: Vec<i64> = report
            .outputs
            .last()
            .unwrap()
            .tuples
            .iter()
            .map(|row| match row[0] {
                Value::Int(i) => i,
                _ => panic!("unexpected value"),
            })
            .collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn elastic_fleet_grows_and_retires() {
        let cfg = flat_cfg(25).with_scheduler(qd_factory(3));
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&flat_def(25), test_input(10), Arc::new(FileStore::new()), prov, &cfg)
                .expect("elastic run");
        assert_eq!(report.finished, 10);
        assert_eq!(report.failed_attempts, 0, "drain-then-retire loses no work");
        assert_eq!(report.blacklisted, 0);
        assert_eq!(report.peak_workers, 3, "the policy grew to its cap");
        assert_eq!(report.scale_events, expected_qd_trace());
        assert_eq!(sorted_ints(&report), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_killed_during_scale_up_is_reassigned() {
        // launch-sequence 1 is the first *scaled-up* worker: it dies the
        // moment it receives its first activation, mid-growth
        let cfg = RunConfig {
            kill_plan: Some(KillPlan { worker: 1, after_runs: 1 }),
            ..flat_cfg(25).with_scheduler(qd_factory(3))
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_dist(
            &flat_def(25),
            test_input(10),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .expect("run completes despite losing a scaled-up worker");
        assert_eq!(report.finished, 10);
        assert_eq!(report.failed_attempts, 1, "exactly the activation lost with the worker");
        assert_eq!(report.blacklisted, 0);
        assert!(report.peak_workers <= 3);
        assert_eq!(sorted_ints(&report), (0..10).collect::<Vec<_>>());
        let failed = prov
            .query_rows("SELECT taskid FROM hactivation WHERE status = 'FAILED'", &[])
            .unwrap()
            .rows
            .len();
        assert_eq!(failed, 1);
    }

    #[test]
    fn autoscaling_preserves_canonical_provenance() {
        let fixed = RunConfig { max_in_flight: 1, ..dist_cfg(1) };
        let (freport, fprov, _) = run(&fixed);

        let elastic = fixed.clone().with_scheduler(qd_factory(3));
        let (ereport, eprov, _) = run(&elastic);
        assert_eq!(ereport.finished, freport.finished);
        assert!(!ereport.scale_events.is_empty(), "the policy must actually scale");
        assert_eq!(
            export_provn_canonical(&eprov),
            export_provn_canonical(&fprov),
            "fixed and autoscaled canonical PROV-N must be byte-identical"
        );
    }

    // ------------------------------------------- wire-protocol hardening

    #[test]
    fn oversized_result_degrades_to_failed_attempt() {
        // tuple 1 produces a >64 MiB artifact: its Done frame is refused
        // before a byte hits the wire, the worker degrades to a Failed
        // outcome, and with a zero retry budget the attempt lands as a
        // FAILED row — never a worker loss or a blacklist
        let def = WorkflowDef {
            tag: "big-test".into(),
            description: "oversized result drill".into(),
            expdir: "/exp/big".into(),
            activities: vec![Activity::map(
                "big",
                &["x"],
                Arc::new(|t, ctx| {
                    for row in t {
                        if row[0] == Value::Int(1) {
                            ctx.write_file("huge.bin", "x".repeat(65 << 20));
                        }
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let resolver_def = def.clone();
        let tel = Telemetry::attached();
        let cfg = RunConfig {
            resolver: Some(Arc::new(move |spec| {
                (spec == "big-test").then(|| resolver_def.clone())
            })),
            max_in_flight: 1,
            ..RunConfig::new()
                .with_workers(1)
                .with_spec("big-test")
                .with_max_retries(0)
                .with_telemetry(tel)
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&def, test_input(3), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .expect("run survives the oversized frame");
        assert_eq!(report.finished, 2);
        assert_eq!(report.failed_attempts, 1);
        assert_eq!(report.blacklisted, 0, "both peers stayed alive: no loss, no poison");
        let snap = report.metrics.expect("telemetry attached");
        assert_eq!(snap.counter("proto.oversized_done"), Some(1));
    }

    #[test]
    fn master_loop_does_not_busy_spin() {
        // ~0.7 s of real waiting on slow activations: an event-driven
        // master wakes on its 50 ms tick plus one wakeup per frame (tens
        // of iterations); a busy-spinning one would log thousands
        let tel = Telemetry::attached();
        let cfg = RunConfig {
            resolver: Some(resolver(300)),
            max_in_flight: 1,
            ..RunConfig::new().with_workers(1).with_spec("dist-test").with_telemetry(tel)
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report = run_dist(
            &test_def(300),
            test_input(2),
            Arc::new(FileStore::new()),
            Arc::clone(&prov),
            &cfg,
        )
        .expect("slow run");
        assert_eq!(report.finished, 5); // 2 stage + 2 score + 1 reduce
        let snap = report.metrics.expect("telemetry attached");
        // every turn of the master's loop is timed into a `serve.turn.*`
        let turn = |h: &&telemetry::HistogramStats| h.name.starts_with("serve.turn.");
        let wakeups: u64 = snap.histograms.iter().filter(turn).map(|h| h.count).sum();
        assert!(wakeups > 0);
        assert!(wakeups < 200, "master loop spun {wakeups} times for a ~0.7 s run");
    }

    #[test]
    fn dist_runs_resume_from_prior_dist_runs() {
        let prov = Arc::new(ProvenanceStore::new());
        let files = Arc::new(FileStore::new());
        let cfg = dist_cfg(2);
        let first =
            run_dist(&test_def(0), test_input(4), Arc::clone(&files), Arc::clone(&prov), &cfg)
                .expect("first run");
        assert_eq!(first.finished, 9);

        let resumed = run_dist(
            &test_def(0),
            test_input(4),
            Arc::clone(&files),
            Arc::clone(&prov),
            &cfg.clone().with_resume_from(first.workflow),
        )
        .expect("resumed run");
        assert_eq!(resumed.finished, 0, "nothing re-executes");
        assert_eq!(resumed.resumed, first.finished);
        assert_eq!(
            resumed.outputs.last().unwrap().tuples,
            vec![vec![Value::Int(18)]],
            "resumed outputs reconstruct from provenance"
        );
    }

    #[test]
    fn a_store_fault_in_the_committer_kills_the_run_instead_of_waiting_for_heartbeats() {
        use provenance::durable::io::{FaultEnv, FaultPlan, MemEnv};

        // opening the store is append 1; the committer registers the
        // workflow and its three activities in 2–5, then writes what the
        // connections' readers settled
        let env = MemEnv::new();
        let plan = Arc::new(FaultPlan::panic_after(7));
        let fault = FaultEnv::new(Box::new(env.clone()), Arc::clone(&plan));
        let prov =
            Arc::new(ProvenanceStore::open_env(Box::new(fault), Default::default()).unwrap());
        // a silent worker would only be noticed long after the watchdog
        let cfg = RunConfig { heartbeat_timeout: Duration::from_secs(30), ..dist_cfg(2) };
        let (done_tx, done_rx) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let files = Arc::new(FileStore::new());
            let report = run_dist(&test_def(0), test_input(8), files, prov, &cfg);
            let _ = done_tx.send(report.is_ok());
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
            other => panic!("run_dist must die of the store fault, got {other:?}"),
        }
        assert!(run.join().is_err(), "the fault re-raised on the run's thread");
        assert!(plan.appends_seen() >= 7, "the fault fired");
        // what a restarted process recovers holds no poisoned input
        let recovered = ProvenanceStore::open_env(Box::new(env), Default::default()).unwrap();
        let blacklisted = recovered
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'BLACKLISTED'", &[])
            .unwrap();
        assert_eq!(blacklisted.cell(0, 0), &Value::Int(0));
    }

    /// A worker command that cannot be started fails the run with an
    /// error: no panic, and no wait for a worker that never comes.
    #[test]
    fn a_worker_command_that_cannot_start_is_an_error() {
        let cfg = RunConfig::new()
            .with_worker_command("scidock-worker-that-does-not-exist", Vec::new())
            .with_spec("dist-test");
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            let files = Arc::new(FileStore::new());
            let report = run_dist(&test_def(0), test_input(2), files, prov, &cfg);
            let _ = done_tx.send(report.map(|r| r.finished));
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(CumulusError::Io(msg))) => assert!(msg.contains("spawning worker 0"), "{msg}"),
            other => panic!("run_dist must return the spawn error, got {other:?}"),
        }
    }

    /// Only `/campaigns` shows a campaign's p95: without an endpoint neither
    /// a traced local run nor a traced `run_dist` run sorts its latencies.
    #[test]
    fn no_p95_sort_without_an_endpoint() {
        let ltel = Telemetry::attached();
        let local = RunConfig::new().with_workers(2).with_telemetry(ltel.clone());
        assert_eq!(run_local(local, &Arc::new(ProvenanceStore::new())).finished, 9);
        let dtel = Telemetry::attached();
        assert_eq!(run(&dist_cfg(2).with_telemetry(dtel.clone())).0.finished, 9);
        for tel in [ltel, dtel] {
            let snap = tel.snapshot().expect("attached");
            assert_eq!(snap.counter("campaign.p95_sorts").unwrap_or(0), 0);
            assert_eq!(snap.counter("campaign.finished"), Some(1), "the run was a campaign");
        }
    }

    #[test]
    fn a_version_1_worker_fails_the_handshake_with_a_protocol_error() {
        use std::io::Write;

        let cfg = dist_cfg(1);
        let files = Arc::new(FileStore::new());
        let (tx, _events) = mpsc::channel::<PortEvent>();
        let tel = Telemetry::disabled();
        let mut port = SdwPort::connect(&cfg, &files, &tel, &tel, tx).expect("one worker joins");
        // an SDW1 worker's Ready: tag 0, magic "SDW1", pid, clock
        let mut body = vec![0u8];
        body.extend_from_slice(&0x5344_5731u32.to_le_bytes());
        body.extend_from_slice(&[0; 12]);
        let mut stranger = TcpStream::connect(&port.addr).unwrap();
        stranger.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        stranger.write_all(&body).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            match port.accept() {
                Err(e) => break e,
                Ok(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Ok(_) => panic!("the stranger was never refused"),
            }
        };
        match err {
            CumulusError::Protocol(msg) => {
                assert!(msg.contains("the peer speaks SDW1, this end speaks SDW2"), "{msg}")
            }
            other => panic!("not a protocol error: {other}"),
        }
        assert_eq!(port.conns.len(), 1, "the stranger never joined");
    }

    // ------------------------------------------- observability plane

    use crate::obs::http_get;

    #[test]
    fn live_endpoint_streams_metrics_health_and_events_mid_run() {
        let events = EventLog::new();
        let bound = BoundAddr::new();
        let cfg = RunConfig {
            heartbeat: Duration::from_millis(15),
            resolver: Some(resolver(80)),
            max_in_flight: 1,
            metrics_bound: Some(bound.clone()),
            ..RunConfig::new()
                .with_workers(2)
                .with_spec("dist-test")
                .with_metrics_addr("127.0.0.1:0")
                .with_events(events.clone())
        };
        let handle = std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            run_dist(&test_def(80), test_input(12), Arc::new(FileStore::new()), prov, &cfg)
                .expect("observed run")
        });
        let addr = bound.wait(Duration::from_secs(10)).expect("endpoint must come up");
        let get = |path: &str| {
            http_get(addr, path, Duration::from_secs(2)).expect("endpoint reachable mid-run")
        };

        // two mid-run scrapes of valid Prometheus text, with the merged
        // worker activation counter strictly increasing between them. The
        // first scrape waits for the first streamed Stats frame — with 25
        // activations at ≥80 ms each over 2 serialized workers, that is
        // early in a >1 s run, so everything up to the second scrape
        // happens safely mid-run.
        let finished_total = |body: &str| -> Option<f64> {
            let samples = telemetry::prom::parse(body)
                .unwrap_or_else(|off| panic!("exposition must parse, bad line {off}:\n{body}"));
            samples.into_iter().find(|s| s.name == "scidock_worker_finished_total").map(|s| s.value)
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let first = loop {
            assert!(Instant::now() < deadline, "no Stats frame ever reached /metrics");
            let (status, body) = get("/metrics");
            assert_eq!(status, 200);
            match finished_total(&body) {
                Some(v) if v > 0.0 => break v,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };

        // the other exposition formats hold up mid-run
        let (status, body) = get("/snapshot.json");
        assert_eq!(status, 200);
        telemetry::json::validate(&body)
            .unwrap_or_else(|off| panic!("invalid snapshot JSON at byte {off}"));
        let (status, body) = get("/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"phase\":\"running\""), "mid-run phase: {body}");
        let (status, body) = get("/events");
        assert_eq!(status, 200);
        for line in body.lines() {
            telemetry::json::validate(line)
                .unwrap_or_else(|off| panic!("invalid event JSON at byte {off}: {line}"));
        }

        let second = loop {
            assert!(
                Instant::now() < deadline,
                "activation counter never increased past {first} between scrapes"
            );
            let (status, body) = get("/metrics");
            assert_eq!(status, 200);
            match finished_total(&body) {
                Some(v) if v > first => break v,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        assert!(second > first);

        let report = handle.join().expect("run thread");
        assert_eq!(report.finished, 25); // 12 stage + 12 score + 1 reduce
        let evs = events.events();
        assert_eq!(evs.first().map(|e| e.kind.as_str()), Some("campaign_submitted"));
        assert_eq!(evs.last().map(|e| e.kind.as_str()), Some("campaign_finished"));
        assert_eq!(evs.iter().filter(|e| e.kind == "activation_finished").count(), 25);
    }

    #[test]
    fn healthz_reports_a_killed_worker_dead_mid_run() {
        let bound = BoundAddr::new();
        let cfg = RunConfig {
            heartbeat: Duration::from_millis(15),
            resolver: Some(resolver(100)),
            max_in_flight: 1,
            metrics_bound: Some(bound.clone()),
            // worker 0 dies on its first activation, early in the run
            kill_plan: Some(KillPlan { worker: 0, after_runs: 1 }),
            ..RunConfig::new()
                .with_workers(2)
                .with_spec("dist-test")
                .with_metrics_addr("127.0.0.1:0")
        };
        let handle = std::thread::spawn(move || {
            let prov = Arc::new(ProvenanceStore::new());
            run_dist(&test_def(100), test_input(8), Arc::new(FileStore::new()), prov, &cfg)
                .expect("run survives the kill")
        });
        let addr = bound.wait(Duration::from_secs(10)).expect("endpoint must come up");
        // the master sees the socket drop the moment the worker dies; the
        // health view must flip alive=false while the run is still going
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut saw_dead_mid_run = false;
        while Instant::now() < deadline && !saw_dead_mid_run {
            let (status, body) =
                http_get(addr, "/healthz", Duration::from_secs(2)).expect("healthz reachable");
            assert_eq!(status, 200);
            saw_dead_mid_run = body.contains("\"alive\":false");
            if !saw_dead_mid_run {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let report = handle.join().expect("run thread");
        assert!(saw_dead_mid_run, "/healthz never reported the killed worker dead mid-run");
        assert_eq!(report.finished, 17); // 8 stage + 8 score + 1 reduce
    }

    #[test]
    fn straggler_is_flagged_before_its_activation_completes() {
        // tuple 0 runs ~30× longer than its peers; with a 150 ms floor and
        // a 1× p95 factor the sweep must flag it while it is in flight
        let def = WorkflowDef {
            tag: "strag-test".into(),
            description: "straggler drill".into(),
            expdir: "/exp/strag".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(|t, _| {
                    for row in t {
                        let ms = if row[0] == Value::Int(0) { 1200 } else { 40 };
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    Ok(t.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let resolver_def = def.clone();
        let events = EventLog::new();
        let tel = Telemetry::attached();
        let cfg = RunConfig {
            heartbeat: Duration::from_millis(15),
            straggler_factor: 1.0,
            straggler_min_ms: 150,
            resolver: Some(Arc::new(move |spec| {
                (spec == "strag-test").then(|| resolver_def.clone())
            })),
            max_in_flight: 1,
            ..RunConfig::new()
                .with_workers(2)
                .with_spec("strag-test")
                .with_telemetry(tel)
                .with_events(events.clone())
        };
        let prov = Arc::new(ProvenanceStore::new());
        let report =
            run_dist(&def, test_input(6), Arc::new(FileStore::new()), Arc::clone(&prov), &cfg)
                .expect("straggler run completes");
        assert_eq!(report.finished, 6, "a straggler is observed, never killed");

        let evs = events.events();
        let strag = evs
            .iter()
            .find(|e| e.kind == "straggler")
            .expect("the slow activation must be flagged");
        let key = strag
            .fields
            .iter()
            .find(|(k, _)| k == "key")
            .map(|(_, v)| v.clone())
            .expect("straggler event names its activation");
        assert_eq!(key, "0", "the slow tuple is the straggler");
        let finished_seq = evs
            .iter()
            .find(|e| {
                e.kind == "activation_finished"
                    && e.fields.iter().any(|(k, v)| k == "key" && v == &key)
            })
            .map(|e| e.seq)
            .expect("the straggler still finishes");
        assert!(
            strag.seq < finished_seq,
            "straggler must be flagged before its activation completes \
             (straggler seq {}, finished seq {finished_seq})",
            strag.seq
        );
        let snap = report.metrics.expect("telemetry attached");
        assert!(snap.counter("dist.stragglers").unwrap_or(0) >= 1);
    }

    #[test]
    fn observability_plane_never_perturbs_canonical_provenance() {
        let (plain_report, plain_prov, _) = run(&dist_cfg(2));

        let events = EventLog::new();
        let bound = BoundAddr::new();
        let observed = RunConfig {
            straggler_factor: 1.0,
            straggler_min_ms: 100,
            metrics_bound: Some(bound),
            ..dist_cfg(2).with_metrics_addr("127.0.0.1:0").with_events(events.clone())
        };
        let (obs_report, obs_prov, _) = run(&observed);

        assert_eq!(obs_report.finished, plain_report.finished);
        assert!(!events.is_empty(), "the observed run must actually emit events");
        assert_eq!(
            export_provn_canonical(&obs_prov),
            export_provn_canonical(&plain_prov),
            "canonical PROV-N must be byte-identical with the obs plane on or off"
        );
    }

    /// S3 guard: every metric name emitted by a fully-exercised run of all
    /// three backends must appear in `telemetry::registry` (and hence in the
    /// DESIGN.md §12 table) — a silent rename breaks dashboards scraping
    /// `/metrics`, so it must break this test first.
    #[test]
    fn every_emitted_metric_name_is_in_the_registry() {
        use telemetry::{registry, Telemetry};

        // distributed: turn timings, fleet size, worker.* counters,
        // activation histograms, heartbeat/straggler plumbing
        let dtel = Telemetry::attached();
        let cfg = RunConfig {
            straggler_factor: 1.0,
            straggler_min_ms: 1,
            heartbeat: Duration::from_millis(10),
            max_in_flight: 1,
            ..dist_cfg(2).with_telemetry(dtel)
        };
        let (report, _, _) = run(&cfg);
        let dsnap = report.metrics.expect("dist telemetry attached");
        assert!(!dsnap.counters.is_empty(), "dist run must emit counters");
        assert_eq!(registry::unregistered(&dsnap), Vec::<String>::new());

        // local: fleet size + activation histograms
        let ltel = Telemetry::attached();
        let lreport = run_local(
            RunConfig::new().with_workers(2).with_telemetry(ltel.clone()),
            &Arc::new(ProvenanceStore::new()),
        );
        assert_eq!(lreport.finished, 9);
        let lsnap = ltel.snapshot().expect("local telemetry attached");
        assert!(!lsnap.histograms.is_empty(), "local run must emit histograms");
        assert_eq!(registry::unregistered(&lsnap), Vec::<String>::new());

        // simulated: sim.* counters, vm acquire/release, ready-queue gauge
        let stel = Telemetry::attached();
        let tasks: Vec<crate::simbackend::SimTask> = (0..6)
            .map(|i| crate::simbackend::SimTask {
                activity_index: 0,
                pair_key: format!("pair{i}"),
                nominal_s: 1.0 + i as f64 * 0.1,
                in_bytes: 0,
                out_bytes: 0,
                deps: vec![],
                poison: false,
            })
            .collect();
        let scfg = crate::simbackend::SimConfig { seed: 11, telemetry: stel, ..Default::default() };
        let swf = crate::simbackend::SimWorkflow { tasks, ..Default::default() };
        let sreport = crate::simbackend::simulate_tasks(&swf, &scfg, None);
        let ssnap = sreport.metrics.expect("sim telemetry attached");
        assert!(ssnap.counter("sim.dispatched").unwrap_or(0) >= 6);
        assert_eq!(registry::unregistered(&ssnap), Vec::<String>::new());

        // served: campaign.* counters/gauges/histograms layered over the
        // local activation machinery, on a durable store reporting to the
        // same sink (provstore.*), as `scidockd --wal --metrics-addr` runs
        let vtel = Telemetry::attached();
        let durable = provenance::DurableOptions { telemetry: vtel.clone(), ..Default::default() };
        let vprov =
            ProvenanceStore::open_env(Box::new(provenance::durable::io::MemEnv::new()), durable)
                .expect("fresh env");
        let resolver: crate::serve::CampaignResolver = Arc::new(|spec: &str| {
            (spec == "ok").then(|| crate::backend::Workflow::new(test_def(0), test_input(4)))
        });
        let daemon = crate::serve::Daemon::start(
            RunConfig::new().with_workers(2).with_telemetry(vtel.clone()),
            resolver,
            Arc::new(vprov),
        )
        .expect("daemon starts");
        let mut client = crate::serve::ServeClient::connect(daemon.addr()).expect("connect");
        assert!(matches!(
            client.submit("t0", 0, "nope").expect("submit io"),
            crate::serve::SubmitOutcome::Rejected { .. }
        ));
        let crate::serve::SubmitOutcome::Accepted { id } =
            client.submit("t0", 0, "ok").expect("submit io")
        else {
            panic!("valid spec must be admitted");
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let st = client.status(id).expect("status io");
            if st.state == crate::serve::CampaignState::Finished {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "campaign stuck in {:?}", st.state);
            std::thread::sleep(Duration::from_millis(20));
        }
        // a few ticks with nothing to read: idle engine turns
        std::thread::sleep(crate::engine::TICK * 4);
        daemon.shutdown();
        let vsnap = vtel.snapshot().expect("serve telemetry attached");
        assert_eq!(vsnap.counter("campaign.finished"), Some(1));
        assert_eq!(vsnap.counter("campaign.rejected"), Some(1));
        let committed = ["provstore.commit_lag", "provstore.commit_records"];
        let turns = ["serve.turn.ask", "serve.turn.port", "serve.turn.recorded", "serve.turn.idle"];
        for name in ["provstore.lock_hold", "provstore.lock_wait", "provstore.group_commit"]
            .into_iter()
            .chain(committed)
            .chain(turns)
            .chain(["campaign.first_result", "campaign.resolve"])
        {
            assert!(vsnap.histograms.iter().any(|h| h.name == name), "{name} must be recorded");
        }
        assert_eq!(registry::unregistered(&vsnap), Vec::<String>::new());
    }
}
