//! `scidockd` — the always-on, multi-campaign docking service — and the one
//! run scope every run of this crate is a campaign of.
//!
//! This module is the paper's cloud-service endgame: a daemon that accepts
//! **campaign** submissions over TCP (the `SDC1` protocol), multiplexes many
//! campaigns concurrently over one shared elastic worker fleet, and
//! persists every campaign into one durable provenance store — each
//! campaign under its own `wkfid` namespace, so results are queryable
//! per-campaign *and* across campaigns with the same SQL surface the
//! one-shot backends expose.
//!
//! Its campaign directory is the crate's only run scope. A one-shot run —
//! [`crate::backend::LocalBackend`] over the thread port, [`crate::run_dist`]
//! over `SDW2` connections — is an in-process directory of its own: the
//! backend submits its one workflow directly (no `SDC1`, no resolver, and
//! with its `resume_from`), turns the directory on the calling thread until
//! that campaign is recorded, and reports the closed run. So a one-shot run
//! has the daemon's committer, events, `serve.turn.*` timings and
//! `/campaigns` row.
//!
//! Every scope starts from one [`RunConfig`], handed to the directory as it
//! is: its fleet, run and endpoint fields are read by all three entry
//! points, its admission fields by [`Daemon::start`] alone, its `SDW2` port
//! fields by `run_dist` alone. A scope has one event log — the caller's, a
//! fresh ring when it binds an endpoint, or none — which the endpoint, the
//! engine and every run share.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//!                              ┌── Status / Results ──▶ campaign table ◀── writes ──┐
//!   clients ──SDC1──▶ handler threads                                         ┌───────────┐
//!                              └── Submit / Cancel ───────── ask ───────────▶ │ directory │──▶ obs plane
//!   workers ◀──────────────── thread port: Run ─────────────────────────────── │ + engine  │    (/campaigns)
//!      └────────────────── Settled / Retired ────────────────────────────────▶ └───────────┘
//! ```
//!
//! * **Engine thread** — turns the directory: admission control and the
//!   record of every campaign submitted, on top of the crate's one engine
//!   (the module `engine`), which holds the *live* campaigns' dispatchers
//!   and the worker table. All scheduling decisions (fair-share pick,
//!   admission, elastic scale) happen here, serially, so there are no
//!   cross-campaign races to reason about. A campaign that
//!   finishes or is cancelled leaves the engine; the campaign table keeps
//!   its final counts and results. Only `Submit` and `Cancel` wake it.
//! * **Campaign table** — each campaign's tenant, state, `done`/`total` and
//!   outputs, as clients read them. The engine thread alone writes it: at
//!   every state change, and once per turn for the live runs' progress.
//!   Connection threads answer `Status` and `Results` from it, so a poll
//!   costs the engine nothing and never waits behind a turn. When the
//!   engine thread exits, by shutdown or by unwinding, it closes the table,
//!   and every later read answers `Error "daemon is shutting down"`.
//! * **Worker threads** — the engine's thread port, the one the local
//!   backend runs on too: one slot each; they run every attempt through the
//!   *same* activation lifecycle on their own thread, which is why a
//!   campaign's canonical PROV-N export is byte-identical to a one-shot run
//!   of the same workflow. A panic that escapes the lifecycle there, or a
//!   store fault on the committer, takes the engine thread down with it:
//!   clients then read an `Error` from the closed table, not a campaign
//!   `Running` forever.
//! * **Fair share** — each free slot goes to the ready campaign whose
//!   tenant currently holds the fewest slots (ties: higher priority, then
//!   lower campaign id). A heavy tenant with ten campaigns cannot starve a
//!   light tenant with one.
//! * **Admission control** — a bounded pending queue and a per-tenant quota
//!   on live campaigns. Over either bound the daemon answers `Reject` with a
//!   retry-after hint ([`SubmitOutcome::Rejected`]) instead of queueing
//!   unboundedly: backpressure is explicit and immediate.
//! * **Elastic fleet** — the same [`Scheduler`](crate::fleet::Scheduler)
//!   machinery the distributed backend and the simulator use, fed a
//!   [`FleetSnapshot`](crate::fleet::FleetSnapshot) aggregated across live
//!   campaigns; `Grow` spawns worker threads, `Shrink` drains them.
//! * **One committer** — every campaign's rows reach the shared store
//!   through the daemon's provenance committer (module `commit`), which on
//!   the steering tick also publishes in-flight activations of *every*
//!   campaign as `RUNNING` rows for the paper's §V.C runtime queries. A
//!   campaign turns `Finished` once its rows are durable.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cloudsim::FailureModel;
use parking_lot::Mutex;
use provenance::{ProvenanceStore, WorkflowId};
use telemetry::{Histogram, MetricsSnapshot, Telemetry};

use crate::algebra::{Relation, Tuple};
use crate::backend::{RunReport, Workflow};
use crate::commit::Committer;
use crate::distbackend::worker::WorkflowResolver;
use crate::distbackend::KillPlan;
use crate::engine::{Engine, EngineCfg, PortEvent, Sinks, WorkerPort, TICK};
use crate::error::CumulusError;
use crate::fleet::SchedulerFactory;
use crate::lifecycle::{ActOutcome, ActivityCtx, RunCtx};
use crate::obs::{BoundAddr, CampaignRow, EventLog, HealthView, ObsServer, ObsState, Severity};
use crate::threadport::ThreadPort;

pub(crate) mod proto;

pub use proto::CampaignState;

/// Resolves a submitted spec string (e.g. `"scidock:ad4:2x2"`) to a
/// runnable workflow. The daemon owns the resolver so clients submit
/// *names*, not code — the service model of the paper's virtual
/// laboratory.
pub type CampaignResolver = Arc<dyn Fn(&str) -> Option<Workflow> + Send + Sync>;

/// The one run configuration: what every run scope is started with —
/// `scidockd`'s [`Daemon::start`], a [`LocalBackend`](crate::LocalBackend)
/// run and a [`run_dist`](crate::run_dist) run. Each field says which entry
/// point reads it; the others ignore it.
///
/// One fleet rule holds for all three: the initial fleet is `workers`
/// clamped into `[min_workers, max_workers]` (and at least one), and only a
/// `scheduler` moves it within those bounds; without one the fleet is fixed.
///
/// Set it through its fields: `RunConfig { workers: 4, ..RunConfig::default() }`,
/// or assign them. Each bound holds where the engine reads it, however the
/// field was set. The default: 2 workers on a fixed fleet, no failure
/// injection, telemetry disabled, no endpoint; 4 active campaigns, 16
/// pending, a tenant quota of 8; 4 activations in flight per `SDW2` worker.
#[derive(Clone)]
pub struct RunConfig {
    /// Initial worker fleet: threads of this process (one activation slot
    /// each) for the daemon and a local run, worker processes for
    /// `run_dist`. Every entry point.
    pub workers: usize,
    /// Elastic floor: `Shrink` never drains below this many workers, and
    /// never below one. Every entry point.
    pub min_workers: usize,
    /// Elastic ceiling: `Grow` never provisions above this many workers, or
    /// above the floor when it is lower. Every entry point.
    pub max_workers: usize,
    /// Elastic fleet policy (`None`: a fixed fleet of the initial size).
    /// Every entry point.
    pub scheduler: Option<SchedulerFactory>,
    /// Failure injection rolled for every activation (fates roll in this
    /// process, so injected failures are schedule-independent). Every entry
    /// point.
    pub failures: FailureModel,
    /// Re-executions of a failed activation before it is dropped. Every
    /// entry point.
    pub max_retries: u32,
    /// Activations whose `(activity tag, pair key)` finished in this prior
    /// execution are not re-executed; their recorded outputs are reused
    /// (SciCumulus' re-execution mechanism). The local backend and
    /// `run_dist`: a daemon campaign starts afresh.
    pub resume_from: Option<WorkflowId>,
    /// Telemetry sink shared by the engine and every run; `run_dist` merges
    /// its workers' spans into it on per-worker tracks. Every entry point.
    pub telemetry: Telemetry,
    /// Publish every attempt in flight as a `RUNNING` row on this tick, so
    /// steering queries see in-flight work (`None`: no such rows). Every
    /// entry point.
    pub steering_tick: Option<Duration>,
    /// Structured event log: campaign, activation and fleet events. Without
    /// one, a scope that binds an endpoint keeps a fresh ring for `/events`
    /// and any other emits nothing; a file log keeps a ring only for a
    /// scope's endpoint. Every entry point.
    pub events: Option<EventLog>,
    /// Serve `/metrics`, `/snapshot.json`, `/healthz`, `/events` and
    /// `/campaigns` over HTTP here for the scope's life (`"127.0.0.1:0"`
    /// binds an ephemeral port; `None`: no endpoint). Every entry point.
    pub metrics_addr: Option<String>,
    /// Resolves to the endpoint's actual bound address once it listens.
    /// Every entry point.
    pub metrics_bound: Option<BoundAddr>,
    /// Listen address of the `SDC1` endpoint (port 0 = ephemeral).
    /// `Daemon::start` only.
    pub addr: String,
    /// Campaigns running concurrently, at least one; the rest wait in the
    /// pending queue. `Daemon::start` only.
    pub max_active: usize,
    /// Bound on the pending queue: submissions over it are `Reject`ed with
    /// a retry-after hint rather than queued. `Daemon::start` only.
    pub max_pending: usize,
    /// Live (pending + running) campaigns per tenant, at least one;
    /// submissions over it are `Reject`ed. `Daemon::start` only.
    pub tenant_quota: usize,
    /// Retry-after hint carried in overload `Reject`s, milliseconds.
    /// `Daemon::start` only.
    pub retry_after_ms: u64,
    /// Worker executable and its leading arguments; the master appends
    /// `--connect <addr>` (`None`: in-process worker threads through
    /// `resolver`). `run_dist` only.
    pub worker_cmd: Option<(String, Vec<String>)>,
    /// Spec-name resolver of in-process workers (`worker_cmd: None`).
    /// `run_dist` only.
    pub resolver: Option<WorkflowResolver>,
    /// Workflow spec name shipped to workers in the `Hello` frame.
    /// `run_dist` only.
    pub spec: String,
    /// Activations outstanding per worker (the backpressure bound).
    /// `run_dist` only.
    pub max_in_flight: usize,
    /// Heartbeat interval asked of workers. `run_dist` only.
    pub heartbeat: Duration,
    /// A worker silent for longer is declared lost and its activations
    /// reassigned. `run_dist` only.
    pub heartbeat_timeout: Duration,
    /// An activation running longer wedges its worker, which is then lost
    /// (`None`: no hang detector). `run_dist` only.
    pub activation_timeout: Option<Duration>,
    /// Worker losses an activation survives before its input is
    /// `BLACKLISTED` as poison. `run_dist` only.
    pub reassign_budget: u32,
    /// Fault drill: sever a worker upon its Nth `Run` frame. `run_dist` only.
    pub kill_plan: Option<KillPlan>,
    /// Flag an in-flight activation as a straggler once it runs longer than
    /// this multiple of its activity's rolling p95… `run_dist` only.
    pub straggler_factor: f64,
    /// …and longer than this many milliseconds. `run_dist` only.
    pub straggler_min_ms: u64,
    /// In-process worker launch that never heartbeats, to drill the
    /// liveness timeout. A test build's only: other crates set every other
    /// field with struct-update syntax, which a private field would refuse.
    #[cfg(test)]
    pub(crate) mute_heartbeat: Option<usize>,
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // the resolver is a closure: only whether there is one shows
        f.debug_struct("RunConfig")
            .field("workers", &(self.min_workers, self.workers, self.max_workers))
            .field("scheduler", &self.scheduler)
            .field("failures", &self.failures)
            .field("max_retries", &self.max_retries)
            .field("resume_from", &self.resume_from)
            .field("steering_tick", &self.steering_tick)
            .field("metrics_addr", &self.metrics_addr)
            .field("addr", &self.addr)
            .field("worker_cmd", &self.worker_cmd)
            .field("resolver", &self.resolver.is_some())
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            workers: 2,
            min_workers: 1,
            max_workers: usize::MAX,
            scheduler: None,
            failures: FailureModel::none(),
            max_retries: 3,
            resume_from: None,
            telemetry: Telemetry::disabled(),
            steering_tick: None,
            events: None,
            metrics_addr: None,
            metrics_bound: None,
            addr: "127.0.0.1:0".to_string(),
            max_active: 4,
            max_pending: 16,
            tenant_quota: 8,
            retry_after_ms: 250,
            worker_cmd: None,
            resolver: None,
            spec: String::new(),
            max_in_flight: 4,
            heartbeat: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(3),
            activation_timeout: None,
            reassign_budget: 2,
            kill_plan: None,
            straggler_factor: 4.0,
            straggler_min_ms: 30_000,
            #[cfg(test)]
            mute_heartbeat: None,
        }
    }
}

impl RunConfig {
    /// The fleet bounds the engine holds: `(floor, ceiling)`, a floor of at
    /// least one and a ceiling of at least the floor.
    pub fn worker_bounds(&self) -> (usize, usize) {
        let floor = self.min_workers.max(1);
        (floor, self.max_workers.max(floor))
    }

    /// The initial fleet: `workers` clamped into the
    /// [fleet bounds](RunConfig::worker_bounds).
    pub(crate) fn initial_workers(&self) -> usize {
        let (floor, ceiling) = self.worker_bounds();
        self.workers.clamp(floor, ceiling)
    }

    // `RunConfig::default()` under the name `benchmark/src`, its only caller, spells
    #[doc(hidden)]
    pub fn new() -> RunConfig {
        RunConfig::default()
    }

    // sets `workers`; `benchmark/src`, its only caller, still spells it
    #[doc(hidden)]
    pub fn with_workers(mut self, workers: usize) -> RunConfig {
        self.workers = workers;
        self
    }

    // `with_workers` under the name `benchmark/src`, its only caller, spells
    #[doc(hidden)]
    pub fn with_threads(self, threads: usize) -> RunConfig {
        self.with_workers(threads)
    }

    // sets `telemetry`; `benchmark/src`, its only caller, still spells it
    #[doc(hidden)]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> RunConfig {
        self.telemetry = telemetry;
        self
    }

    // sets `steering_tick`; `benchmark/src`, its only caller, still spells it
    #[doc(hidden)]
    pub fn with_steering_tick(mut self, tick: Duration) -> RunConfig {
        self.steering_tick = Some(tick);
        self
    }

    // sets `worker_cmd`; `benchmark/src`, its only caller, still spells it
    #[doc(hidden)]
    pub fn with_worker_command(
        mut self,
        program: impl Into<String>,
        args: Vec<String>,
    ) -> RunConfig {
        self.worker_cmd = Some((program.into(), args));
        self
    }

    // sets `spec`; `benchmark/src`, its only caller, still spells it
    #[doc(hidden)]
    pub fn with_spec(mut self, spec: impl Into<String>) -> RunConfig {
        self.spec = spec.into();
        self
    }
}

/// Outcome of a [`ServeClient::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted under this campaign id.
    Accepted {
        /// The campaign id to poll with.
        id: u64,
    },
    /// Refused by admission control.
    Rejected {
        /// Why (e.g. `"pending queue full"`, `"tenant quota exceeded"`).
        reason: String,
        /// Retry no sooner than this many milliseconds (0 = permanent).
        retry_after_ms: u64,
    },
}

/// A campaign's lifecycle state and progress, from [`ServeClient::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Completed activations.
    pub done: u64,
    /// Activations submitted to the dispatcher so far.
    pub total: u64,
}

/// A blocking `SDC1` client over one TCP connection.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connect to a daemon.
    pub fn connect(addr: SocketAddr) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Send `msg` and read the reply; an `Error` reply is an error.
    fn roundtrip(&mut self, msg: &proto::Msg) -> std::io::Result<proto::Msg> {
        proto::write_msg(&mut self.stream, msg)?;
        match proto::read_msg(&mut self.stream)? {
            proto::Msg::Error { msg } => Err(std::io::Error::other(msg)),
            reply => Ok(reply),
        }
    }

    /// Submit a campaign on behalf of `tenant` with `priority` (higher =
    /// sooner among equals).
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: u8,
        spec: &str,
    ) -> std::io::Result<SubmitOutcome> {
        match self.roundtrip(&proto::Msg::Submit {
            tenant: tenant.to_string(),
            priority,
            spec: spec.to_string(),
        })? {
            proto::Msg::Accept { id } => Ok(SubmitOutcome::Accepted { id }),
            proto::Msg::Reject { reason, retry_after_ms } => {
                Ok(SubmitOutcome::Rejected { reason, retry_after_ms })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Poll a campaign's state and progress, as of the engine's last turn:
    /// the daemon answers from its campaign table without waking the engine.
    pub fn status(&mut self, id: u64) -> std::io::Result<CampaignStatus> {
        match self.roundtrip(&proto::Msg::Status { id })? {
            proto::Msg::StatusReply { id, tenant, state, done, total } => {
                Ok(CampaignStatus { id, tenant, state, done, total })
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the output relation of a finished campaign's *last* activity in
    /// definition order, and only that one: a campaign whose workflow has
    /// several sinks answers with the last sink's tuples alone (an adaptive
    /// SciDock spec without ranking: `vina`'s pairs, none of `autodock4`'s).
    /// Like [`ServeClient::status`], it is answered from the campaign table
    /// as of the engine's last turn, without waking the engine.
    pub fn results(&mut self, id: u64) -> std::io::Result<(Vec<String>, Vec<Tuple>)> {
        match self.roundtrip(&proto::Msg::Results { id })? {
            proto::Msg::ResultsReply { columns, tuples } => Ok((columns, tuples)),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancel a pending or running campaign; `Ok(true)` when it was still
    /// live.
    pub fn cancel(&mut self, id: u64) -> std::io::Result<bool> {
        match self.roundtrip(&proto::Msg::Cancel { id })? {
            proto::Msg::CancelReply { cancelled } => Ok(cancelled),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a read-only SQL query against the daemon's shared provenance
    /// store. Scope to one campaign with its `wkfid`, or span campaigns by
    /// omitting it — every campaign lives in the same store. At most
    /// 100 000 rows come back, fewer when the query's own `LIMIT` is lower;
    /// an `EXPLAIN ` prefix returns the plan instead.
    pub fn query(&mut self, sql: &str) -> std::io::Result<(Vec<String>, Vec<Tuple>)> {
        match self.roundtrip(&proto::Msg::Query { sql: sql.to_string() })? {
            proto::Msg::QueryReply { columns, rows } => Ok((columns, rows)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(msg: &proto::Msg) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("unexpected reply {msg:?}"))
}

// ------------------------------------------------------------------ daemon

/// The running daemon: `SDC1` listener, admission control and the campaign
/// directory over the one engine, whose workers are threads of this process.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine_tx: Sender<EngineMsg>,
    accept_thread: Option<JoinHandle<()>>,
    engine_thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Bind the `SDC1` endpoint, start the initial worker fleet, and serve
    /// campaigns resolved by `resolver`, persisting all provenance into
    /// `prov`. A fleet that cannot be started is an error here, before any
    /// client is answered.
    pub fn start(
        cfg: RunConfig,
        resolver: CampaignResolver,
        prov: Arc<ProvenanceStore>,
    ) -> std::io::Result<Daemon> {
        let sockaddr = cfg
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("unresolvable addr {}", cfg.addr)))?;
        let listener = TcpListener::bind(sockaddr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let directory = Directory::on_threads(cfg, resolver, Arc::clone(&prov), "scidockd-worker")
            .map_err(std::io::Error::other)?;
        let (tx, table) = (directory.tx.clone(), Arc::clone(&directory.table));
        let engine_thread = std::thread::Builder::new()
            .name("scidockd-engine".into())
            .spawn(move || directory.run())?;

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let tx2 = tx.clone();
        let accept_thread = std::thread::Builder::new()
            .name("scidockd-accept".into())
            .spawn(move || accept_loop(listener, tx2, table, prov, stop2))?;

        Ok(Daemon {
            addr,
            stop,
            engine_tx: tx,
            accept_thread: Some(accept_thread),
            engine_thread: Some(engine_thread),
        })
    }

    /// The address the `SDC1` listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the worker fleet, and join every thread.
    /// In-flight activations finish, and every row is durable when this
    /// returns; queued-but-undispatched work does not start.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = self.engine_tx.send(EngineMsg::Shutdown);
        // the directory stops the fleet, the committer and the endpoint as
        // the engine thread leaves it
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<EngineMsg>,
    table: Arc<Table>,
    prov: Arc<ProvenanceStore>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let table = Arc::clone(&table);
                let prov = Arc::clone(&prov);
                let stop = Arc::clone(&stop);
                let _ = std::thread::Builder::new()
                    .name("scidockd-conn".into())
                    .spawn(move || handle_client(stream, tx, table, prov, stop));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serve one client connection: forward `Submit` and `Cancel` to the engine
/// thread, answer `Status` and `Results` from the campaign table and
/// provenance queries from the shared store, both on this thread.
fn handle_client(
    mut stream: TcpStream,
    tx: Sender<EngineMsg>,
    table: Arc<Table>,
    prov: Arc<ProvenanceStore>,
    stop: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    loop {
        let msg = match proto::read_msg(&mut stream) {
            Ok(m) => m,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(_) => return, // client hung up or spoke garbage
        };
        let reply = match msg {
            proto::Msg::Query { sql } => match prov.query_limited(&sql, 100_000) {
                Ok(rs) => proto::Msg::QueryReply { columns: rs.columns, rows: rs.rows },
                Err(e) => error(e.to_string()),
            },
            proto::Msg::Status { id } => table.status(id),
            proto::Msg::Results { id } => table.results(id),
            proto::Msg::Submit { .. } | proto::Msg::Cancel { .. } => ask(&tx, msg),
            other => error(format!("client sent a server frame {other:?}")),
        };
        if proto::write_msg(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// What a request that reaches a daemon whose engine thread has exited reads.
const SHUTTING_DOWN: &str = "daemon is shutting down";

fn error(msg: impl Into<String>) -> proto::Msg {
    proto::Msg::Error { msg: msg.into() }
}

/// Round-trip one campaign request through the engine thread.
fn ask(tx: &Sender<EngineMsg>, request: proto::Msg) -> proto::Msg {
    let (reply_tx, reply_rx) = channel();
    let _ = tx.send(EngineMsg::Ask(request, reply_tx));
    match reply_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(reply) => reply,
        Err(RecvTimeoutError::Timeout) => error("daemon did not answer"),
        // the engine thread left its loop, before or after the request
        Err(RecvTimeoutError::Disconnected) => error(SHUTTING_DOWN),
    }
}

// ----------------------------------------------------------- campaign table

/// A campaign as clients read it.
struct Entry {
    tenant: Arc<str>,
    state: CampaignState,
    /// Activations done and submitted: the engine's counts as of its last
    /// turn while the campaign runs, frozen when it leaves the engine.
    done: u64,
    total: u64,
    /// Every activity's output relation, once `Finished`.
    outputs: Option<Arc<Vec<Relation>>>,
}

/// The campaign directory as clients read it: campaign `id` is entry
/// `id - 1`. The engine thread alone writes it; connection threads answer
/// `Status` and `Results` from it. `None` once the engine thread has
/// exited ([`Closer`]).
struct Table(Mutex<Option<Vec<Entry>>>);

impl Table {
    fn open() -> Table {
        Table(Mutex::new(Some(Vec::new())))
    }

    /// `f` over the entries: the engine thread's access, while it runs.
    fn entries<R>(&self, f: impl FnOnce(&mut Vec<Entry>) -> R) -> R {
        f(self.0.lock().as_mut().expect("the table is open while the engine thread runs"))
    }

    /// `f` over campaign `id`'s entry, or the error a client reads.
    fn read<R>(&self, id: u64, f: impl FnOnce(&Entry) -> R) -> Result<R, proto::Msg> {
        let table = self.0.lock();
        let entries = table.as_ref().ok_or_else(|| error(SHUTTING_DOWN))?;
        let index = usize::try_from(id).ok().and_then(|id| id.checked_sub(1));
        let entry = index.and_then(|i| entries.get(i));
        entry.map(f).ok_or_else(|| error(format!("unknown campaign {id}")))
    }

    fn status(&self, id: u64) -> proto::Msg {
        let reply = |e: &Entry| proto::Msg::StatusReply {
            id,
            tenant: e.tenant.to_string(),
            state: e.state,
            done: e.done,
            total: e.total,
        };
        self.read(id, reply).unwrap_or_else(|e| e)
    }

    /// The last output relation of a finished campaign: its outputs' `Arc`
    /// is cloned under the lock, the relation copied outside it.
    fn results(&self, id: u64) -> proto::Msg {
        let outputs = match self.read(id, |e| e.outputs.clone().ok_or(e.state)) {
            Ok(Ok(outputs)) => outputs,
            Ok(Err(state)) => return error(format!("campaign {id} is {}", state.as_str())),
            Err(reply) => return reply,
        };
        let last = outputs.last();
        proto::Msg::ResultsReply {
            columns: last.map(|r| r.columns.clone()).unwrap_or_default(),
            tuples: last.map(|r| r.tuples.clone()).unwrap_or_default(),
        }
    }
}

/// Closes the table when dropped. The engine thread holds one for as long
/// as it runs, so its exit — a shutdown, or unwinding from a panic — closes
/// the table, and no client reads a campaign `Running` forever.
struct Closer(Arc<Table>);

impl Drop for Closer {
    fn drop(&mut self) {
        *self.0 .0.lock() = None;
    }
}

// ------------------------------------------------------------ engine thread

/// What the directory's loop wakes for.
pub(crate) enum EngineMsg {
    /// A client's `Submit` or `Cancel`, and where the answer goes.
    Ask(proto::Msg, Sender<proto::Msg>),
    Port(PortEvent),
    /// A campaign closed and its rows are durable: its id, and its outputs
    /// unless it was cancelled.
    Recorded(u64, Option<Vec<Relation>>),
    Shutdown,
}

impl From<PortEvent> for EngineMsg {
    fn from(ev: PortEvent) -> EngineMsg {
        EngineMsg::Port(ev)
    }
}

// --------------------------------------------------------------- directory

/// The directory's side of one campaign; what clients read of it is its
/// [`Entry`] in the table.
struct Campaign {
    tenant: Arc<str>,
    priority: u8,
    /// Resolved workflow, consumed at start time.
    wf: Option<Workflow>,
    /// Activations this prior execution finished are not re-executed.
    resume_from: Option<WorkflowId>,
    /// Its provenance id, once started.
    wkf: Option<WorkflowId>,
    submitted_at: Instant,
    saw_first_result: bool,
    /// Frozen when the campaign leaves the engine: its counts, and its p95
    /// when an endpoint shows it.
    tally: ActOutcome,
    p95_ms: f64,
}

/// What wakes an engine turn, as the `serve.turn.*` histogram its time goes
/// to: a client's `Submit`/`Cancel`, a worker port event, a committer
/// barrier, or the tick with nothing to read.
const TURNS: [&str; 4] =
    ["serve.turn.ask", "serve.turn.port", "serve.turn.recorded", "serve.turn.idle"];

/// The one run scope: admission control and the directory of every campaign
/// submitted, on top of the engine that runs the live ones, with the
/// committer, the observability endpoint and the event log they report to.
/// `scidockd` turns it on its engine thread ([`Directory::run`]); the local
/// backend and `run_dist` turn it on the calling thread for their one
/// campaign ([`Directory::run_one`]). Dropping it stops the fleet, then the
/// committer, then the endpoint.
pub(crate) struct Directory<P: WorkerPort> {
    cfg: RunConfig,
    resolver: CampaignResolver,
    prov: Arc<ProvenanceStore>,
    tel: Telemetry,
    epoch: Instant,
    commit: Arc<Committer>,
    /// The directory's own channel: the port, the committer's barriers and
    /// the daemon's connection threads send here.
    tx: Sender<EngineMsg>,
    rx: Receiver<EngineMsg>,
    obs: Option<ObsState>,
    /// Serves `obs` for as long as the directory lives.
    _server: Option<ObsServer>,
    /// Campaign ids count from 1, in submission order: campaign `id` is
    /// `campaigns[id - 1]` here and entry `id - 1` of `table`.
    campaigns: Vec<Campaign>,
    table: Arc<Table>,
    /// Live (pending or running) campaigns per tenant, moved at each
    /// transition, so the quota check does not walk the history.
    live: HashMap<Arc<str>, usize>,
    pending: VecDeque<u64>,
    pub(crate) engine: Engine<P>,
    /// A campaign changed state since `/campaigns` was last rebuilt.
    stale: bool,
    /// `campaign.active` / `campaign.queued` as last sampled.
    sampled: [Option<usize>; 2],
    /// The `TURNS` histograms and `campaign.resolve` (None: telemetry off).
    turn_hists: [Option<Arc<Histogram>>; 4],
    resolve_hist: Option<Arc<Histogram>>,
}

/// Campaign `id`'s index in the directory and the table.
fn at(id: u64) -> usize {
    id as usize - 1
}

impl<P: WorkerPort> Directory<P> {
    /// A directory with nothing submitted: its endpoint bound when `cfg`
    /// asks for one, its committer started, and its engine over the port
    /// `port` builds from the collector workers report into and the
    /// directory's channel. The owner supplies the engine's `fleet` settings
    /// and starts its initial workers.
    pub(crate) fn new(
        mut cfg: RunConfig,
        resolver: CampaignResolver,
        prov: Arc<ProvenanceStore>,
        fleet: EngineCfg,
        port: impl FnOnce(&Telemetry, Sender<EngineMsg>) -> Result<P, CumulusError>,
    ) -> Result<Directory<P>, CumulusError> {
        let epoch = Instant::now();
        let tel = cfg.telemetry.clone();
        let (tx, rx) = channel();
        // the endpoint serves the run's own collector when one is attached,
        // otherwise a private one; observation only reads engine state. The
        // scope has one event log, which the endpoint, the engine and every
        // run share: the caller's, with its ring on for the endpoint to
        // serve, or a fresh ring
        let (obs, server) = match cfg.metrics_addr.clone() {
            Some(addr) => {
                let obs_tel = if tel.is_enabled() { tel.clone() } else { Telemetry::attached() };
                let events = cfg.events.get_or_insert_with(EventLog::new);
                events.keep_ring();
                let obs = ObsState::new(obs_tel, events.clone());
                obs.set_health(HealthView { phase: "starting".into(), ..HealthView::default() });
                let server = ObsServer::start(&addr, obs.clone())
                    .map_err(|e| CumulusError::Io(format!("metrics listener on {addr}: {e}")))?;
                if let Some(bound) = &cfg.metrics_bound {
                    bound.set(server.addr());
                }
                (Some(obs), Some(server))
            }
            None => (None, None),
        };
        let commit =
            Committer::start(Arc::clone(&prov), epoch, cfg.steering_tick, &tel, tx.clone());
        let port = port(obs.as_ref().map_or(&tel, |o| &o.tel), tx.clone())?;
        let sinks = Sinks { tel: tel.clone(), events: cfg.events.clone(), epoch, obs: obs.clone() };
        let engine = Engine::new(port, fleet, sinks, cfg.scheduler.as_ref());
        Ok(Directory {
            resolver,
            prov,
            turn_hists: TURNS.map(|name| tel.histogram(name)),
            resolve_hist: tel.histogram("campaign.resolve"),
            cfg,
            tel,
            epoch,
            commit,
            tx,
            rx,
            obs,
            _server: server,
            campaigns: Vec::new(),
            table: Arc::new(Table::open()),
            live: HashMap::new(),
            pending: VecDeque::new(),
            engine,
            stale: true,
            sampled: [None; 2],
        })
    }

    /// `scidockd`'s engine thread: turn until the daemon shuts down.
    fn run(mut self) {
        let _closer = Closer(Arc::clone(&self.table));
        self.tel.name_current_track("scidockd-engine");
        loop {
            match self.rx.recv_timeout(TICK).ok() {
                Some(EngineMsg::Shutdown) => return,
                // the daemon outlives an engine error: the turn logged it
                // for the operator
                woke => {
                    let _ = self.turn(woke);
                }
            }
        }
    }

    /// A one-shot run: `wf` as the directory's one campaign, resuming from
    /// the config's `resume_from`, turned on the calling thread — its
    /// telemetry track named `track` — until the campaign is recorded. An
    /// engine error ends the run. The report's `metrics` are
    /// [`Directory::close`]'s.
    pub(crate) fn run_one(&mut self, wf: Workflow, track: &str) -> Result<RunReport, CumulusError> {
        self.tel.name_current_track(track);
        let id = self.enter(String::new(), 0, wf.def.tag.clone(), wf, self.cfg.resume_from);
        let mut woke = None;
        let outputs = loop {
            self.turn(woke)?;
            if let Some(outputs) = self.table.entries(|t| t[at(id)].outputs.take()) {
                break Arc::unwrap_or_clone(outputs);
            }
            woke = self.rx.recv_timeout(TICK).ok();
        };
        let c = &self.campaigns[at(id)];
        let t = &c.tally;
        Ok(RunReport {
            workflow: c.wkf.expect("a recorded campaign was started"),
            total_seconds: self.epoch.elapsed().as_secs_f64(),
            finished: t.finished,
            failed_attempts: t.failed_attempts,
            aborted: t.aborted,
            blacklisted: t.blacklisted,
            resumed: t.resumed,
            outputs,
            metrics: None,
            scale_events: self
                .engine
                .controller
                .as_ref()
                .map_or_else(Vec::new, |c| c.trace().to_vec()),
            peak_workers: self.engine.peak_workers,
        })
    }

    /// Drop the directory, then snapshot the telemetry: what the run's
    /// [`RunReport::metrics`] hold, with what the fleet reported as it
    /// stopped.
    pub(crate) fn close(self) -> Option<MetricsSnapshot> {
        let tel = self.tel.clone();
        drop(self);
        tel.snapshot()
    }

    /// One turn: act on what woke the loop (`None`: the tick), then start
    /// pending campaigns, pump the engine, publish progress and refresh
    /// `/campaigns`. The turn's time goes to the `TURNS` histogram of what
    /// woke it. An engine error is emitted as `engine_error` and returned.
    fn turn(&mut self, woke: Option<EngineMsg>) -> Result<(), CumulusError> {
        let start = Instant::now();
        // `kind` indexes `TURNS`
        let (kind, handled) = match woke {
            Some(EngineMsg::Ask(request, reply)) => {
                let _ = reply.send(self.answer(request));
                (0, Ok(()))
            }
            Some(EngineMsg::Port(ev)) => (1, self.engine.handle(ev)),
            Some(EngineMsg::Recorded(id, outputs)) => {
                self.recorded(id, outputs);
                (2, Ok(()))
            }
            // a shutdown is the loop's own to act on
            Some(EngineMsg::Shutdown) | None => (3, Ok(())),
        };
        self.start_pending();
        let result = handled.and(self.engine.pump());
        if let Err(e) = &result {
            self.engine.emit(Severity::Error, "engine_error", &[("error", e.to_string())]);
        }
        self.reap();
        if self.engine.tick() || self.stale {
            self.refresh_obs();
        }
        if let Some(h) = &self.turn_hists[kind] {
            h.record(start.elapsed().as_nanos() as u64);
        }
        result
    }

    /// Campaign `id` was `what`: count it and say so in the event log.
    fn transition(&mut self, severity: Severity, what: &str, id: u64, more: &[(&str, String)]) {
        self.stale = true;
        self.tel.count(&format!("campaign.{what}"), 1);
        let tenant = self.campaigns[at(id)].tenant.to_string();
        let mut fields = vec![("campaign", id.to_string()), ("tenant", tenant)];
        fields.extend_from_slice(more);
        self.engine.emit(severity, &format!("campaign_{what}"), &fields);
    }

    /// Set campaign `id`'s state in the table.
    fn set_state(&self, id: u64, state: CampaignState) {
        self.table.entries(|t| t[at(id)].state = state);
    }

    /// Campaign `id` is no longer live: its tenant's count drops.
    fn leave(&mut self, id: u64) {
        let tenant = &self.campaigns[at(id)].tenant;
        let n = self.live.get_mut(tenant).expect("a live campaign's tenant is counted");
        *n -= 1;
        if *n == 0 {
            self.live.remove(tenant);
        }
    }

    /// `Submit` and `Cancel`; the connection threads answer everything else.
    fn answer(&mut self, request: proto::Msg) -> proto::Msg {
        match request {
            proto::Msg::Submit { tenant, priority, spec } => self.admit(tenant, priority, spec),
            proto::Msg::Cancel { id } => match self.cancel(id) {
                Some(cancelled) => proto::Msg::CancelReply { cancelled },
                None => error(format!("unknown campaign {id}")),
            },
            other => error(format!("not a campaign request: {other:?}")),
        }
    }

    fn reject(&self, tenant: String, reason: String, retry_after_ms: u64) -> proto::Msg {
        self.tel.count("campaign.rejected", 1);
        let fields = [("tenant", tenant), ("reason", reason.clone())];
        self.engine.emit(Severity::Warn, "campaign_rejected", &fields);
        proto::Msg::Reject { reason, retry_after_ms }
    }

    /// Admission control: bounded pending queue, per-tenant quota, then
    /// spec resolution (timed into `campaign.resolve`). Rejections are
    /// explicit backpressure, never queued.
    fn admit(&mut self, tenant: String, priority: u8, spec: String) -> proto::Msg {
        let retry = self.cfg.retry_after_ms;
        if self.pending.len() >= self.cfg.max_pending {
            return self.reject(tenant, "pending queue full".into(), retry);
        }
        let quota = self.cfg.tenant_quota.max(1);
        if self.live.get(tenant.as_str()).copied().unwrap_or(0) >= quota {
            return self.reject(tenant, "tenant quota exceeded".into(), retry);
        }
        let start = Instant::now();
        let resolved = (self.resolver)(&spec);
        if let Some(h) = &self.resolve_hist {
            h.record(start.elapsed().as_nanos() as u64);
        }
        let Some(wf) = resolved else {
            return self.reject(tenant, "unknown spec".into(), 0);
        };
        if let Err(e) = wf.def.validate() {
            return self.reject(tenant, format!("invalid workflow: {e}"), 0);
        }
        proto::Msg::Accept { id: self.enter(tenant, priority, spec, wf, None) }
    }

    /// Take on `wf`, submitted as `spec`, as `tenant`'s next pending
    /// campaign; its id. Its activations resume from `resume_from`'s
    /// finished ones, an in-process submission's option.
    fn enter(
        &mut self,
        tenant: String,
        priority: u8,
        spec: String,
        wf: Workflow,
        resume_from: Option<WorkflowId>,
    ) -> u64 {
        let id = self.campaigns.len() as u64 + 1;
        let tenant: Arc<str> = tenant.into();
        let entry = Entry {
            tenant: Arc::clone(&tenant),
            state: CampaignState::Pending,
            done: 0,
            total: 0,
            outputs: None,
        };
        self.table.entries(|t| t.push(entry));
        *self.live.entry(Arc::clone(&tenant)).or_default() += 1;
        self.campaigns.push(Campaign {
            tenant,
            priority,
            wf: Some(wf),
            resume_from,
            wkf: None,
            submitted_at: Instant::now(),
            saw_first_result: false,
            tally: ActOutcome::default(),
            p95_ms: 0.0,
        });
        self.pending.push_back(id);
        let more = [("spec", spec), ("priority", priority.to_string())];
        self.transition(Severity::Info, "submitted", id, &more);
        id
    }

    /// Hand pending campaigns to the engine while concurrency slots are free.
    fn start_pending(&mut self) {
        while self.engine.runs.len() < self.cfg.max_active.max(1) {
            let Some(id) = self.pending.pop_front() else { return };
            let c = &mut self.campaigns[at(id)];
            let wf = c.wf.take().expect("pending campaign holds its workflow");
            // queued ahead of every record of the run: the engine thread
            // writes nothing to the store
            let def = Arc::new(wf.def);
            let (wkf, acts) = self.commit.register(&self.prov, &def);
            c.wkf = Some(wkf);
            // the activation lifecycle every backend shares, so the
            // campaign's provenance rows are shaped identically to a
            // one-shot run (the PROV-N parity test pins this)
            let run = Arc::new(RunCtx {
                wkf,
                files: Arc::clone(&wf.files),
                prov: Arc::clone(&self.prov),
                failures: self.cfg.failures,
                max_retries: self.cfg.max_retries,
                resume_from: c.resume_from,
                start_base: self.epoch,
                tel: self.tel.clone(),
                commit: Arc::clone(&self.commit),
                events: self.cfg.events.clone(),
            });
            let ctxs = ActivityCtx::build_all(&def, &run, &acts);
            self.engine.add_run(id, &c.tenant, c.priority, def, &wf.input, ctxs);
            self.set_state(id, CampaignState::Running);
            self.transition(Severity::Info, "started", id, &[("wkfid", wkf.0.to_string())]);
        }
    }

    /// Book what the engine's last turn did to the campaigns: publish the
    /// live runs' progress to the table, note a first result, and send each
    /// run that closed through the committer — it turns `Finished` (or
    /// `Cancelled`, when the client asked and the in-flight tail has
    /// drained) once the committer answers its barrier: the engine thread
    /// never waits on disk.
    fn reap(&mut self) {
        let closed = std::mem::take(&mut self.engine.closed);
        if self.engine.runs.is_empty() && closed.is_empty() {
            return;
        }
        self.table.entries(|t| {
            for run in self.engine.runs.iter().chain(&closed) {
                let e = &mut t[at(run.id)];
                (e.done, e.total) = (run.done, run.submitted());
                let c = &mut self.campaigns[at(run.id)];
                if !c.saw_first_result && run.tally.finished > 0 {
                    c.saw_first_result = true;
                    if let Some(h) = self.tel.histogram("campaign.first_result") {
                        h.record(c.submitted_at.elapsed().as_nanos() as u64);
                    }
                }
            }
        });
        for mut run in closed {
            let id = run.id;
            let c = &mut self.campaigns[at(id)];
            c.tally = std::mem::take(&mut run.tally);
            // only `/campaigns` shows a p95: without an endpoint, no sort
            c.p95_ms = self.obs.as_ref().map_or(0.0, |_| run.p95_ms(&self.tel));
            let outputs = (!run.cancelled).then(|| run.into_outputs());
            let tx = self.tx.clone();
            // a dead committer has sent the engine its panic already
            self.commit.barrier(move || {
                let _ = tx.send(EngineMsg::Recorded(id, outputs));
            });
        }
    }

    /// Campaign `id` closed and its rows are durable: `Finished` with its
    /// `outputs`, or `Cancelled` without.
    fn recorded(&mut self, id: u64, outputs: Option<Vec<Relation>>) {
        self.leave(id);
        let Some(outputs) = outputs else {
            self.set_state(id, CampaignState::Cancelled);
            return self.transition(Severity::Warn, "cancelled", id, &[]);
        };
        let done = self.table.entries(|t| {
            let e = &mut t[at(id)];
            (e.state, e.outputs) = (CampaignState::Finished, Some(Arc::new(outputs)));
            e.done
        });
        self.transition(Severity::Info, "finished", id, &[("activations", done.to_string())]);
    }

    /// `Some(true)` = was live and is now cancelled (or draining toward
    /// it); `Some(false)` = already terminal; `None` = unknown id.
    fn cancel(&mut self, id: u64) -> Option<bool> {
        let i = usize::try_from(id).ok()?.checked_sub(1)?;
        let state = self.table.entries(|t| t.get(i).map(|e| e.state))?;
        Some(match state {
            CampaignState::Pending => {
                self.set_state(id, CampaignState::Cancelled);
                self.campaigns[i].wf = None;
                self.pending.retain(|&p| p != id);
                self.leave(id);
                self.transition(Severity::Warn, "cancelled", id, &[]);
                true
            }
            CampaignState::Running => self.engine.cancel(id),
            _ => false,
        })
    }

    /// Rebuild `/campaigns` and sample the campaign gauges: on the loop's
    /// tick and when a campaign changed state, not per engine message. A
    /// gauge is sampled only when its value changed (the collector keeps the
    /// last one).
    fn refresh_obs(&mut self) {
        self.stale = false;
        let now = [self.engine.runs.len(), self.pending.len()];
        for (i, name) in ["campaign.active", "campaign.queued"].into_iter().enumerate() {
            if self.sampled[i] != Some(now[i]) {
                self.sampled[i] = Some(now[i]);
                self.tel.gauge(name, now[i] as f64);
            }
        }
        let Some(obs) = &self.obs else { return };
        let mut rows: Vec<CampaignRow> = self.table.entries(|t| {
            let row = |(i, e): (usize, &Entry)| CampaignRow {
                id: i as u64 + 1,
                tenant: e.tenant.to_string(),
                state: e.state.as_str().to_string(),
                done: e.done,
                total: e.total,
                p95_ms: 0.0,
            };
            t.iter().enumerate().map(row).collect()
        });
        // outside the table's lock: a live campaign's p95 costs a sort; a
        // terminal one's was taken when it left the engine
        for row in &mut rows {
            row.p95_ms = match self.engine.run(row.id) {
                Some(r) => r.p95_ms(&self.tel),
                None => self.campaigns[at(row.id)].p95_ms,
            };
        }
        obs.set_campaigns(rows);
    }
}

impl Directory<ThreadPort<EngineMsg>> {
    /// A directory over threads of this process, named `<prefix>-<i>`, the
    /// engine of the daemon and of a local run: `cfg`'s initial fleet is
    /// started, within its bounds, and no worker is ever lost or silent.
    pub(crate) fn on_threads(
        cfg: RunConfig,
        resolver: CampaignResolver,
        prov: Arc<ProvenanceStore>,
        prefix: &'static str,
    ) -> Result<Self, CumulusError> {
        let (fleet, workers) = (EngineCfg::threads(&cfg), cfg.initial_workers());
        let tel = cfg.telemetry.clone();
        let port = |_: &Telemetry, tx| Ok(ThreadPort::new(tx, &tel, prefix));
        let mut dir = Directory::new(cfg, resolver, prov, fleet, port)?;
        dir.engine.launch(workers)?;
        Ok(dir)
    }
}

impl<P: WorkerPort> Drop for Directory<P> {
    /// Stop the fleet (running attempts finish and record themselves), then
    /// the committer; the endpoint goes with the fields.
    fn drop(&mut self) {
        self.engine.shutdown();
        self.commit.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Activity, WorkflowDef};
    use provenance::Value;

    /// One value of every `"key":number` in a Chrome-trace event.
    fn num(ev: &str, key: &str) -> f64 {
        let at = ev.find(key).unwrap_or_else(|| panic!("{key} in {ev}")) + key.len();
        let end = ev[at..].find([',', '}']).expect("number ends") + at;
        ev[at..end].parse().unwrap_or_else(|_| panic!("{key} of {ev}"))
    }

    /// Submit `spec` as tenant `t` and wait until it has finished.
    fn run_to_finish(client: &mut ServeClient, spec: &str) -> u64 {
        let SubmitOutcome::Accepted { id } = client.submit("t", 0, spec).expect("submit io") else {
            panic!("campaign must be admitted")
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while client.status(id).expect("status io").state != CampaignState::Finished {
            assert!(Instant::now() < deadline, "campaign never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        id
    }

    /// On the thread port `begin` → execute → `settle` run on the worker
    /// threads: every `activation` span — which encloses `settle` — is on a
    /// `scidockd-worker-*` track, none on the engine thread's, and two slow
    /// activations overlap in wall time.
    #[test]
    fn activations_begin_and_settle_on_worker_threads_and_overlap() {
        let resolver: CampaignResolver = Arc::new(|_| {
            let slow = Arc::new(|p: &[Tuple], _: &mut crate::workflow::ActivationCtx| {
                std::thread::sleep(Duration::from_millis(80));
                Ok(p.to_vec())
            });
            let def = WorkflowDef {
                tag: "slow".into(),
                description: "two slow activations".into(),
                expdir: "/exp/slow".into(),
                activities: vec![Activity::map("work", &["x"], slow)],
                deps: vec![vec![]],
            };
            let mut input = Relation::new(&["x"]);
            input.push(vec![Value::Int(0)]);
            input.push(vec![Value::Int(1)]);
            Some(Workflow::new(def, input))
        });
        let tel = Telemetry::attached();
        let daemon = Daemon::start(
            RunConfig { workers: 2, telemetry: tel.clone(), ..RunConfig::default() },
            resolver,
            Arc::new(ProvenanceStore::new()),
        )
        .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        run_to_finish(&mut client, "slow");
        daemon.shutdown();

        let trace = tel.export_chrome_trace().expect("attached");
        let events: Vec<&str> = trace.split("{\"ph\":").collect();
        let track_of = |name: &str| -> Option<u64> {
            let named = format!("\"args\":{{\"name\":\"{name}\"}}");
            events.iter().find(|e| e.contains(&named)).map(|e| num(e, "\"tid\":") as u64)
        };
        let workers = [track_of("scidockd-worker-0"), track_of("scidockd-worker-1")];
        let engine = track_of("scidockd-engine").expect("the engine thread names its track");
        let activations: Vec<(u64, f64, f64)> = events
            .iter()
            .filter(|e| e.starts_with("\"X\"") && e.contains("\"cat\":\"activation\""))
            .map(|e| (num(e, "\"tid\":") as u64, num(e, "\"ts\":"), num(e, "\"dur\":")))
            .collect();
        assert_eq!(activations.len(), 2, "{trace}");
        for (tid, _, _) in &activations {
            assert!(workers.contains(&Some(*tid)), "activation span on track {tid}: {trace}");
            assert_ne!(*tid, engine);
        }
        let (_, a_ts, a_dur) = activations[0];
        let (_, b_ts, b_dur) = activations[1];
        assert!(
            a_ts < b_ts + b_dur && b_ts < a_ts + a_dur,
            "two workers, two 80 ms activations: they run side by side, not in turn"
        );
    }

    /// One Map activity over `n` tuples, each sleeping `ms`.
    fn sleeper(n: i64, ms: u64) -> Workflow {
        let def = WorkflowDef {
            tag: "sleeper".into(),
            description: "one map".into(),
            expdir: "/exp/sleeper".into(),
            activities: vec![Activity::map(
                "work",
                &["x"],
                Arc::new(move |p: &[Tuple], _: &mut crate::workflow::ActivationCtx| {
                    std::thread::sleep(Duration::from_millis(ms));
                    Ok(p.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let mut input = Relation::new(&["x"]);
        for i in 0..n {
            input.push(vec![Value::Int(i)]);
        }
        Workflow::new(def, input)
    }

    /// Five workers asked for under a ceiling of three start three.
    #[test]
    fn the_initial_fleet_starts_within_the_worker_bounds() {
        let tel = Telemetry::attached();
        let cfg = RunConfig {
            workers: 5,
            min_workers: 1,
            max_workers: 3,
            telemetry: tel.clone(),
            ..RunConfig::default()
        };
        let resolver: CampaignResolver = Arc::new(|_| Some(sleeper(3, 0)));
        let daemon =
            Daemon::start(cfg, resolver, Arc::new(ProvenanceStore::new())).expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        run_to_finish(&mut client, "quick");
        let snap = tel.snapshot().expect("attached");
        daemon.shutdown();
        let fleet = snap.gauge("fleet.size").and_then(|g| g.samples.last()).map(|s| s.1);
        assert_eq!(fleet, Some(3.0));
    }

    /// What each entry point derives from one config: the thread port (a
    /// local run, the daemon) a fleet of `workers` clamped into the bounds
    /// and no liveness checks, the `SDW2` port (`run_dist`) the liveness
    /// settings of its port fields.
    #[test]
    fn every_entry_point_derives_its_settings_from_one_run_config() {
        let cfg = RunConfig { workers: 2, ..RunConfig::default() };
        let unbounded = EngineCfg {
            floor: 1,
            ceiling: usize::MAX,
            reassign_budget: 0,
            heartbeat_timeout: None,
            activation_timeout: None,
            straggler: None,
        };
        // local: a fixed fleet of two threads, never lost, never silent
        assert_eq!((cfg.initial_workers(), cfg.scheduler.is_none()), (2, true));
        assert_eq!(EngineCfg::threads(&cfg), unbounded);
        // dist: the port's liveness settings, 4 jobs in flight per worker
        let sdw = EngineCfg {
            reassign_budget: 2,
            heartbeat_timeout: Some(Duration::from_secs(3)),
            activation_timeout: None,
            straggler: Some((4.0, 30_000)),
            ..unbounded.clone()
        };
        assert_eq!(EngineCfg::sdw(&cfg), sdw);
        assert_eq!((cfg.heartbeat, cfg.max_in_flight), (Duration::from_millis(100), 4));
        // daemon: the configured bounds, and the initial fleet clamped into them
        let bounded = RunConfig { min_workers: 3, max_workers: 8, ..cfg };
        let fleet = EngineCfg::threads(&bounded);
        assert_eq!((fleet.floor, fleet.ceiling), (3, 8));
        assert_eq!(bounded.initial_workers(), 3);
        assert_eq!(RunConfig { workers: 9, ..bounded.clone() }.initial_workers(), 8);
        assert_eq!(RunConfig { workers: 0, ..RunConfig::default() }.initial_workers(), 1);
    }

    /// Fleet bounds set the wrong way round hold as the engine reads them: a
    /// ceiling below the floor is the floor, a floor of 0 is 1, and the
    /// initial fleet lies within them on both ports.
    #[test]
    fn the_fleet_bounds_hold_however_the_fields_are_set() {
        let inverted =
            RunConfig { workers: 2, min_workers: 3, max_workers: 1, ..RunConfig::default() };
        for fleet in [EngineCfg::threads(&inverted), EngineCfg::sdw(&inverted)] {
            assert_eq!((fleet.floor, fleet.ceiling), (3, 3));
        }
        assert_eq!(inverted.initial_workers(), 3);
        let zero = RunConfig { workers: 0, min_workers: 0, max_workers: 0, ..RunConfig::default() };
        let fleet = EngineCfg::threads(&zero);
        assert_eq!((fleet.floor, fleet.ceiling, zero.initial_workers()), (1, 1, 1));
    }

    /// With the engine thread held inside a second `Submit` (its resolver
    /// parks on a channel), another connection's `Status` and `Results` of a
    /// finished campaign still answer within 100 ms; released, the parked
    /// `Submit` is accepted.
    #[test]
    fn status_and_results_never_wait_for_the_engine() {
        let (entered_tx, entered_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let parked = Mutex::new((entered_tx, release_rx));
        let resolver: CampaignResolver = Arc::new(move |spec| {
            if spec == "park" {
                let parked = parked.lock();
                let _ = parked.0.send(());
                let _ = parked.1.recv();
            }
            Some(sleeper(3, 0))
        });
        let daemon = Daemon::start(
            RunConfig { workers: 1, ..RunConfig::default() },
            resolver,
            Arc::new(ProvenanceStore::new()),
        )
        .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let id = run_to_finish(&mut client, "quick");

        let addr = daemon.addr();
        let parked_submit = std::thread::spawn(move || {
            ServeClient::connect(addr).expect("connect").submit("u", 0, "park").expect("submit io")
        });
        entered_rx.recv_timeout(Duration::from_secs(10)).expect("the resolver is entered");
        let (answered_tx, answered_rx) = channel();
        std::thread::spawn(move || {
            let start = Instant::now();
            let status = client.status(id).map(|s| s.state);
            let status_took = start.elapsed();
            let start = Instant::now();
            let results = client.results(id).map(|(_, tuples)| tuples.len());
            let _ = answered_tx.send((status, status_took, results, start.elapsed()));
        });
        let answered = answered_rx.recv_timeout(Duration::from_secs(5));
        release_tx.send(()).expect("the resolver waits");
        let (status, status_took, results, results_took) =
            answered.expect("Status and Results answered while the engine thread is parked");
        assert_eq!(status.expect("status io"), CampaignState::Finished);
        assert!(status_took < Duration::from_millis(100), "Status took {status_took:?}");
        assert_eq!(results.expect("results io"), 3);
        assert!(results_took < Duration::from_millis(100), "Results took {results_took:?}");
        let submitted = parked_submit.join().expect("the parked submit returns");
        assert_eq!(submitted, SubmitOutcome::Accepted { id: 2 });
        daemon.shutdown();
    }

    /// A directory over the thread port, as `scidockd` runs it.
    type Threads = Directory<ThreadPort<EngineMsg>>;

    /// Live campaigns of every tenant, counted from the table.
    fn recount(dir: &Threads) -> HashMap<Arc<str>, usize> {
        dir.table.entries(|t| {
            let mut live: HashMap<Arc<str>, usize> = HashMap::new();
            for e in t.iter() {
                if matches!(e.state, CampaignState::Pending | CampaignState::Running) {
                    *live.entry(Arc::clone(&e.tenant)).or_default() += 1;
                }
            }
            live
        })
    }

    /// One engine turn, then the check: the per-tenant count admission
    /// reads equals a full recount.
    fn turn(dir: &mut Threads, woke: Option<EngineMsg>) {
        dir.turn(woke).expect("the engine runs");
        assert_eq!(dir.live, recount(dir));
    }

    fn ask_in_turn(dir: &mut Threads, request: proto::Msg) -> proto::Msg {
        let (reply_tx, reply_rx) = channel();
        turn(dir, Some(EngineMsg::Ask(request, reply_tx)));
        reply_rx.recv().expect("answered in its turn")
    }

    /// The tenant quota's live count equals a full recount after every turn
    /// of the engine thread: submits, rejects, starts, finishes, and the
    /// cancels of a pending and of a running campaign.
    #[test]
    fn the_live_count_per_tenant_equals_a_recount_after_every_turn() {
        let resolver: CampaignResolver = Arc::new(|spec| (spec == "ok").then(|| sleeper(3, 5)));
        let cfg = RunConfig { workers: 1, max_active: 1, tenant_quota: 2, ..RunConfig::default() };
        let prov = Arc::new(ProvenanceStore::new());
        let mut dir: Threads =
            Directory::on_threads(cfg, resolver, prov, "scidockd-worker").expect("a worker thread");
        let submit = |tenant: &str, spec: &str| proto::Msg::Submit {
            tenant: tenant.into(),
            priority: 0,
            spec: spec.into(),
        };
        let rejected = |reply: proto::Msg| matches!(reply, proto::Msg::Reject { .. });
        let cancelled = proto::Msg::CancelReply { cancelled: true };

        // 1 starts in its submit's turn, 2 waits behind it
        assert_eq!(ask_in_turn(&mut dir, submit("a", "ok")), proto::Msg::Accept { id: 1 });
        assert_eq!(ask_in_turn(&mut dir, submit("a", "ok")), proto::Msg::Accept { id: 2 });
        assert_eq!(dir.live.get("a"), Some(&2));
        assert!(rejected(ask_in_turn(&mut dir, submit("a", "ok"))), "over quota");
        assert!(rejected(ask_in_turn(&mut dir, submit("b", "nope"))), "unknown spec");
        assert_eq!(ask_in_turn(&mut dir, proto::Msg::Cancel { id: 2 }), cancelled);
        assert_eq!(ask_in_turn(&mut dir, submit("b", "ok")), proto::Msg::Accept { id: 3 });
        assert_eq!(ask_in_turn(&mut dir, proto::Msg::Cancel { id: 1 }), cancelled);

        let state = |dir: &Threads, id: u64| dir.table.entries(|t| t[at(id)].state);
        let deadline = Instant::now() + Duration::from_secs(30);
        let closed = [CampaignState::Cancelled, CampaignState::Finished];
        while [state(&dir, 1), state(&dir, 3)] != closed {
            assert!(Instant::now() < deadline, "campaigns 1 and 3 never closed");
            let woke = dir.rx.recv_timeout(TICK).ok();
            turn(&mut dir, woke);
        }
        assert!(dir.live.is_empty(), "{:?}", dir.live);
    }

    /// An open table answers a live campaign's progress and refuses its
    /// results; once its closer drops, every read is the shutdown error.
    #[test]
    fn a_closed_table_answers_that_the_daemon_is_shutting_down() {
        let table = Arc::new(Table::open());
        table.entries(|t| {
            t.push(Entry {
                tenant: "t".into(),
                state: CampaignState::Running,
                done: 1,
                total: 2,
                outputs: None,
            })
        });
        assert!(matches!(table.status(1), proto::Msg::StatusReply { done: 1, total: 2, .. }));
        assert_eq!(table.results(1), error("campaign 1 is running"));
        assert_eq!(table.status(0), error("unknown campaign 0"));
        assert_eq!(table.status(2), error("unknown campaign 2"));
        drop(Closer(Arc::clone(&table)));
        assert_eq!(table.status(1), error(SHUTTING_DOWN));
        assert_eq!(table.results(1), error(SHUTTING_DOWN));
    }
}
