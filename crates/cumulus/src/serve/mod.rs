//! `scidockd` — the always-on, multi-campaign docking service.
//!
//! Everything else in this crate runs one workflow and exits; this module
//! is the paper's cloud-service endgame: a daemon that accepts **campaign**
//! submissions over TCP (the [`proto`] `SDC1` protocol), multiplexes many
//! campaigns concurrently over one shared elastic worker fleet, and
//! persists every campaign into one durable provenance store — each
//! campaign under its own `wkfid` namespace, so results are queryable
//! per-campaign *and* across campaigns with the same SQL surface the
//! one-shot backends expose.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//!   clients ──SDC1──▶ acceptor ──▶ handler threads ──Ctl──▶ ┌────────┐
//!                                                           │ engine │──▶ obs plane
//!   workers ◀──────────── WorkerMsg::Run ────────────────── │ thread │    (/campaigns)
//!      └────────────────── Done/Retired ──────────────────▶ └────────┘
//! ```
//!
//! * **Engine thread** — owns every campaign, the shared
//!   [`PipelineState`]s, and the worker fleet. All scheduling decisions
//!   (fair-share pick, admission, elastic scale) happen here, serially, so
//!   there are no cross-campaign races to reason about.
//! * **Worker threads** — one slot each; they execute activations through
//!   the *same* activation lifecycle as the local backend, which is why a
//!   campaign's canonical PROV-N export is byte-identical to a one-shot run
//!   of the same workflow.
//! * **Fair share** — each free slot goes to the ready campaign whose
//!   tenant currently holds the fewest slots (ties: higher priority, then
//!   lower campaign id). A heavy tenant with ten campaigns cannot starve a
//!   light tenant with one.
//! * **Admission control** — a bounded pending queue and a per-tenant quota
//!   on live campaigns. Over either bound the daemon answers
//!   [`Reject`](proto::Msg::Reject) with a retry-after hint instead of
//!   queueing unboundedly: backpressure is explicit and immediate.
//! * **Elastic fleet** — the same [`Scheduler`](crate::fleet::Scheduler) /
//!   [`FleetController`] machinery the distributed backend and the
//!   simulator use, fed a [`FleetSnapshot`] aggregated across campaigns;
//!   `Grow` spawns worker threads, `Shrink` drains idle ones.
//! * **Steering** — one daemon-wide [`SteeringBridge`] publishes in-flight
//!   activations of *every* campaign into the shared store on a tick, so
//!   the paper's §V.C runtime queries answer mid-run, across campaigns.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cloudsim::FailureModel;
use provenance::{ProvenanceStore, WorkflowId};
use telemetry::Telemetry;

use crate::algebra::{Relation, Tuple};
use crate::backend::Workflow;
use crate::dispatch::{PipelineState, SubmitReq};
use crate::fleet::{FleetController, FleetSnapshot, ScaleDecision, SchedulerFactory, WorkerView};
use crate::lifecycle::{ActOutcome, ActivityCtx, RunCtx};
use crate::obs::{
    BoundAddr, CampaignRow, EventLog, HealthView, ObsServer, ObsState, Severity, WorkerHealth,
};
use crate::steer::SteeringBridge;

pub(crate) mod proto;

pub use proto::CampaignState;

/// Resolves a submitted spec string (e.g. `"scidock:ad4:2x2"`) to a
/// runnable workflow. The daemon owns the resolver so clients submit
/// *names*, not code — the service model of the paper's virtual
/// laboratory.
pub type CampaignResolver = Arc<dyn Fn(&str) -> Option<Workflow> + Send + Sync>;

/// Daemon configuration.
///
/// Marked `#[non_exhaustive]`: construct with [`ServeConfig::new`] (or
/// `Default`) plus the `with_*` builders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Listen address for the `SDC1` endpoint (port 0 = ephemeral).
    pub addr: String,
    /// Initial worker fleet (threads, one activation slot each).
    pub workers: usize,
    /// Elastic floor: `Shrink` never drains below this many workers.
    pub min_workers: usize,
    /// Elastic ceiling: `Grow` never provisions above this many workers.
    pub max_workers: usize,
    /// Campaigns running concurrently; the rest wait in the pending queue.
    pub max_active: usize,
    /// Bound on the pending queue — submissions over it are `Reject`ed
    /// with a retry-after hint rather than queued.
    pub max_pending: usize,
    /// Max live (pending + running) campaigns per tenant; submissions over
    /// it are `Reject`ed.
    pub tenant_quota: usize,
    /// Retry-after hint carried in overload `Reject`s, milliseconds.
    pub retry_after_ms: u64,
    /// Elastic fleet policy (None = fixed fleet of `workers`).
    pub scheduler: Option<SchedulerFactory>,
    /// Publish in-flight activations of all campaigns into the store on
    /// this tick (None = no steering rows).
    pub steering_tick: Option<Duration>,
    /// Failure injection forwarded to every activation.
    pub failures: FailureModel,
    /// Retry budget per activation.
    pub max_retries: u32,
    /// Telemetry sink shared by the engine and all campaigns.
    pub telemetry: Telemetry,
    /// Structured event log (campaign lifecycle + fleet scale events).
    pub events: Option<EventLog>,
    /// Bind the observability HTTP endpoint here (None = no endpoint).
    pub metrics_addr: Option<String>,
    /// Resolves to the observability endpoint's actual bound address.
    pub metrics_bound: Option<BoundAddr>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            min_workers: 1,
            max_workers: 8,
            max_active: 4,
            max_pending: 16,
            tenant_quota: 8,
            retry_after_ms: 250,
            scheduler: None,
            steering_tick: None,
            failures: FailureModel::none(),
            max_retries: 3,
            telemetry: Telemetry::disabled(),
            events: None,
            metrics_addr: None,
            metrics_bound: None,
        }
    }
}

impl ServeConfig {
    /// The default configuration (2 fixed workers, 4 active campaigns, 16
    /// pending, tenant quota 8, no endpoint).
    pub fn new() -> ServeConfig {
        ServeConfig::default()
    }

    /// Set the `SDC1` listen address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> ServeConfig {
        self.addr = addr.into();
        self
    }

    /// Set the initial worker fleet size.
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Set the elastic fleet bounds.
    pub fn with_worker_bounds(mut self, min: usize, max: usize) -> ServeConfig {
        self.min_workers = min.max(1);
        self.max_workers = max.max(self.min_workers);
        self
    }

    /// Set how many campaigns run concurrently.
    pub fn with_max_active(mut self, n: usize) -> ServeConfig {
        self.max_active = n.max(1);
        self
    }

    /// Set the pending-queue bound (admission control).
    pub fn with_max_pending(mut self, n: usize) -> ServeConfig {
        self.max_pending = n;
        self
    }

    /// Set the per-tenant live-campaign quota.
    pub fn with_tenant_quota(mut self, n: usize) -> ServeConfig {
        self.tenant_quota = n.max(1);
        self
    }

    /// Set the retry-after hint for overload rejections.
    pub fn with_retry_after_ms(mut self, ms: u64) -> ServeConfig {
        self.retry_after_ms = ms;
        self
    }

    /// Drive the fleet elastically with a [`SchedulerFactory`].
    pub fn with_scheduler(mut self, factory: SchedulerFactory) -> ServeConfig {
        self.scheduler = Some(factory);
        self
    }

    /// Enable the steering bridge on this tick.
    pub fn with_steering_tick(mut self, tick: Duration) -> ServeConfig {
        self.steering_tick = Some(tick);
        self
    }

    /// Set failure injection for activations.
    pub fn with_failures(mut self, failures: FailureModel) -> ServeConfig {
        self.failures = failures;
        self
    }

    /// Set the per-activation retry budget.
    pub fn with_max_retries(mut self, n: u32) -> ServeConfig {
        self.max_retries = n;
        self
    }

    /// Attach a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ServeConfig {
        self.telemetry = telemetry;
        self
    }

    /// Attach a structured event log.
    pub fn with_events(mut self, events: EventLog) -> ServeConfig {
        self.events = Some(events);
        self
    }

    /// Bind the observability HTTP endpoint at `addr`.
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> ServeConfig {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Resolve the observability endpoint's bound address into `bound`.
    pub fn with_metrics_bound(mut self, bound: BoundAddr) -> ServeConfig {
        self.metrics_bound = Some(bound);
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

    fn roundtrip(&mut self, msg: &proto::Msg) -> std::io::Result<proto::Msg> {
        proto::write_msg(&mut self.stream, msg)?;
        proto::read_msg(&mut self.stream)
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

    /// Poll a campaign's state and progress.
    pub fn status(&mut self, id: u64) -> std::io::Result<CampaignStatus> {
        match self.roundtrip(&proto::Msg::Status { id })? {
            proto::Msg::StatusReply { id, tenant, state, done, total } => {
                Ok(CampaignStatus { id, tenant, state, done, total })
            }
            proto::Msg::Error { msg } => Err(std::io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the final output relation of a finished campaign.
    pub fn results(&mut self, id: u64) -> std::io::Result<(Vec<String>, Vec<Tuple>)> {
        match self.roundtrip(&proto::Msg::Results { id })? {
            proto::Msg::ResultsReply { columns, tuples } => Ok((columns, tuples)),
            proto::Msg::Error { msg } => Err(std::io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancel a pending or running campaign; `Ok(true)` when it was still
    /// live.
    pub fn cancel(&mut self, id: u64) -> std::io::Result<bool> {
        match self.roundtrip(&proto::Msg::Cancel { id })? {
            proto::Msg::CancelReply { cancelled } => Ok(cancelled),
            proto::Msg::Error { msg } => Err(std::io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a read-only SQL query against the daemon's shared provenance
    /// store. Scope to one campaign with its `wkfid`, or span campaigns by
    /// omitting it — every campaign lives in the same store.
    pub fn query(&mut self, sql: &str) -> std::io::Result<(Vec<String>, Vec<Tuple>)> {
        match self.roundtrip(&proto::Msg::Query { sql: sql.to_string() })? {
            proto::Msg::QueryReply { columns, rows } => Ok((columns, rows)),
            proto::Msg::Error { msg } => Err(std::io::Error::other(msg)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(msg: &proto::Msg) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("unexpected reply {msg:?}"))
}

// ------------------------------------------------------------------ daemon

/// The running daemon: `SDC1` listener + engine + worker fleet.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine_tx: Sender<EngineMsg>,
    accept_thread: Option<JoinHandle<()>>,
    engine_thread: Option<JoinHandle<()>>,
    obs_server: Option<ObsServer>,
    bridge: Option<Arc<SteeringBridge>>,
}

impl Daemon {
    /// Bind the `SDC1` endpoint and start serving campaigns resolved by
    /// `resolver`, persisting all provenance into `prov`.
    pub fn start(
        cfg: ServeConfig,
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
        let epoch = Instant::now();

        let bridge =
            cfg.steering_tick.map(|tick| SteeringBridge::start(Arc::clone(&prov), epoch, tick));

        let obs = cfg
            .metrics_addr
            .as_ref()
            .map(|_| ObsState::new(cfg.telemetry.clone(), cfg.events.clone().unwrap_or_default()));
        let obs_server = match (&cfg.metrics_addr, &obs) {
            (Some(maddr), Some(state)) => {
                let s = ObsServer::start(maddr, state.clone())?;
                if let Some(b) = &cfg.metrics_bound {
                    b.set(s.addr());
                }
                Some(s)
            }
            _ => None,
        };

        let (tx, rx) = channel::<EngineMsg>();
        let engine =
            Engine::new(cfg, resolver, Arc::clone(&prov), epoch, bridge.clone(), obs, tx.clone());
        let engine_thread = std::thread::Builder::new()
            .name("scidockd-engine".into())
            .spawn(move || engine.run(rx))?;

        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let tx2 = tx.clone();
        let accept_thread = std::thread::Builder::new()
            .name("scidockd-accept".into())
            .spawn(move || accept_loop(listener, tx2, prov, stop2))?;

        Ok(Daemon {
            addr,
            stop,
            engine_tx: tx,
            accept_thread: Some(accept_thread),
            engine_thread: Some(engine_thread),
            obs_server,
            bridge,
        })
    }

    /// The address the `SDC1` listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the worker fleet, and join every thread.
    /// In-flight activations finish; queued-but-undispatched work does not.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = self.engine_tx.send(EngineMsg::Ctl(Ctl::Shutdown));
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        if let Some(b) = self.bridge.take() {
            b.stop();
        }
        if let Some(s) = self.obs_server.take() {
            s.shutdown();
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
    prov: Arc<ProvenanceStore>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let prov = Arc::clone(&prov);
                let stop = Arc::clone(&stop);
                let _ = std::thread::Builder::new()
                    .name("scidockd-conn".into())
                    .spawn(move || handle_client(stream, tx, prov, stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serve one client connection: forward control requests to the engine,
/// answer provenance queries directly against the shared store.
fn handle_client(
    mut stream: TcpStream,
    tx: Sender<EngineMsg>,
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
                Err(e) => proto::Msg::Error { msg: e.to_string() },
            },
            proto::Msg::Submit { tenant, priority, spec } => {
                ask(&tx, |reply| Ctl::Submit { tenant, priority, spec, reply })
            }
            proto::Msg::Status { id } => ask(&tx, |reply| Ctl::Status { id, reply }),
            proto::Msg::Results { id } => ask(&tx, |reply| Ctl::Results { id, reply }),
            proto::Msg::Cancel { id } => ask(&tx, |reply| Ctl::Cancel { id, reply }),
            other => proto::Msg::Error { msg: format!("client sent a server frame {other:?}") },
        };
        if proto::write_msg(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Round-trip one control request through the engine thread.
fn ask(tx: &Sender<EngineMsg>, make: impl FnOnce(Sender<proto::Msg>) -> Ctl) -> proto::Msg {
    let (reply_tx, reply_rx) = channel();
    if tx.send(EngineMsg::Ctl(make(reply_tx))).is_err() {
        return proto::Msg::Error { msg: "daemon is shutting down".to_string() };
    }
    reply_rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or(proto::Msg::Error { msg: "daemon did not answer".to_string() })
}

// ------------------------------------------------------------------ engine

enum Ctl {
    Submit { tenant: String, priority: u8, spec: String, reply: Sender<proto::Msg> },
    Status { id: u64, reply: Sender<proto::Msg> },
    Results { id: u64, reply: Sender<proto::Msg> },
    Cancel { id: u64, reply: Sender<proto::Msg> },
    Shutdown,
}

enum EngineMsg {
    Ctl(Ctl),
    Done { worker: usize, campaign: u64, activity: usize, outcome: ActOutcome, elapsed_ns: u64 },
    Retired { worker: usize },
}

impl std::fmt::Debug for EngineMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMsg::Ctl(_) => write!(f, "Ctl(..)"),
            EngineMsg::Done { worker, campaign, activity, .. } => {
                write!(f, "Done{{worker:{worker},campaign:{campaign},activity:{activity}}}")
            }
            EngineMsg::Retired { worker } => write!(f, "Retired{{worker:{worker}}}"),
        }
    }
}

enum WorkerMsg {
    Run {
        campaign: u64,
        activity: usize,
        part: Vec<Tuple>,
        part_index: usize,
        ctx: Arc<ActivityCtx>,
    },
    Drain,
}

struct WorkerSlot {
    tx: Sender<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
    /// Campaign currently running on this worker (one slot per worker).
    busy: Option<u64>,
    draining: bool,
    alive: bool,
}

struct Campaign {
    id: u64,
    tenant: String,
    priority: u8,
    state: CampaignState,
    /// Resolved workflow, consumed at start time.
    wf: Option<Workflow>,
    wkf: Option<WorkflowId>,
    pipe: Option<PipelineState>,
    ctxs: Vec<Arc<ActivityCtx>>,
    ready: VecDeque<SubmitReq>,
    in_flight: usize,
    done: u64,
    total: u64,
    submitted_at: Instant,
    saw_first_result: bool,
    cancel_requested: bool,
    outputs: Option<Vec<Relation>>,
    /// Dispatch→completion latency per activation, nanoseconds. Emptied
    /// when the campaign becomes terminal (see `p95_final`).
    lat_ns: Vec<u64>,
    /// The p95 of a terminal campaign, computed once at the transition: the
    /// observability refresh runs after every engine message and lists every
    /// campaign ever submitted, so only live ones may cost a sort.
    p95_final: Option<f64>,
}

impl Campaign {
    fn live(&self) -> bool {
        matches!(self.state, CampaignState::Pending | CampaignState::Running)
    }

    fn p95_ms(&self, tel: &Telemetry) -> f64 {
        if let Some(p95) = self.p95_final {
            return p95;
        }
        if self.lat_ns.is_empty() {
            return 0.0;
        }
        tel.count("campaign.p95_sorts", 1);
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        let idx = ((v.len() as f64 * 0.95).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx] as f64 / 1e6
    }

    /// The campaign just became terminal: no more latencies will arrive.
    fn freeze_p95(&mut self, tel: &Telemetry) {
        self.p95_final = Some(self.p95_ms(tel));
        self.lat_ns = Vec::new();
    }
}

struct Engine {
    cfg: ServeConfig,
    resolver: CampaignResolver,
    prov: Arc<ProvenanceStore>,
    tel: Telemetry,
    events: Option<EventLog>,
    epoch: Instant,
    bridge: Option<Arc<SteeringBridge>>,
    obs: Option<ObsState>,
    campaigns: HashMap<u64, Campaign>,
    /// Submission order (stable display order for `/campaigns`).
    order: Vec<u64>,
    pending: VecDeque<u64>,
    next_id: u64,
    workers: Vec<WorkerSlot>,
    fleet: FleetController,
    /// Cloned into every worker thread for Done/Retired sends.
    worker_tx: Sender<EngineMsg>,
    shutting_down: bool,
}

impl Engine {
    fn new(
        cfg: ServeConfig,
        resolver: CampaignResolver,
        prov: Arc<ProvenanceStore>,
        epoch: Instant,
        bridge: Option<Arc<SteeringBridge>>,
        obs: Option<ObsState>,
        worker_tx: Sender<EngineMsg>,
    ) -> Engine {
        let fleet = match &cfg.scheduler {
            Some(f) => FleetController::new(f),
            None => FleetController::fixed(),
        };
        let tel = cfg.telemetry.clone();
        let events = cfg.events.clone();
        Engine {
            cfg,
            resolver,
            prov,
            tel,
            events,
            epoch,
            bridge,
            obs,
            campaigns: HashMap::new(),
            order: Vec::new(),
            pending: VecDeque::new(),
            next_id: 1,
            workers: Vec::new(),
            fleet,
            worker_tx,
            shutting_down: false,
        }
    }

    fn run(mut self, rx: Receiver<EngineMsg>) {
        for _ in 0..self.cfg.workers.max(1) {
            self.spawn_worker();
        }
        self.tel.gauge("fleet.size", self.provisioned() as f64);
        loop {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(msg) => self.handle(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if !self.shutting_down {
                self.start_pending();
                self.dispatch();
            } else if self.workers.iter().all(|w| !w.alive) {
                break;
            }
            self.refresh_obs();
        }
    }

    fn emit(&self, severity: Severity, kind: &str, fields: &[(&str, String)]) {
        if let Some(ev) = &self.events {
            ev.emit(self.epoch.elapsed().as_secs_f64(), severity, kind, fields);
        }
    }

    // ------------------------------------------------------------ workers

    fn spawn_worker(&mut self) {
        let index = self.workers.len();
        let (tx, rx) = channel::<WorkerMsg>();
        let done_tx = self.worker_tx.clone();
        let handle = std::thread::Builder::new()
            .name(format!("scidockd-worker-{index}"))
            .spawn(move || worker_loop(rx, done_tx, index))
            .expect("spawn serve worker thread");
        self.workers.push(WorkerSlot {
            tx,
            handle: Some(handle),
            busy: None,
            draining: false,
            alive: true,
        });
    }

    /// Workers serving new activations: alive and not draining.
    fn provisioned(&self) -> usize {
        self.workers.iter().filter(|w| w.alive && !w.draining).count()
    }

    fn snapshot(&self) -> FleetSnapshot {
        let queued: usize = self.campaigns.values().map(|c| c.ready.len()).sum();
        let in_flight: usize = self.campaigns.values().map(|c| c.in_flight).sum();
        let idle =
            self.workers.iter().filter(|w| w.alive && !w.draining && w.busy.is_none()).count();
        let n_acts = self
            .campaigns
            .values()
            .filter(|c| c.state == CampaignState::Running)
            .map(|c| c.ctxs.len())
            .max()
            .unwrap_or(0);
        let mut queued_by_activity = vec![0usize; n_acts];
        for c in self.campaigns.values() {
            for req in &c.ready {
                if req.activity < queued_by_activity.len() {
                    queued_by_activity[req.activity] += 1;
                }
            }
        }
        FleetSnapshot {
            completions: 0, // overwritten by the controller
            queued,
            in_flight,
            fleet: self.provisioned(),
            idle,
            slots_per_worker: 1,
            queued_by_activity,
            stragglers: 0,
        }
    }

    fn apply_scale(&mut self, decision: ScaleDecision) {
        match decision {
            ScaleDecision::Hold => return,
            ScaleDecision::Grow(n) => {
                let room = self.cfg.max_workers.saturating_sub(self.provisioned());
                let grow = n.min(room);
                for _ in 0..grow {
                    self.spawn_worker();
                }
                if grow > 0 {
                    self.emit(
                        Severity::Info,
                        "fleet_scale",
                        &[
                            ("decision", format!("grow {grow}")),
                            ("fleet", self.provisioned().to_string()),
                        ],
                    );
                }
            }
            ScaleDecision::Shrink(n) => {
                let floor = self.cfg.min_workers.max(1);
                let can = self.provisioned().saturating_sub(floor);
                let mut left = n.min(can);
                let mut drained = 0usize;
                for w in self.workers.iter_mut() {
                    if left == 0 {
                        break;
                    }
                    if w.alive && !w.draining && w.busy.is_none() {
                        let _ = w.tx.send(WorkerMsg::Drain);
                        w.draining = true;
                        left -= 1;
                        drained += 1;
                    }
                }
                if drained > 0 {
                    self.emit(
                        Severity::Info,
                        "fleet_scale",
                        &[
                            ("decision", format!("drain {drained}")),
                            ("fleet", self.provisioned().to_string()),
                        ],
                    );
                }
            }
        }
        self.tel.gauge("fleet.size", self.provisioned() as f64);
    }

    // ---------------------------------------------------------- lifecycle

    fn handle(&mut self, msg: EngineMsg) {
        match msg {
            EngineMsg::Ctl(ctl) => self.handle_ctl(ctl),
            EngineMsg::Done { worker, campaign, activity, outcome, elapsed_ns } => {
                if let Some(w) = self.workers.get_mut(worker) {
                    w.busy = None;
                }
                self.fleet.note_completion();
                self.handle_done(campaign, activity, outcome, elapsed_ns);
                let snap = self.snapshot();
                let decision = self.fleet.evaluate(snap);
                self.apply_scale(decision);
            }
            EngineMsg::Retired { worker } => {
                if let Some(w) = self.workers.get_mut(worker) {
                    w.alive = false;
                    w.draining = true;
                    if let Some(h) = w.handle.take() {
                        let _ = h.join();
                    }
                }
                self.tel.gauge("fleet.size", self.provisioned() as f64);
            }
        }
    }

    fn handle_ctl(&mut self, ctl: Ctl) {
        match ctl {
            Ctl::Submit { tenant, priority, spec, reply } => {
                let msg = self.admit(tenant, priority, spec);
                let _ = reply.send(msg);
            }
            Ctl::Status { id, reply } => {
                let msg = match self.campaigns.get(&id) {
                    Some(c) => proto::Msg::StatusReply {
                        id,
                        tenant: c.tenant.clone(),
                        state: c.state,
                        done: c.done,
                        total: c.total.max(c.pipe.as_ref().map_or(0, |p| p.submitted() as u64)),
                    },
                    None => proto::Msg::Error { msg: format!("unknown campaign {id}") },
                };
                let _ = reply.send(msg);
            }
            Ctl::Results { id, reply } => {
                let msg = match self.campaigns.get(&id) {
                    Some(c) => match (&c.state, &c.outputs) {
                        (CampaignState::Finished, Some(outs)) => {
                            let last = outs.last();
                            proto::Msg::ResultsReply {
                                columns: last.map(|r| r.columns.clone()).unwrap_or_default(),
                                tuples: last.map(|r| r.tuples.clone()).unwrap_or_default(),
                            }
                        }
                        _ => proto::Msg::Error {
                            msg: format!("campaign {id} is {}", c.state.as_str()),
                        },
                    },
                    None => proto::Msg::Error { msg: format!("unknown campaign {id}") },
                };
                let _ = reply.send(msg);
            }
            Ctl::Cancel { id, reply } => {
                let msg = match self.cancel(id) {
                    Some(cancelled) => proto::Msg::CancelReply { cancelled },
                    None => proto::Msg::Error { msg: format!("unknown campaign {id}") },
                };
                let _ = reply.send(msg);
            }
            Ctl::Shutdown => {
                self.shutting_down = true;
                for w in self.workers.iter_mut() {
                    if w.alive && !w.draining {
                        let _ = w.tx.send(WorkerMsg::Drain);
                        w.draining = true;
                    }
                }
            }
        }
    }

    /// Admission control: bounded pending queue, per-tenant quota, then
    /// spec resolution. Rejections are explicit backpressure, never queued.
    fn admit(&mut self, tenant: String, priority: u8, spec: String) -> proto::Msg {
        let reject = |engine: &Engine, reason: &str, retry: u64, tenant: &str| {
            engine.tel.count("campaign.rejected", 1);
            engine.emit(
                Severity::Warn,
                "campaign_rejected",
                &[("tenant", tenant.to_string()), ("reason", reason.to_string())],
            );
            proto::Msg::Reject { reason: reason.to_string(), retry_after_ms: retry }
        };
        if self.shutting_down {
            return reject(self, "daemon is shutting down", 0, &tenant);
        }
        if self.pending.len() >= self.cfg.max_pending {
            return reject(self, "pending queue full", self.cfg.retry_after_ms, &tenant);
        }
        let live = self.campaigns.values().filter(|c| c.live() && c.tenant == tenant).count();
        if live >= self.cfg.tenant_quota {
            return reject(self, "tenant quota exceeded", self.cfg.retry_after_ms, &tenant);
        }
        let wf = match (self.resolver)(&spec) {
            Some(wf) => wf,
            None => return reject(self, "unknown spec", 0, &tenant),
        };
        if let Err(e) = wf.def.validate() {
            return reject(self, &format!("invalid workflow: {e}"), 0, &tenant);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.campaigns.insert(
            id,
            Campaign {
                id,
                tenant: tenant.clone(),
                priority,
                state: CampaignState::Pending,
                wf: Some(wf),
                wkf: None,
                pipe: None,
                ctxs: Vec::new(),
                ready: VecDeque::new(),
                in_flight: 0,
                done: 0,
                total: 0,
                submitted_at: Instant::now(),
                saw_first_result: false,
                cancel_requested: false,
                outputs: None,
                lat_ns: Vec::new(),
                p95_final: None,
            },
        );
        self.order.push(id);
        self.pending.push_back(id);
        self.tel.count("campaign.submitted", 1);
        self.emit(
            Severity::Info,
            "campaign_submitted",
            &[
                ("campaign", id.to_string()),
                ("tenant", tenant),
                ("spec", spec),
                ("priority", priority.to_string()),
            ],
        );
        proto::Msg::Accept { id }
    }

    /// Instantiate pending campaigns while concurrency slots are free.
    fn start_pending(&mut self) {
        loop {
            let running =
                self.campaigns.values().filter(|c| c.state == CampaignState::Running).count();
            if running >= self.cfg.max_active {
                return;
            }
            let Some(id) = self.pending.pop_front() else { return };
            let c = self.campaigns.get_mut(&id).expect("pending id is live");
            if c.state != CampaignState::Pending {
                continue; // cancelled while queued
            }
            let wf = c.wf.take().expect("pending campaign holds its workflow");
            let wkf = self.prov.begin_workflow(&wf.def.tag, &wf.def.description, &wf.def.expdir);
            // the activation lifecycle every backend shares, so the
            // campaign's provenance rows are shaped identically to a
            // one-shot run (the PROV-N parity test pins this)
            let run = Arc::new(RunCtx {
                wkf,
                files: Arc::clone(&wf.files),
                prov: Arc::clone(&self.prov),
                failures: self.cfg.failures,
                max_retries: self.cfg.max_retries,
                resume_from: None,
                start_base: self.epoch,
                tel: self.tel.clone(),
                bridge: self.bridge.clone(),
                events: self.events.clone(),
            });
            let ctxs = ActivityCtx::build_all(&wf.def, &run);
            let (pipe, seeds) = PipelineState::new(Arc::new(wf.def), &wf.input, self.tel.clone());
            c.wkf = Some(wkf);
            c.ctxs = ctxs;
            c.ready = seeds.into();
            c.pipe = Some(pipe);
            c.state = CampaignState::Running;
            self.tel.count("campaign.started", 1);
            let tenant = c.tenant.clone();
            self.emit(
                Severity::Info,
                "campaign_started",
                &[("campaign", id.to_string()), ("tenant", tenant), ("wkfid", wkf.0.to_string())],
            );
            // a campaign with no seeds (empty input) finishes immediately
            self.try_finish(id);
        }
    }

    /// Fair-share pick: the ready campaign whose tenant holds the fewest
    /// worker slots right now; ties broken by priority (higher first), then
    /// by campaign id (older first).
    fn pick_campaign(&self) -> Option<u64> {
        let mut tenant_load: HashMap<&str, usize> = HashMap::new();
        for c in self.campaigns.values() {
            *tenant_load.entry(c.tenant.as_str()).or_insert(0) += c.in_flight;
        }
        self.campaigns
            .values()
            .filter(|c| c.state == CampaignState::Running && !c.ready.is_empty())
            .min_by_key(|c| {
                (
                    *tenant_load.get(c.tenant.as_str()).unwrap_or(&0),
                    std::cmp::Reverse(c.priority),
                    c.id,
                )
            })
            .map(|c| c.id)
    }

    /// Hand every idle worker slot one activation, fair-share across
    /// campaigns, placement via the fleet policy.
    fn dispatch(&mut self) {
        loop {
            let candidates: Vec<WorkerView> = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && !w.draining && w.busy.is_none())
                .map(|(i, _)| WorkerView { index: i, in_flight: 0 })
                .collect();
            if candidates.is_empty() {
                return;
            }
            let Some(cid) = self.pick_campaign() else { return };
            let c = self.campaigns.get_mut(&cid).expect("picked campaign exists");
            let req = c.ready.pop_front().expect("picked campaign has ready work");
            let ctx = Arc::clone(&c.ctxs[req.activity]);
            c.in_flight += 1;
            let widx =
                self.fleet.place(req.activity, &candidates).expect("candidates is non-empty");
            let w = &mut self.workers[widx];
            w.busy = Some(cid);
            let _ = w.tx.send(WorkerMsg::Run {
                campaign: cid,
                activity: req.activity,
                part: req.part,
                part_index: req.part_index,
                ctx,
            });
        }
    }

    fn handle_done(&mut self, cid: u64, activity: usize, outcome: ActOutcome, elapsed_ns: u64) {
        let Some(c) = self.campaigns.get_mut(&cid) else { return };
        c.in_flight = c.in_flight.saturating_sub(1);
        c.done += 1;
        c.lat_ns.push(elapsed_ns);
        if !c.saw_first_result && outcome.finished > 0 {
            c.saw_first_result = true;
            let since_submit = c.submitted_at.elapsed().as_nanos() as u64;
            if let Some(h) = self.tel.histogram("campaign.first_result") {
                h.record(since_submit);
            }
        }
        if c.cancel_requested {
            // ready queue is already dropped; just drain in-flight
            self.try_finish(cid);
            return;
        }
        if let Some(pipe) = c.pipe.as_mut() {
            let more = pipe.on_completion(activity, &outcome.tuples);
            c.ready.extend(more);
        }
        self.try_finish(cid);
    }

    /// Transition a running campaign to its terminal state when no work
    /// remains: `Finished` when the pipeline closed, `Cancelled` when the
    /// client asked and the in-flight tail has drained.
    fn try_finish(&mut self, cid: u64) {
        let Some(c) = self.campaigns.get_mut(&cid) else { return };
        if c.state != CampaignState::Running || c.in_flight > 0 {
            return;
        }
        if c.cancel_requested {
            c.state = CampaignState::Cancelled;
            c.freeze_p95(&self.tel);
            c.pipe = None;
            c.ctxs.clear();
            self.prov.flush_wal();
            self.tel.count("campaign.cancelled", 1);
            let tenant = c.tenant.clone();
            self.emit(
                Severity::Warn,
                "campaign_cancelled",
                &[("campaign", cid.to_string()), ("tenant", tenant)],
            );
            return;
        }
        let done = match &c.pipe {
            Some(p) => p.done(),
            None => false,
        };
        if !done || !c.ready.is_empty() {
            return;
        }
        let pipe = c.pipe.take().expect("checked above");
        c.total = pipe.submitted() as u64;
        c.outputs = Some(pipe.into_outputs());
        c.ctxs.clear();
        c.state = CampaignState::Finished;
        c.freeze_p95(&self.tel);
        // the campaign's terminal rows must survive a daemon crash
        self.prov.flush_wal();
        self.tel.count("campaign.finished", 1);
        let tenant = c.tenant.clone();
        let done_n = c.done;
        self.emit(
            Severity::Info,
            "campaign_finished",
            &[
                ("campaign", cid.to_string()),
                ("tenant", tenant),
                ("activations", done_n.to_string()),
            ],
        );
    }

    /// `Some(true)` = was live and is now cancelled (or draining toward
    /// it); `Some(false)` = already terminal; `None` = unknown id.
    fn cancel(&mut self, cid: u64) -> Option<bool> {
        let c = self.campaigns.get_mut(&cid)?;
        match c.state {
            CampaignState::Pending => {
                c.state = CampaignState::Cancelled;
                c.freeze_p95(&self.tel);
                c.wf = None;
                self.pending.retain(|&p| p != cid);
                self.tel.count("campaign.cancelled", 1);
                let tenant = c.tenant.clone();
                self.emit(
                    Severity::Warn,
                    "campaign_cancelled",
                    &[("campaign", cid.to_string()), ("tenant", tenant)],
                );
                Some(true)
            }
            CampaignState::Running => {
                c.cancel_requested = true;
                c.ready.clear();
                self.try_finish(cid);
                Some(true)
            }
            _ => Some(false),
        }
    }

    // ------------------------------------------------------------- obs

    fn refresh_obs(&self) {
        let active = self.campaigns.values().filter(|c| c.state == CampaignState::Running).count();
        self.tel.gauge("campaign.active", active as f64);
        self.tel.gauge("campaign.queued", self.pending.len() as f64);
        let Some(obs) = &self.obs else { return };
        let rows: Vec<CampaignRow> = self
            .order
            .iter()
            .filter_map(|id| self.campaigns.get(id))
            .map(|c| CampaignRow {
                id: c.id,
                tenant: c.tenant.clone(),
                state: c.state.as_str().to_string(),
                done: c.done,
                total: c.total.max(c.pipe.as_ref().map_or(0, |p| p.submitted() as u64)),
                p95_ms: c.p95_ms(&self.tel),
            })
            .collect();
        obs.set_campaigns(rows);
        obs.set_health(HealthView {
            phase: if self.shutting_down { "draining" } else { "running" }.to_string(),
            fleet: self.provisioned(),
            workers: self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive)
                .map(|(i, w)| WorkerHealth {
                    id: i,
                    alive: w.alive,
                    draining: w.draining,
                    last_seen_ms: 0,
                    in_flight: usize::from(w.busy.is_some()),
                    stragglers: 0,
                })
                .collect(),
        });
    }
}

fn worker_loop(rx: Receiver<WorkerMsg>, tx: Sender<EngineMsg>, index: usize) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Run { campaign, activity, part, part_index, ctx } => {
                let t = Instant::now();
                let outcome = ctx.run_activation(&part, part_index);
                if tx
                    .send(EngineMsg::Done {
                        worker: index,
                        campaign,
                        activity,
                        outcome,
                        elapsed_ns: t.elapsed().as_nanos() as u64,
                    })
                    .is_err()
                {
                    return; // engine is gone; no one to report retirement to
                }
            }
            WorkerMsg::Drain => break,
        }
    }
    let _ = tx.send(EngineMsg::Retired { worker: index });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Activity, WorkflowDef};
    use provenance::Value;

    /// Fair share as a count: while every tenant has ready work, filling
    /// the idle slots never leaves two tenants' in-flight counts more than
    /// one apart, whatever completed in between.
    #[test]
    fn fair_share_keeps_tenants_within_one_slot_of_each_other() {
        const SLOTS: usize = 5;
        let resolver: CampaignResolver = Arc::new(|_| {
            let def = WorkflowDef {
                tag: "flat".into(),
                description: "fair share".into(),
                expdir: "/exp/flat".into(),
                activities: vec![Activity::map("work", &["x"], Arc::new(|p, _| Ok(p.to_vec())))],
                deps: vec![vec![]],
            };
            let mut input = Relation::new(&["x"]);
            for i in 0..40 {
                input.push(vec![Value::Int(i)]);
            }
            Some(Workflow::new(def, input))
        });
        let (engine_tx, _engine_rx) = channel();
        let mut e = Engine::new(
            ServeConfig::new().with_max_active(6),
            resolver,
            Arc::new(ProvenanceStore::new()),
            Instant::now(),
            None,
            None,
            engine_tx,
        );
        // three, two and one campaigns: the share is the tenant's, not the
        // campaign's
        let tenants = ["a", "b", "c"];
        for tenant in ["a", "a", "a", "b", "b", "c"] {
            let reply = e.admit(tenant.to_string(), 0, "flat".into());
            assert!(matches!(reply, proto::Msg::Accept { .. }), "{reply:?}");
        }
        e.start_pending();
        // slots whose `Run`s nobody executes: the test completes them
        let _slots: Vec<Receiver<WorkerMsg>> = (0..SLOTS)
            .map(|_| {
                let (tx, rx) = channel();
                e.workers.push(WorkerSlot {
                    tx,
                    handle: None,
                    busy: None,
                    draining: false,
                    alive: true,
                });
                rx
            })
            .collect();
        for round in 0..30 {
            e.dispatch();
            let loads = tenants.map(|t| {
                let of_tenant = e.campaigns.values().filter(|c| c.tenant == t);
                assert!(of_tenant.clone().any(|c| !c.ready.is_empty()), "{t} ran dry");
                of_tenant.map(|c| c.in_flight).sum::<usize>()
            });
            assert_eq!(loads.iter().sum::<usize>(), SLOTS, "every idle slot is filled");
            let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
            assert!(spread <= 1, "round {round}: in flight per tenant {loads:?}");
            // a different three or four of the five complete each round
            for i in (0..SLOTS).filter(|i| (i + round) % 3 != 0) {
                let cid = e.workers[i].busy.take().expect("slot was filled");
                e.campaigns.get_mut(&cid).expect("campaign of a busy slot").in_flight -= 1;
            }
        }
    }
}
