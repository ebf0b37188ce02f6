//! `scidockd` — the always-on, multi-campaign docking service.
//!
//! Everything else in this crate runs one workflow and exits; this module
//! is the paper's cloud-service endgame: a daemon that accepts **campaign**
//! submissions over TCP (the `SDC1` protocol), multiplexes many
//! campaigns concurrently over one shared elastic worker fleet, and
//! persists every campaign into one durable provenance store — each
//! campaign under its own `wkfid` namespace, so results are queryable
//! per-campaign *and* across campaigns with the same SQL surface the
//! one-shot backends expose.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//!   clients ──SDC1──▶ acceptor ──▶ handler threads ──Ctl──▶ ┌───────────┐
//!                                                           │ directory │──▶ obs plane
//!   workers ◀──────────── thread port: Run ──────────────── │ + engine  │    (/campaigns)
//!      └────────────── Settled / Retired ─────────────────▶ └───────────┘
//! ```
//!
//! * **Engine thread** — runs admission control and the directory of every
//!   campaign submitted, on top of the crate's one engine (the module
//!   `engine`, shared with [`crate::distbackend`] and
//!   [`crate::localbackend`]), which holds the *live* campaigns' dispatchers
//!   and the worker table. All scheduling decisions (fair-share pick,
//!   admission, elastic scale) happen here, serially, so there are no
//!   cross-campaign races to reason about. A campaign that
//!   finishes or is cancelled leaves the engine; the directory keeps its
//!   final counts and results.
//! * **Worker threads** — the engine's thread port, the one the local
//!   backend runs on too: one slot each; they run every attempt through the
//!   *same* activation lifecycle on their own thread, which is why a
//!   campaign's canonical PROV-N export is byte-identical to a one-shot run
//!   of the same workflow. A panic that escapes the lifecycle there (a store
//!   fault) takes the engine thread down with it: clients then read an
//!   `Error`, not a campaign `Running` forever.
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
use provenance::ProvenanceStore;
use telemetry::Telemetry;

use crate::algebra::{Relation, Tuple};
use crate::backend::Workflow;
use crate::engine::{Engine, EngineCfg, PortEvent, TICK};
use crate::fleet::SchedulerFactory;
use crate::lifecycle::{ActivityCtx, RunCtx};
use crate::obs::{BoundAddr, CampaignRow, EventLog, ObsServer, ObsState, Severity};
use crate::steer::SteeringBridge;
use crate::threadport::ThreadPort;

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
    /// omitting it — every campaign lives in the same store. At most
    /// 100 000 rows come back, fewer when the query's own `LIMIT` is lower;
    /// an `EXPLAIN ` prefix returns the plan instead.
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

/// The running daemon: `SDC1` listener, admission control and the campaign
/// directory over the one engine, whose workers are threads of this process.
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
        let tel = cfg.telemetry.clone();
        let engine = Engine::new(
            ThreadPort::new(tx.clone(), &tel, "scidockd-worker"),
            EngineCfg {
                floor: cfg.min_workers.max(1),
                ceiling: cfg.max_workers,
                // threads of this process are neither lost nor silent
                reassign_budget: 0,
                heartbeat_timeout: None,
                activation_timeout: None,
                straggler: None,
                tel: tel.clone(),
                events: cfg.events.clone(),
                epoch,
                obs: obs.clone(),
            },
            cfg.scheduler.as_ref(),
        );
        let directory = Directory {
            cfg,
            resolver,
            prov: Arc::clone(&prov),
            tel,
            epoch,
            bridge: bridge.clone(),
            obs,
            campaigns: HashMap::new(),
            order: Vec::new(),
            pending: VecDeque::new(),
            engine,
            stale: true,
            sampled: [None; 2],
        };
        let engine_thread = std::thread::Builder::new()
            .name("scidockd-engine".into())
            .spawn(move || directory.run(rx))?;

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
        let _ = self.engine_tx.send(EngineMsg::Shutdown);
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
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serve one client connection: forward campaign requests to the engine
/// thread, answer provenance queries directly against the shared store.
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
            proto::Msg::Submit { .. }
            | proto::Msg::Status { .. }
            | proto::Msg::Results { .. }
            | proto::Msg::Cancel { .. } => ask(&tx, msg),
            other => proto::Msg::Error { msg: format!("client sent a server frame {other:?}") },
        };
        if proto::write_msg(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Round-trip one campaign request through the engine thread.
fn ask(tx: &Sender<EngineMsg>, request: proto::Msg) -> proto::Msg {
    let (reply_tx, reply_rx) = channel();
    let _ = tx.send(EngineMsg::Ask(request, reply_tx));
    let error = |msg: &str| proto::Msg::Error { msg: msg.to_string() };
    match reply_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(reply) => reply,
        Err(RecvTimeoutError::Timeout) => error("daemon did not answer"),
        // the engine thread left its loop, before or after the request
        Err(RecvTimeoutError::Disconnected) => error("daemon is shutting down"),
    }
}

// ------------------------------------------------------------ engine thread

/// What the engine thread wakes for.
enum EngineMsg {
    /// A client's `Submit`, `Status`, `Results` or `Cancel`, and where the
    /// answer goes.
    Ask(proto::Msg, Sender<proto::Msg>),
    Port(PortEvent),
    Shutdown,
}

impl From<PortEvent> for EngineMsg {
    fn from(ev: PortEvent) -> EngineMsg {
        EngineMsg::Port(ev)
    }
}

// --------------------------------------------------------------- directory

/// One campaign as the daemon remembers it. While it runs its progress lives
/// in the engine; what is kept here is frozen when it leaves the engine.
struct Campaign {
    tenant: String,
    priority: u8,
    state: CampaignState,
    /// Resolved workflow, consumed at start time.
    wf: Option<Workflow>,
    submitted_at: Instant,
    saw_first_result: bool,
    done: u64,
    total: u64,
    p95_ms: f64,
    outputs: Option<Vec<Relation>>,
}

/// What runs on the engine thread: admission control and the directory of
/// every campaign submitted, on top of the engine that runs the live ones.
struct Directory {
    cfg: ServeConfig,
    resolver: CampaignResolver,
    prov: Arc<ProvenanceStore>,
    tel: Telemetry,
    epoch: Instant,
    bridge: Option<Arc<SteeringBridge>>,
    obs: Option<ObsState>,
    /// Campaign ids count from 1, in submission order.
    campaigns: HashMap<u64, Campaign>,
    /// Submission order (stable display order for `/campaigns`).
    order: Vec<u64>,
    pending: VecDeque<u64>,
    engine: Engine<ThreadPort<EngineMsg>>,
    /// A campaign changed state since `/campaigns` was last rebuilt.
    stale: bool,
    /// `campaign.active` / `campaign.queued` as last sampled.
    sampled: [Option<usize>; 2],
}

impl Directory {
    fn run(mut self, rx: Receiver<EngineMsg>) {
        self.tel.name_current_track("scidockd-engine");
        let workers = self.cfg.workers.max(1);
        self.engine.launch(workers).expect("spawn serve worker threads");
        loop {
            let handled = match rx.recv_timeout(TICK) {
                Ok(EngineMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Ok(EngineMsg::Ask(request, reply)) => {
                    let _ = reply.send(self.answer(request));
                    Ok(())
                }
                Ok(EngineMsg::Port(ev)) => self.engine.handle(ev),
                Err(RecvTimeoutError::Timeout) => Ok(()),
            };
            self.start_pending();
            // the daemon outlives an engine error: it is the operator's to read
            if let Err(e) = handled.and(self.engine.pump()) {
                self.engine.emit(Severity::Error, "engine_error", &[("error", e.to_string())]);
            }
            self.reap();
            if self.engine.tick() || self.stale {
                self.refresh_obs();
            }
        }
        self.engine.shutdown();
    }

    /// Campaign `id` was `what`: count it and say so in the event log.
    fn transition(&mut self, severity: Severity, what: &str, id: u64, more: &[(&str, String)]) {
        self.stale = true;
        self.tel.count(&format!("campaign.{what}"), 1);
        let tenant = self.campaigns[&id].tenant.clone();
        let mut fields = vec![("campaign", id.to_string()), ("tenant", tenant)];
        fields.extend_from_slice(more);
        self.engine.emit(severity, &format!("campaign_{what}"), &fields);
    }

    fn answer(&mut self, request: proto::Msg) -> proto::Msg {
        let unknown = |id: u64| proto::Msg::Error { msg: format!("unknown campaign {id}") };
        match request {
            proto::Msg::Submit { tenant, priority, spec } => self.admit(tenant, priority, spec),
            proto::Msg::Status { id } => match self.campaigns.get(&id) {
                Some(c) => {
                    let (tenant, state, (done, total)) =
                        (c.tenant.clone(), c.state, self.progress(id, c));
                    proto::Msg::StatusReply { id, tenant, state, done, total }
                }
                None => unknown(id),
            },
            proto::Msg::Results { id } => match self.campaigns.get(&id) {
                Some(Campaign { outputs: Some(outs), .. }) => {
                    let last = outs.last();
                    proto::Msg::ResultsReply {
                        columns: last.map(|r| r.columns.clone()).unwrap_or_default(),
                        tuples: last.map(|r| r.tuples.clone()).unwrap_or_default(),
                    }
                }
                Some(c) => {
                    proto::Msg::Error { msg: format!("campaign {id} is {}", c.state.as_str()) }
                }
                None => unknown(id),
            },
            proto::Msg::Cancel { id } => match self.cancel(id) {
                Some(cancelled) => proto::Msg::CancelReply { cancelled },
                None => unknown(id),
            },
            other => proto::Msg::Error { msg: format!("not a campaign request: {other:?}") },
        }
    }

    /// `(done, total)` activations of a campaign: the engine's count while
    /// it runs, the frozen one otherwise.
    fn progress(&self, id: u64, c: &Campaign) -> (u64, u64) {
        self.engine.run(id).map_or((c.done, c.total), |r| (r.done, r.submitted()))
    }

    fn reject(&self, tenant: String, reason: String, retry_after_ms: u64) -> proto::Msg {
        self.tel.count("campaign.rejected", 1);
        let fields = [("tenant", tenant), ("reason", reason.clone())];
        self.engine.emit(Severity::Warn, "campaign_rejected", &fields);
        proto::Msg::Reject { reason, retry_after_ms }
    }

    /// Admission control: bounded pending queue, per-tenant quota, then
    /// spec resolution. Rejections are explicit backpressure, never queued.
    fn admit(&mut self, tenant: String, priority: u8, spec: String) -> proto::Msg {
        let retry = self.cfg.retry_after_ms;
        if self.pending.len() >= self.cfg.max_pending {
            return self.reject(tenant, "pending queue full".into(), retry);
        }
        let live = |c: &&Campaign| {
            matches!(c.state, CampaignState::Pending | CampaignState::Running) && c.tenant == tenant
        };
        if self.campaigns.values().filter(live).count() >= self.cfg.tenant_quota {
            return self.reject(tenant, "tenant quota exceeded".into(), retry);
        }
        let Some(wf) = (self.resolver)(&spec) else {
            return self.reject(tenant, "unknown spec".into(), 0);
        };
        if let Err(e) = wf.def.validate() {
            return self.reject(tenant, format!("invalid workflow: {e}"), 0);
        }
        let id = self.order.len() as u64 + 1;
        self.campaigns.insert(
            id,
            Campaign {
                tenant,
                priority,
                state: CampaignState::Pending,
                wf: Some(wf),
                submitted_at: Instant::now(),
                saw_first_result: false,
                done: 0,
                total: 0,
                p95_ms: 0.0,
                outputs: None,
            },
        );
        self.order.push(id);
        self.pending.push_back(id);
        let more = [("spec", spec), ("priority", priority.to_string())];
        self.transition(Severity::Info, "submitted", id, &more);
        proto::Msg::Accept { id }
    }

    /// Hand pending campaigns to the engine while concurrency slots are free.
    fn start_pending(&mut self) {
        while self.engine.runs.len() < self.cfg.max_active {
            let Some(id) = self.pending.pop_front() else { return };
            let c = self.campaigns.get_mut(&id).expect("pending id is in the directory");
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
                events: self.cfg.events.clone(),
            });
            let ctxs = ActivityCtx::build_all(&wf.def, &run);
            c.state = CampaignState::Running;
            self.engine.add_run(id, &c.tenant, c.priority, Arc::new(wf.def), &wf.input, ctxs);
            self.transition(Severity::Info, "started", id, &[("wkfid", wkf.0.to_string())]);
        }
    }

    /// Book what the engine's last turn did to the campaigns: a first
    /// result, and runs that closed — `Finished` when the pipeline did,
    /// `Cancelled` when the client asked and the in-flight tail has drained.
    fn reap(&mut self) {
        let closed = std::mem::take(&mut self.engine.closed);
        for run in self.engine.runs.iter().chain(&closed) {
            let c = self.campaigns.get_mut(&run.id).expect("every run is in the directory");
            if !c.saw_first_result && run.tally.finished > 0 {
                c.saw_first_result = true;
                if let Some(h) = self.tel.histogram("campaign.first_result") {
                    h.record(c.submitted_at.elapsed().as_nanos() as u64);
                }
            }
        }
        for run in closed {
            let (id, activations) = (run.id, ("activations", run.done.to_string()));
            let c = self.campaigns.get_mut(&id).expect("every run is in the directory");
            (c.done, c.total, c.p95_ms) = (run.done, run.submitted(), run.p95_ms(&self.tel));
            // the campaign's terminal rows must survive a daemon crash
            self.prov.flush_wal();
            if run.cancelled {
                c.state = CampaignState::Cancelled;
                self.transition(Severity::Warn, "cancelled", id, &[]);
            } else {
                c.state = CampaignState::Finished;
                c.outputs = Some(run.into_outputs());
                self.transition(Severity::Info, "finished", id, &[activations]);
            }
        }
    }

    /// `Some(true)` = was live and is now cancelled (or draining toward
    /// it); `Some(false)` = already terminal; `None` = unknown id.
    fn cancel(&mut self, id: u64) -> Option<bool> {
        let c = self.campaigns.get_mut(&id)?;
        Some(match c.state {
            CampaignState::Pending => {
                c.state = CampaignState::Cancelled;
                c.wf = None;
                self.pending.retain(|&p| p != id);
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
        let row = |&id: &u64| {
            let c = &self.campaigns[&id];
            // a live campaign's p95 costs a sort; a terminal one's was taken
            // when it left the engine
            let (done, total, p95_ms) = match self.engine.run(id) {
                Some(r) => (r.done, r.submitted(), r.p95_ms(&self.tel)),
                None => (c.done, c.total, c.p95_ms),
            };
            let state = c.state.as_str().to_string();
            CampaignRow { id, tenant: c.tenant.clone(), state, done, total, p95_ms }
        };
        obs.set_campaigns(self.order.iter().map(row).collect());
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

    /// On the thread port `begin` → execute → `settle` run on the worker
    /// threads: every `activation` span — which encloses `settle`, and so
    /// the provenance commit — is on a `scidockd-worker-*` track, none on the
    /// engine thread's, and two slow activations overlap in wall time.
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
            ServeConfig::new().with_workers(2).with_telemetry(tel.clone()),
            resolver,
            Arc::new(ProvenanceStore::new()),
        )
        .expect("daemon starts");
        let mut client = ServeClient::connect(daemon.addr()).expect("connect");
        let SubmitOutcome::Accepted { id } = client.submit("t", 0, "slow").expect("submit io")
        else {
            panic!("campaign must be admitted")
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while client.status(id).expect("status io").state != CampaignState::Finished {
            assert!(Instant::now() < deadline, "campaign never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
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
}
