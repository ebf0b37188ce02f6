//! The live observability plane: a structured event log, a per-worker
//! health view, and a std-only HTTP exposition endpoint serving
//! `/metrics` (Prometheus text exposition), `/snapshot.json`, `/healthz`
//! and `/events`.
//!
//! Every backend can attach an [`EventLog`] (the simulator emits at
//! *simulated* timestamps so a sim mirror of a run produces the same event
//! sequence), and the local and distributed backends can additionally bind
//! an HTTP listener with `with_metrics_addr` so the state is scrapeable
//! mid-run. Observation never perturbs results: the plane only reads
//! engine state, and canonical provenance is byte-identical with it on or
//! off.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use telemetry::Telemetry;

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Normal lifecycle progress.
    Info,
    /// Something degraded but handled (a retry, a straggler, a blacklist).
    Warn,
    /// Something was lost (a worker, a permanently failed activation).
    Error,
}

impl Severity {
    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One structured event. The JSONL schema is stable: `v` (schema version),
/// `seq` (monotonic per log), `t_s` (seconds — wall for real backends,
/// simulated for the simulator), `sev`, `kind`, then the event's fields in
/// emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Monotonic sequence number within this log.
    pub seq: u64,
    /// Event time, seconds since the run epoch.
    pub t_s: f64,
    /// Severity.
    pub severity: Severity,
    /// Stable event kind (e.g. `activation_finished`, `worker_lost`).
    pub kind: String,
    /// Key/value detail fields in emission order.
    pub fields: Vec<(String, String)>,
}

/// Schema version stamped into every event line.
///
/// History:
/// * **v1** — run/activation/fleet/worker lifecycle kinds.
/// * **v2** — adds the campaign lifecycle kinds emitted by `scidockd`
///   (`campaign_submitted`, `campaign_started`, `campaign_finished`,
///   `campaign_rejected`, `campaign_cancelled`). Purely additive: every v1
///   kind and field is unchanged, so v1 consumers can read v2 streams by
///   ignoring unknown kinds.
pub const EVENT_SCHEMA_VERSION: u32 = 2;

impl ObsEvent {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"v\":{EVENT_SCHEMA_VERSION},\"seq\":{},\"t_s\":{},\"sev\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            telemetry::json::num(self.t_s),
            self.severity.as_str(),
            telemetry::json::escape(&self.kind)
        );
        for (k, v) in &self.fields {
            let _ =
                write!(s, ",\"{}\":\"{}\"", telemetry::json::escape(k), telemetry::json::escape(v));
        }
        s.push('}');
        s
    }

    /// The event minus its timing: `(severity, kind, fields)` — what parity
    /// tests compare across backends.
    pub fn signature(&self) -> (&'static str, String, Vec<(String, String)>) {
        (self.severity.as_str(), self.kind.clone(), self.fields.clone())
    }

    /// [`ObsEvent::signature`] minus backend-specific resource identifiers
    /// ([`PARITY_EXCLUDED_FIELDS`]) — what the cross-backend parity tests
    /// compare. A simulated mirror of a run names activations synthetically
    /// (the simulator models costs, not data) and has VMs where the real
    /// backends have threads or worker processes, so pair keys and resource
    /// ids legitimately differ while the lifecycle sequence must not.
    pub fn parity_signature(&self) -> (&'static str, String, Vec<(String, String)>) {
        let fields = self
            .fields
            .iter()
            .filter(|(k, _)| !PARITY_EXCLUDED_FIELDS.contains(&k.as_str()))
            .cloned()
            .collect();
        (self.severity.as_str(), self.kind.clone(), fields)
    }
}

/// Field names carrying backend-specific resource identity, excluded from
/// [`ObsEvent::parity_signature`]: which *resource* served an activation (a
/// thread, a worker process, a simulated VM) and how the backend names it
/// are substrate details; the lifecycle itself (kind, severity, activity,
/// attempt, outcome counts) must match across substrates.
pub const PARITY_EXCLUDED_FIELDS: &[&str] =
    &["backend", "workers", "worker", "vm", "fleet", "key", "job", "elapsed_ms", "threshold_ms"];

#[derive(Debug)]
struct EventLogInner {
    ring: Mutex<EventRing>,
    sink: Mutex<Option<std::fs::File>>,
}

#[derive(Debug)]
struct EventRing {
    buf: VecDeque<ObsEvent>,
    cap: usize,
    next_seq: u64,
}

/// A cloneable, thread-safe structured event log: an in-memory ring (served
/// from `/events`) plus an optional JSONL sink file. Sequence numbers are
/// monotonic for the lifetime of the log.
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<EventLogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

impl EventLog {
    const RING_CAP: usize = 4096;

    /// An in-memory log.
    pub fn new() -> EventLog {
        EventLog {
            inner: Arc::new(EventLogInner {
                ring: Mutex::new(EventRing {
                    buf: VecDeque::new(),
                    cap: Self::RING_CAP,
                    next_seq: 0,
                }),
                sink: Mutex::new(None),
            }),
        }
    }

    /// A log that additionally appends each event line to `path`.
    pub fn with_file(path: impl AsRef<std::path::Path>) -> std::io::Result<EventLog> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let log = EventLog::new();
        *log.inner.sink.lock().expect("event sink poisoned") = Some(f);
        Ok(log)
    }

    /// Emit one event at `t_s` seconds since the run epoch (simulated
    /// seconds for the simulator). Assigns the next sequence number.
    pub fn emit(&self, t_s: f64, severity: Severity, kind: &str, fields: &[(&str, String)]) {
        let ev = {
            let mut g = self.inner.ring.lock().expect("event ring poisoned");
            let ev = ObsEvent {
                seq: g.next_seq,
                t_s,
                severity,
                kind: kind.to_string(),
                fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            };
            g.next_seq += 1;
            if g.buf.len() == g.cap {
                g.buf.pop_front();
            }
            g.buf.push_back(ev.clone());
            ev
        };
        let mut sink = self.inner.sink.lock().expect("event sink poisoned");
        if let Some(f) = sink.as_mut() {
            let _ = writeln!(f, "{}", ev.to_json());
        }
    }

    /// All buffered events, oldest first (the ring keeps the newest 4096).
    pub fn events(&self) -> Vec<ObsEvent> {
        self.inner.ring.lock().expect("event ring poisoned").buf.iter().cloned().collect()
    }

    /// Number of events emitted over the log's lifetime.
    pub fn len(&self) -> u64 {
        self.inner.ring.lock().expect("event ring poisoned").next_seq
    }

    /// True when nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered events as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for ev in self.events() {
            s.push_str(&ev.to_json());
            s.push('\n');
        }
        s
    }
}

/// Resolves to the observability listener's actual bound address once the
/// run has started — pass `"127.0.0.1:0"` as the metrics address and read
/// the ephemeral port from here.
#[derive(Debug, Clone, Default)]
pub struct BoundAddr {
    cell: Arc<OnceLock<SocketAddr>>,
}

impl BoundAddr {
    /// A fresh, unresolved handle.
    pub fn new() -> BoundAddr {
        BoundAddr::default()
    }

    /// The bound address, if the listener is up.
    pub fn get(&self) -> Option<SocketAddr> {
        self.cell.get().copied()
    }

    /// Poll for the bound address for up to `timeout`.
    pub fn wait(&self, timeout: Duration) -> Option<SocketAddr> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(a) = self.get() {
                return Some(a);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub(crate) fn set(&self, addr: SocketAddr) {
        let _ = self.cell.set(addr);
    }
}

/// Liveness of one worker as seen by the master.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerHealth {
    /// Worker index.
    pub id: usize,
    /// Still connected (false the moment the master sees the socket drop).
    pub alive: bool,
    /// Draining (no new work) ahead of retirement.
    pub draining: bool,
    /// Milliseconds since the last frame from this worker.
    pub last_seen_ms: u64,
    /// Activations currently dispatched to it.
    pub in_flight: usize,
    /// In-flight activations currently flagged as stragglers.
    pub stragglers: usize,
}

/// Point-in-time fleet health, served from `/healthz`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthView {
    /// Run phase: `starting`, `running`, `draining` or `done`.
    pub phase: String,
    /// Provisioned fleet size (connected + launching workers).
    pub fleet: usize,
    /// Per-worker liveness.
    pub workers: Vec<WorkerHealth>,
}

impl HealthView {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"phase\":\"{}\",\"fleet\":{},\"workers\":[",
            telemetry::json::escape(&self.phase),
            self.fleet
        );
        for (i, w) in self.workers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"id\":{},\"alive\":{},\"draining\":{},\"last_seen_ms\":{},\
                 \"in_flight\":{},\"stragglers\":{}}}",
                w.id, w.alive, w.draining, w.last_seen_ms, w.in_flight, w.stragglers
            );
        }
        s.push_str("]}");
        s
    }
}

/// One campaign's row in the `/campaigns` listing — what `scidock-top`
/// renders per campaign when pointed at a `scidockd` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Campaign id assigned at admission.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state (`pending`, `running`, `finished`, `cancelled`,
    /// `failed`).
    pub state: String,
    /// Completed activations.
    pub done: u64,
    /// Activations submitted to the dispatcher so far.
    pub total: u64,
    /// 95th-percentile activation latency, milliseconds.
    pub p95_ms: f64,
}

impl CampaignRow {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"tenant\":\"{}\",\"state\":\"{}\",\"done\":{},\"total\":{},\
             \"p95_ms\":{}}}",
            self.id,
            telemetry::json::escape(&self.tenant),
            telemetry::json::escape(&self.state),
            self.done,
            self.total,
            telemetry::json::num(self.p95_ms)
        )
    }
}

fn campaigns_to_json(rows: &[CampaignRow]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&r.to_json());
    }
    s.push(']');
    s
}

/// Shared state behind the HTTP endpoint: the (merged) telemetry collector,
/// the event log, the mutable health view the engine refreshes on every
/// scheduling tick, and (for `scidockd`) the per-campaign rows.
#[derive(Debug, Clone)]
pub struct ObsState {
    /// Collector the endpoint snapshots for `/metrics` and `/snapshot.json`.
    pub tel: Telemetry,
    /// Event log served from `/events`.
    pub events: EventLog,
    /// Health view served from `/healthz`.
    pub health: Arc<Mutex<HealthView>>,
    /// Campaign rows served from `/campaigns` (empty outside `scidockd`).
    pub campaigns: Arc<Mutex<Vec<CampaignRow>>>,
}

impl ObsState {
    /// Fresh state over the given collector and event log.
    pub fn new(tel: Telemetry, events: EventLog) -> ObsState {
        ObsState {
            tel,
            events,
            health: Arc::new(Mutex::new(HealthView::default())),
            campaigns: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Replace the health view (called by the engine's scheduling loop).
    pub fn set_health(&self, view: HealthView) {
        *self.health.lock().expect("health view poisoned") = view;
    }

    /// Replace the campaign rows (called by the `scidockd` engine loop).
    pub fn set_campaigns(&self, rows: Vec<CampaignRow>) {
        *self.campaigns.lock().expect("campaign rows poisoned") = rows;
    }
}

/// The HTTP exposition listener. Binding happens in [`ObsServer::start`];
/// the accept loop runs on its own thread and is joined by
/// [`ObsServer::shutdown`] (or on drop).
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) and
    /// start serving `state`.
    pub fn start(addr: &str, state: ObsState) -> std::io::Result<ObsServer> {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("unresolvable metrics addr {addr}")))?;
        let listener = TcpListener::bind(sockaddr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("scidock-obs".into())
            .spawn(move || serve_loop(listener, state, stop2))
            .expect("spawn obs server thread");
        Ok(ObsServer { addr, stop, thread: Some(thread) })
    }

    /// The address the listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(listener: TcpListener, state: ObsState, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, &state),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, state: &ObsState) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // read until the end of the request head (we ignore any body)
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let path = target.split('?').next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                telemetry::prom::render(&state.tel.snapshot().unwrap_or_default()),
            ),
            "/snapshot.json" => {
                ("200 OK", "application/json", state.tel.snapshot().unwrap_or_default().to_json())
            }
            "/healthz" => (
                "200 OK",
                "application/json",
                state.health.lock().expect("health view poisoned").to_json(),
            ),
            "/events" => ("200 OK", "application/x-ndjson", state.events.to_jsonl()),
            "/campaigns" => (
                "200 OK",
                "application/json",
                campaigns_to_json(&state.campaigns.lock().expect("campaign rows poisoned")),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Minimal std-only HTTP GET against the exposition endpoint: returns
/// `(status code, body)`. Used by `scidock-top`, the benchmark's scrape
/// and tests — no curl required.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    let status = resp
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_assigns_monotonic_seqs_and_valid_jsonl() {
        let log = EventLog::new();
        log.emit(0.0, Severity::Info, "run_started", &[("workflow", "SciDock".to_string())]);
        log.emit(1.5, Severity::Warn, "straggler", &[("pair", "1AEC:042".to_string())]);
        log.emit(2.0, Severity::Error, "worker_lost", &[("worker", "1".to_string())]);
        let evs = log.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(log.len(), 3);
        for line in log.to_jsonl().lines() {
            telemetry::json::validate(line)
                .unwrap_or_else(|off| panic!("invalid event JSON at byte {off}: {line}"));
            assert!(line.contains("\"v\":2"));
        }
        assert_eq!(evs[1].signature().1, "straggler");
    }

    #[test]
    fn event_log_sink_file_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!("obs-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::with_file(&path).unwrap();
        log.emit(0.0, Severity::Info, "a", &[]);
        log.emit(0.1, Severity::Info, "b", &[("k", "v".to_string())]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"kind\":\"b\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_caps_but_seq_keeps_counting() {
        let log = EventLog::new();
        for i in 0..(EventLog::RING_CAP as u64 + 10) {
            log.emit(i as f64, Severity::Info, "tick", &[]);
        }
        let evs = log.events();
        assert_eq!(evs.len(), EventLog::RING_CAP);
        assert_eq!(evs.last().unwrap().seq, EventLog::RING_CAP as u64 + 9);
        assert_eq!(log.len(), EventLog::RING_CAP as u64 + 10);
    }

    #[test]
    fn server_serves_all_routes() {
        let tel = Telemetry::attached();
        tel.count("dist.jobs", 4);
        tel.histogram("activation.dock").unwrap().record(2_000_000);
        let events = EventLog::new();
        events.emit(0.0, Severity::Info, "run_started", &[]);
        let state = ObsState::new(tel, events);
        state.set_health(HealthView {
            phase: "running".into(),
            fleet: 2,
            workers: vec![WorkerHealth {
                id: 0,
                alive: true,
                draining: false,
                last_seen_ms: 12,
                in_flight: 1,
                stragglers: 0,
            }],
        });
        let srv = ObsServer::start("127.0.0.1:0", state.clone()).unwrap();
        let addr = srv.addr();
        let t = Duration::from_secs(2);

        let (code, body) = http_get(addr, "/metrics", t).unwrap();
        assert_eq!(code, 200);
        let samples = telemetry::prom::parse(&body).expect("valid exposition");
        assert!(samples.iter().any(|s| s.name == "scidock_dist_jobs_total" && s.value == 4.0));

        let (code, body) = http_get(addr, "/snapshot.json", t).unwrap();
        assert_eq!(code, 200);
        telemetry::json::validate(&body).expect("valid snapshot JSON");

        let (code, body) = http_get(addr, "/healthz", t).unwrap();
        assert_eq!(code, 200);
        telemetry::json::validate(&body).expect("valid health JSON");
        assert!(body.contains("\"phase\":\"running\"") && body.contains("\"alive\":true"));

        let (code, body) = http_get(addr, "/events", t).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("\"kind\":\"run_started\""));

        let (code, body) = http_get(addr, "/campaigns", t).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "[]", "no campaigns registered yet");
        state.set_campaigns(vec![CampaignRow {
            id: 7,
            tenant: "alice".into(),
            state: "running".into(),
            done: 3,
            total: 9,
            p95_ms: 12.5,
        }]);
        let (code, body) = http_get(addr, "/campaigns", t).unwrap();
        assert_eq!(code, 200);
        telemetry::json::validate(&body).expect("valid campaigns JSON");
        assert!(body.contains("\"tenant\":\"alice\"") && body.contains("\"total\":9"));

        let (code, _) = http_get(addr, "/nope", t).unwrap();
        assert_eq!(code, 404);
        srv.shutdown();
    }

    #[test]
    fn bound_addr_resolves_once_started() {
        let state = ObsState::new(Telemetry::disabled(), EventLog::new());
        let bound = BoundAddr::new();
        assert!(bound.get().is_none());
        let srv = ObsServer::start("127.0.0.1:0", state).unwrap();
        bound.set(srv.addr());
        assert_eq!(bound.wait(Duration::from_secs(1)), Some(srv.addr()));
        // /metrics works even with telemetry disabled (empty exposition)
        let (code, body) = http_get(srv.addr(), "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert!(telemetry::prom::parse(&body).unwrap().is_empty());
    }
}
