//! The live observability plane: a structured event log, a per-worker
//! health view, and a std-only HTTP exposition endpoint serving
//! `/metrics` (Prometheus text exposition), `/snapshot.json`, `/healthz`,
//! `/events` and `/campaigns`.
//!
//! Every backend can attach an [`EventLog`] (the simulator emits at
//! *simulated* timestamps so a sim mirror of a run produces the same event
//! sequence), and every real run — a local or distributed one, `scidockd` —
//! can additionally bind an HTTP listener at its `metrics_addr` so the
//! state is scrapeable mid-run. Observation never perturbs results: the plane only reads
//! engine state, and canonical provenance is byte-identical with it on or
//! off.

use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use telemetry::Telemetry;

use crate::distbackend::proto::MAX_FRAME;

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
/// * **v3** — one vocabulary for every run: a one-shot run (local, dist, a
///   simulated mirror) is campaign 1 of the anonymous tenant and emits the
///   campaign kinds; `run_started`, `run_finished` and `run_error` are
///   gone, and an engine error is `engine_error` everywhere.
pub const EVENT_SCHEMA_VERSION: u32 = 3;

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
}

#[cfg(test)]
impl ObsEvent {
    /// The event minus its timing: `(severity, kind, fields)` — what parity
    /// tests compare across backends.
    pub(crate) fn signature(&self) -> (&'static str, String, Vec<(String, String)>) {
        (self.severity.as_str(), self.kind.clone(), self.fields.clone())
    }

    /// [`ObsEvent::signature`] minus backend-specific resource identifiers
    /// ([`PARITY_EXCLUDED_FIELDS`]) — what the cross-backend parity tests
    /// compare. A simulated mirror of a run names activations synthetically
    /// (the simulator models costs, not data) and has VMs where the real
    /// backends have threads or worker processes, so pair keys and resource
    /// ids legitimately differ while the lifecycle sequence must not.
    pub(crate) fn parity_signature(&self) -> (&'static str, String, Vec<(String, String)>) {
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
/// thread, a worker process, a simulated VM), which workflow id the store
/// gave the run (a simulation without a store has none) and how the backend
/// names them are substrate details; the lifecycle itself (kind, severity,
/// activity, attempt, outcome counts) must match across substrates.
#[cfg(test)]
const PARITY_EXCLUDED_FIELDS: &[&str] =
    &["worker", "vm", "fleet", "key", "job", "elapsed_ms", "threshold_ms", "wkfid"];

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
/// from `/events`) or a JSONL sink file, or both when a run scope serves a
/// file log from its endpoint. Sequence numbers are monotonic for the
/// lifetime of the log.
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
        EventLog::with_ring(Self::RING_CAP, None)
    }

    /// A log that appends each event line to `path` and buffers none,
    /// unless a run scope binds an endpoint over it, which turns the ring
    /// on for `/events`.
    pub fn with_file(path: impl AsRef<std::path::Path>) -> std::io::Result<EventLog> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog::with_ring(0, Some(f)))
    }

    fn with_ring(cap: usize, sink: Option<std::fs::File>) -> EventLog {
        EventLog {
            inner: Arc::new(EventLogInner {
                ring: Mutex::new(EventRing { buf: VecDeque::new(), cap, next_seq: 0 }),
                sink: Mutex::new(sink),
            }),
        }
    }

    /// Buffer the newest events from now on, for an endpoint to serve.
    pub(crate) fn keep_ring(&self) {
        self.inner.ring.lock().expect("event ring poisoned").cap = Self::RING_CAP;
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
            if g.cap > 0 {
                if g.buf.len() == g.cap {
                    g.buf.pop_front();
                }
                g.buf.push_back(ev.clone());
            }
            ev
        };
        let mut sink = self.inner.sink.lock().expect("event sink poisoned");
        if let Some(f) = sink.as_mut() {
            let _ = writeln!(f, "{}", ev.to_json());
        }
    }

    /// All buffered events, oldest first (the ring keeps the newest 4096;
    /// a file log keeps none until an endpoint serves it).
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
    fn to_jsonl(&self) -> String {
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
/// scheduling tick, and the per-campaign rows.
#[derive(Debug, Clone)]
pub struct ObsState {
    /// Collector the endpoint snapshots for `/metrics` and `/snapshot.json`.
    pub tel: Telemetry,
    /// Event log served from `/events`.
    pub events: EventLog,
    /// Health view served from `/healthz`.
    pub health: Arc<Mutex<HealthView>>,
    /// Campaign rows served from `/campaigns`: a one-shot run's one
    /// campaign, or every campaign `scidockd` was sent.
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

    /// Replace the campaign rows (called by the campaign directory's loop).
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
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, state: &ObsState) {
    let deadline = Instant::now() + Duration::from_millis(500);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // read the request head (any body is ignored) within 500 ms of the accept
    while len < buf.len() {
        // once none is left, the zero timeout is an error: the head ends
        let left = deadline.saturating_duration_since(Instant::now());
        match stream.set_read_timeout(Some(left)).and_then(|()| stream.read(&mut buf[len..])) {
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

/// Longest response head [`http_get`] reads.
const MAX_RESPONSE_HEAD: usize = 64 << 10;

/// Minimal std-only HTTP GET against the exposition endpoint: returns
/// `(status code, body)`. Used by `scidock-top`, the benchmark's scrape
/// and tests — no curl required. Whatever the address answers, the read is
/// bounded: a head over 64 KiB or a body over the wire codecs' 64 MiB frame
/// cap is an `InvalidData` error (the endpoint's largest body is far
/// smaller).
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut body = Vec::new();
    stream.take((MAX_RESPONSE_HEAD + MAX_FRAME) as u64 + 1).read_to_end(&mut body)?;
    let head: Vec<u8> = match body.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) => body.drain(..at + 4).collect(),
        None => std::mem::take(&mut body),
    };
    if head.len() > MAX_RESPONSE_HEAD || body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("HTTP response over {MAX_RESPONSE_HEAD} head or {MAX_FRAME} body bytes"),
        ));
    }
    let status = String::from_utf8_lossy(&head)
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let body = String::from_utf8(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
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
            assert!(line.contains("\"v\":3"));
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

    /// A file log nobody serves buffers nothing: every event goes to the
    /// file alone, until an endpoint turns the ring on.
    #[test]
    fn a_file_log_buffers_no_event_but_writes_every_line() {
        let path =
            std::env::temp_dir().join(format!("obs-sink-unbuffered-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = EventLog::with_file(&path).unwrap();
        for i in 0..5 {
            log.emit(i as f64, Severity::Info, "tick", &[]);
        }
        assert!(log.events().is_empty(), "a file log keeps no ring");
        assert_eq!(log.len(), 5);
        log.keep_ring();
        log.emit(5.0, Severity::Info, "served", &[]);
        let evs = log.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5]);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 6, "every event written: {text}");
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

    /// `http_get` against a listener on this host that reads one request
    /// head and answers `200` with a body of `len` bytes, written a MiB at a
    /// time.
    fn get_a_body_of(len: usize) -> std::io::Result<(u16, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                head.push(byte[0]);
            }
            let _ = write!(stream, "HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n");
            let chunk = vec![b'x'; 1 << 20];
            let mut left = len;
            while left > 0 {
                let n = left.min(chunk.len());
                // the client hangs up once a body is over the cap
                if stream.write_all(&chunk[..n]).is_err() {
                    return;
                }
                left -= n;
            }
        });
        let got = http_get(addr, "/", Duration::from_secs(20));
        server.join().expect("the listener thread");
        got
    }

    #[test]
    fn http_get_reads_a_body_at_the_frame_cap_and_refuses_one_byte_more() {
        let (code, body) = get_a_body_of(MAX_FRAME).unwrap();
        assert_eq!((code, body.len()), (200, MAX_FRAME));
        drop(body);
        let err = get_a_body_of(MAX_FRAME + 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    /// A request head that fills the 4,096-byte read buffer without its
    /// blank line is answered from its first line.
    #[test]
    fn a_full_request_head_without_its_blank_line_is_answered() {
        let state = ObsState::new(Telemetry::disabled(), EventLog::new());
        let srv = ObsServer::start("127.0.0.1:0", state).unwrap();
        let mut stream = TcpStream::connect(srv.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(4096, b'a');
        stream.write_all(&head).unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        srv.shutdown();
    }

    /// A client that sends its request head a byte every 300 ms holds the
    /// one-connection listener for the head's deadline, not for as long as
    /// it keeps sending: a `/healthz` behind it is answered within 2 s. Its
    /// connect returns first, so the listener's FIFO accept takes it first.
    #[test]
    fn a_trickling_client_does_not_hold_the_endpoint() {
        let state = ObsState::new(Telemetry::disabled(), EventLog::new());
        let srv = ObsServer::start("127.0.0.1:0", state).unwrap();
        let mut slow = TcpStream::connect(srv.addr()).unwrap();
        let trickle = std::thread::spawn(move || {
            for &b in b"GET /healthz HTTP/1.1\r\n" {
                if slow.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        let (code, _) = http_get(srv.addr(), "/healthz", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        trickle.join().unwrap();
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
