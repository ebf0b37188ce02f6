//! `scidockd` — the always-on campaign daemon, as a process.
//!
//! Binds the `SDC1` submission endpoint, resolves campaign specs through
//! the shared [`scidock_bench::distspec`] registry (so `scidock:ad4:4x8`
//! and `unit:spin:16:5` both work), and serves many concurrent campaigns
//! from many tenants over one shared elastic worker fleet, one durable
//! provenance store and one bounded receptor tier (a receptor is screened,
//! prepared, loaded and rendered once per daemon, not once per campaign).
//!
//! ```sh
//! scidockd --addr 127.0.0.1:7878 --workers 4 --max-workers 8 \
//!          --metrics-addr 127.0.0.1:9464 --wal /tmp/scidockd.wal
//! ```
//!
//! The fleet starts at `--workers` clamped into `--min-workers` (default 1)
//! and `--max-workers` (default 8); a queue-depth policy grows and shrinks it
//! within them when they differ, and equal bounds keep it fixed.
//!
//! Observability costs nothing unless asked for: `--metrics-addr` attaches
//! one telemetry handle, shared by the daemon, the store and the docking
//! side, and serves it with the event ring on `/metrics` and `/events`;
//! `--events FILE` appends every event to `FILE`. With neither, the daemon
//! keeps no spans, metrics or events.
//!
//! The daemon runs until stdin reaches EOF (pipe from `/dev/null` &
//! background it for service use; press Ctrl-D interactively), then shuts
//! down gracefully: in-flight activations finish and the WAL is flushed.

use std::sync::Arc;
use std::time::Duration;

use cumulus::obs::EventLog;
use cumulus::serve::{Daemon, RunConfig};
use cumulus::{QueueDepthConfig, QueueDepthScheduler, SchedulerFactory};
use provenance::{DurableOptions, ProvenanceStore};
use scidock::ReceptorCache;
use telemetry::Telemetry;

fn usage() -> ! {
    eprintln!(
        "usage: scidockd [--addr HOST:PORT] [--workers N] [--min-workers N] [--max-workers N]\n\
         \x20               [--max-active N] [--max-pending N] [--tenant-quota N]\n\
         \x20               [--retry-after-ms MS] [--steering-ms MS]\n\
         \x20               [--metrics-addr HOST:PORT] [--events FILE] [--wal FILE]\n\
         \x20               [--grid-cache-dir DIR]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("scidockd: {flag} needs a value");
        usage()
    })
}

/// What the command line asks for: the run config, with its observability
/// sinks, and the store and grid directories.
struct Flags {
    cfg: RunConfig,
    wal: Option<String>,
    grid_dir: Option<String>,
}

/// Parse `scidockd`'s flags. A sink exists only for its reader: telemetry
/// is attached only for `--metrics-addr`, whose endpoint serves it, and an
/// event log is created only for `--events FILE`, and it buffers nothing:
/// only an endpoint keeps a ring for `/events`, the file log's or its own.
fn parse_flags(args: impl IntoIterator<Item = String>) -> Flags {
    let mut cfg = RunConfig {
        addr: "127.0.0.1:7878".into(),
        workers: 4,
        min_workers: 1,
        max_workers: 8,
        steering_tick: Some(Duration::from_millis(250)),
        ..RunConfig::default()
    };
    let mut wal: Option<String> = None;
    let mut grid_dir: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg.addr = parse(&mut args, "--addr"),
            "--workers" => cfg.workers = parse(&mut args, "--workers"),
            "--min-workers" => cfg.min_workers = parse(&mut args, "--min-workers"),
            "--max-workers" => cfg.max_workers = parse(&mut args, "--max-workers"),
            "--max-active" => cfg.max_active = parse(&mut args, "--max-active"),
            "--max-pending" => cfg.max_pending = parse(&mut args, "--max-pending"),
            "--tenant-quota" => cfg.tenant_quota = parse(&mut args, "--tenant-quota"),
            "--retry-after-ms" => cfg.retry_after_ms = parse(&mut args, "--retry-after-ms"),
            "--steering-ms" => {
                let ms = parse(&mut args, "--steering-ms");
                cfg.steering_tick = Some(Duration::from_millis(ms));
            }
            "--metrics-addr" => cfg.metrics_addr = Some(parse(&mut args, "--metrics-addr")),
            "--events" => {
                let path: String = parse(&mut args, "--events");
                match EventLog::with_file(&path) {
                    Ok(log) => cfg.events = Some(log),
                    Err(e) => {
                        eprintln!("scidockd: cannot open event sink {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--wal" => wal = Some(parse(&mut args, "--wal")),
            "--grid-cache-dir" => grid_dir = Some(parse(&mut args, "--grid-cache-dir")),
            _ => usage(),
        }
    }
    if cfg.metrics_addr.is_some() {
        cfg.telemetry = Telemetry::attached();
    }
    // the bounds the engine holds: `--min-workers 0` is a floor of 1, so
    // `--min-workers 0 --max-workers 1` is a fixed fleet
    let (floor, ceiling) = cfg.worker_bounds();
    if ceiling > floor {
        let bounds = QueueDepthConfig {
            min_workers: floor,
            max_workers: ceiling,
            ..QueueDepthConfig::default()
        };
        cfg.scheduler =
            Some(SchedulerFactory::new(move || Box::new(QueueDepthScheduler::new(bounds))));
    }
    Flags { cfg, wal, grid_dir }
}

fn main() {
    let Flags { cfg, wal, grid_dir } = parse_flags(std::env::args().skip(1));

    // the store's `provstore.*` and the docking side's `gridcache.*` /
    // `receptor.*` / `dock.evaluations` go to the daemon's own handle:
    // attached when an endpoint reads it, disabled otherwise
    let tel = cfg.telemetry.clone();
    let prov = match &wal {
        Some(path) => {
            let options = DurableOptions { telemetry: tel.clone(), ..Default::default() };
            match ProvenanceStore::open_with(path, options) {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    eprintln!("scidockd: cannot open WAL {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Arc::new(ProvenanceStore::new()),
    };

    // the daemon's one receptor tier, over the grid directory if given:
    // every campaign's workflow shares it, so a receptor is prepared once
    // per process and its map set built once, ever
    let receptors = grid_dir.map_or_else(ReceptorCache::default, ReceptorCache::on_disk);
    let resolver = scidock_bench::distspec::campaign_resolver(receptors, tel);
    let daemon = match Daemon::start(cfg, resolver, prov) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("scidockd: cannot start: {e}");
            std::process::exit(1);
        }
    };
    println!("scidockd: serving SDC1 on {}", daemon.addr());
    if wal.is_some() {
        println!("scidockd: provenance WAL enabled");
    }
    println!("scidockd: reading stdin; EOF shuts down");

    // block until the operator closes stdin, then drain gracefully
    let mut sink = String::new();
    let _ = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut sink);
    println!("scidockd: shutting down");
    daemon.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        parse_flags(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn no_flags_keep_no_event_log_and_no_telemetry() {
        let f = flags(&[]);
        assert!(f.cfg.events.is_none(), "an event log nobody reads");
        assert!(!f.cfg.telemetry.is_enabled(), "telemetry nobody reads");
        assert!(f.cfg.metrics_addr.is_none());
        assert_eq!((f.wal, f.grid_dir), (None, None));
    }

    #[test]
    fn an_endpoint_attaches_the_telemetry() {
        let f = flags(&["--metrics-addr", "127.0.0.1:0", "--wal", "wal-dir"]);
        assert!(f.cfg.telemetry.is_enabled());
        assert_eq!(f.cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        // the endpoint makes its own ring for `/events`
        assert!(f.cfg.events.is_none());
        assert_eq!(f.wal.as_deref(), Some("wal-dir"));
    }

    #[test]
    fn an_event_file_gets_a_file_log_and_no_telemetry() {
        let path = std::env::temp_dir()
            .join(format!("scidockd-flags-events-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let f = flags(&["--events", path.to_str().expect("a UTF-8 temp path")]);
        assert!(!f.cfg.telemetry.is_enabled());
        let log = f.cfg.events.expect("an event log");
        log.emit(0.5, cumulus::obs::Severity::Info, "probe", &[]);
        let written = std::fs::read_to_string(&path).expect("the event file");
        let _ = std::fs::remove_file(&path);
        assert!(written.contains("\"kind\":\"probe\""), "not in the file: {written}");
        // no endpoint reads a ring, so the log keeps none
        assert!(log.events().is_empty(), "a ring nobody reads");
    }

    /// `--min-workers 0` is a floor of one: under a ceiling of one the fleet
    /// is fixed, as with `--min-workers 1`, and under a higher ceiling a
    /// policy moves it; the order of the two flags does not matter.
    #[test]
    fn a_floor_of_zero_workers_is_a_floor_of_one() {
        for args in [
            ["--min-workers", "0", "--max-workers", "1"],
            ["--max-workers", "1", "--min-workers", "0"],
            ["--min-workers", "1", "--max-workers", "1"],
        ] {
            assert!(flags(&args).cfg.scheduler.is_none(), "{args:?}: a fixed fleet of one");
        }
        assert!(flags(&["--min-workers", "0", "--max-workers", "2"]).cfg.scheduler.is_some());
        assert!(flags(&["--min-workers", "0"]).cfg.scheduler.is_some(), "1..=8");
    }
}
