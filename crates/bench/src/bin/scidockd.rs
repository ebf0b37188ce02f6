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
//! With `--max-workers` above `--min-workers` (the defaults are 1 and 8) a
//! queue-depth policy grows and shrinks the fleet within those bounds;
//! equal bounds keep a fixed fleet of `--workers`.
//!
//! The daemon runs until stdin reaches EOF (pipe from `/dev/null` &
//! background it for service use; press Ctrl-D interactively), then shuts
//! down gracefully: in-flight activations finish and the WAL is flushed.

use std::sync::Arc;
use std::time::Duration;

use cumulus::obs::EventLog;
use cumulus::serve::{Daemon, ServeConfig};
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

fn main() {
    let mut cfg = ServeConfig::new()
        .with_addr("127.0.0.1:7878")
        .with_workers(4)
        .with_worker_bounds(1, 8)
        .with_steering_tick(Duration::from_millis(250))
        .with_telemetry(Telemetry::attached())
        .with_events(EventLog::new());
    let mut wal: Option<String> = None;
    let mut grid_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg = cfg.with_addr(parse::<String>(&mut args, "--addr")),
            "--workers" => cfg = cfg.with_workers(parse(&mut args, "--workers")),
            "--min-workers" => {
                let min: usize = parse(&mut args, "--min-workers");
                let max = cfg.max_workers.max(min);
                cfg = cfg.with_worker_bounds(min, max);
            }
            "--max-workers" => {
                let max: usize = parse(&mut args, "--max-workers");
                let min = cfg.min_workers.min(max);
                cfg = cfg.with_worker_bounds(min, max);
            }
            "--max-active" => cfg = cfg.with_max_active(parse(&mut args, "--max-active")),
            "--max-pending" => cfg = cfg.with_max_pending(parse(&mut args, "--max-pending")),
            "--tenant-quota" => cfg = cfg.with_tenant_quota(parse(&mut args, "--tenant-quota")),
            "--retry-after-ms" => {
                cfg = cfg.with_retry_after_ms(parse(&mut args, "--retry-after-ms"));
            }
            "--steering-ms" => {
                cfg = cfg
                    .with_steering_tick(Duration::from_millis(parse(&mut args, "--steering-ms")));
            }
            "--metrics-addr" => {
                cfg = cfg.with_metrics_addr(parse::<String>(&mut args, "--metrics-addr"));
            }
            "--events" => {
                let path: String = parse(&mut args, "--events");
                match EventLog::with_file(&path) {
                    Ok(log) => cfg = cfg.with_events(log),
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
    if cfg.max_workers > cfg.min_workers {
        let bounds = QueueDepthConfig {
            min_workers: cfg.min_workers,
            max_workers: cfg.max_workers,
            ..QueueDepthConfig::default()
        };
        cfg = cfg.with_scheduler(SchedulerFactory::new(move || {
            Box::new(QueueDepthScheduler::new(bounds))
        }));
    }

    // with an endpoint to read them at, the store's `provstore.*` and the
    // docking side's `gridcache.*` / `receptor.*` / `dock.evaluations` go
    // where the daemon's own metrics do; otherwise they stay detached
    let layer_tel =
        if cfg.metrics_addr.is_some() { cfg.telemetry.clone() } else { Telemetry::disabled() };
    let prov = match &wal {
        Some(path) => {
            let options = DurableOptions { telemetry: layer_tel.clone(), ..Default::default() };
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
    let resolver = scidock_bench::distspec::campaign_resolver(receptors, layer_tel);
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
