//! `obs_bench` — guards the two costs of the live observability plane:
//!
//! 1. **Disabled overhead**: with the streamed-metrics plane compiled in
//!    (Stats frames, event log, straggler detector, HTTP endpoint), a run
//!    with everything *disabled* must stay within `TELEMETRY_OVERHEAD_PCT`
//!    (default 2%) of the pre-instrumentation baseline — the same bound
//!    `telemetry_bench` established before the plane existed, re-asserted
//!    here on the same straggler workload.
//! 2. **Scrape smoke**: a live run with `with_metrics_addr` must serve
//!    `/metrics` (valid Prometheus text exposition, checked with
//!    `telemetry::prom::parse`), `/healthz`, and `/events` to a plain std
//!    TCP client mid-run — no curl, no HTTP library.
//!
//! ```sh
//! cargo run --release -p scidock-bench --bin obs_bench            # full
//! cargo run --release -p scidock-bench --bin obs_bench -- --smoke # CI
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::localbackend::LocalConfig;
use cumulus::obs::{http_get, BoundAddr, EventLog};
use cumulus::workflow::{Activity, ActivityFn, WorkflowDef};
use cumulus::{Backend, LocalBackend, Workflow};
use cumulus::{Relation, Tuple};
use provenance::{ProvenanceStore, Value};
use telemetry::Telemetry;

const PAIRS: i64 = 8;
const STAGES: usize = 6;
const SLOW_MS: u64 = 40;
const FAST_MS: u64 = 2;

/// Same constant as `telemetry_bench`: the pipelined median of this exact
/// workload measured before any instrumentation existed (see the provenance
/// note there).
const BASELINE_MED_MS: f64 = 101.1;

fn stage_fn(stage: usize, ms_slow: u64, ms_fast: u64) -> ActivityFn {
    Arc::new(move |tuples, _ctx| {
        let ms = if tuples[0][0] == Value::Int(stage as i64) { ms_slow } else { ms_fast };
        std::thread::sleep(Duration::from_millis(ms));
        Ok(tuples.to_vec())
    })
}

fn workflow(ms_slow: u64, ms_fast: u64) -> WorkflowDef {
    let activities = (0..STAGES)
        .map(|s| Activity::map(&format!("stage_{s}"), &["pair"], stage_fn(s, ms_slow, ms_fast)))
        .collect();
    let deps = (0..STAGES).map(|s| if s == 0 { vec![] } else { vec![s - 1] }).collect();
    WorkflowDef {
        tag: "straggler_chain".into(),
        description: "rotating-straggler Map chain".into(),
        expdir: "/bench".into(),
        activities,
        deps,
    }
}

fn input() -> Relation {
    Relation {
        columns: vec!["pair".into()],
        tuples: (0..PAIRS).map(|i| Tuple::from(vec![Value::Int(i)])).collect(),
    }
}

fn run_once(cfg: &LocalConfig, ms_slow: u64, ms_fast: u64) -> f64 {
    let wf = workflow(ms_slow, ms_fast);
    let t0 = Instant::now();
    let report = LocalBackend::new(cfg.clone())
        .run(&Workflow::new(wf, input()), &Arc::new(ProvenanceStore::new()))
        .expect("valid workflow");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.finished, PAIRS as usize * STAGES);
    ms
}

fn median(samples: usize, mk_cfg: impl Fn() -> LocalConfig) -> f64 {
    let mut xs: Vec<f64> = (0..samples).map(|_| run_once(&mk_cfg(), SLOW_MS, FAST_MS)).collect();
    xs.sort_by(f64::total_cmp);
    xs[samples / 2]
}

/// Stage 1: the disabled path must still be free.
fn overhead_stage(smoke: bool, threshold_pct: f64) -> bool {
    let samples = if smoke { 9 } else { 15 };
    println!(
        "== obs_bench: disabled-observability overhead ({PAIRS} pairs x {STAGES} stages, \
         {samples} samples/batch, best of 3 batches) =="
    );
    run_once(&LocalConfig::new(), SLOW_MS, FAST_MS); // warm-up
    let dis_med = (0..3).map(|_| median(samples, LocalConfig::new)).fold(f64::INFINITY, f64::min);
    let overhead_pct = (dis_med / BASELINE_MED_MS - 1.0) * 100.0;
    println!(
        "  disabled median {dis_med:.3} ms vs pre-instrumentation baseline \
         {BASELINE_MED_MS:.1} ms: {overhead_pct:+.2}% (threshold {threshold_pct:.1}%)"
    );
    if overhead_pct >= threshold_pct {
        eprintln!("FAIL: disabled-observability overhead {overhead_pct:+.2}% >= {threshold_pct}%");
        return false;
    }
    true
}

/// Stage 2: scrape a live endpoint with a bare std TCP client.
fn scrape_stage() -> bool {
    println!("== obs_bench: /metrics + /healthz scrape smoke (std TCP client) ==");
    let bound = BoundAddr::new();
    let events = EventLog::new();
    let cfg = LocalConfig::new()
        .with_threads(2)
        .with_telemetry(Telemetry::attached())
        .with_metrics_addr("127.0.0.1:0")
        .with_metrics_bound(bound.clone())
        .with_events(events);
    // slow stages (~1.5 s pipelined on 2 threads) so the scrape lands mid-run
    let runner = std::thread::spawn(move || run_once(&cfg, 120, 60));
    let Some(addr) = bound.wait(Duration::from_secs(10)) else {
        eprintln!("FAIL: endpoint never bound");
        let _ = runner.join();
        return false;
    };
    let timeout = Duration::from_secs(3);
    let mut ok = true;

    match http_get(addr, "/metrics", timeout) {
        Ok((200, body)) => match telemetry::prom::parse(&body) {
            Ok(samples) => println!(
                "  /metrics: 200, {} samples of valid Prometheus text exposition",
                samples.len()
            ),
            Err(line) => {
                eprintln!("FAIL: /metrics line {line} is not valid text exposition");
                ok = false;
            }
        },
        other => {
            eprintln!("FAIL: GET /metrics -> {other:?}");
            ok = false;
        }
    }
    match http_get(addr, "/healthz", timeout) {
        Ok((200, body)) if body.contains("\"phase\":\"running\"") => {
            println!("  /healthz: 200, phase=running mid-run");
        }
        other => {
            eprintln!("FAIL: GET /healthz mid-run -> {other:?}");
            ok = false;
        }
    }
    match http_get(addr, "/events", timeout) {
        Ok((200, body)) if body.lines().any(|l| l.contains("\"kind\":\"run_started\"")) => {
            println!("  /events:  200, run_started present");
        }
        other => {
            eprintln!("FAIL: GET /events mid-run -> {other:?}");
            ok = false;
        }
    }

    let ms = runner.join().expect("observed run");
    println!("  observed run finished in {ms:.0} ms");
    ok
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threshold_pct: f64 =
        std::env::var("TELEMETRY_OVERHEAD_PCT").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0);

    let scrape_ok = scrape_stage();
    println!();
    let overhead_ok = overhead_stage(smoke, threshold_pct);

    if !(scrape_ok && overhead_ok) {
        std::process::exit(1);
    }
    println!();
    println!("obs_bench: all gates passed");
}
