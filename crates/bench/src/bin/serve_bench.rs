//! `serve_bench` — load generator and CI gate for `scidockd`, the
//! multi-campaign daemon.
//!
//! Drives hundreds of campaigns from several tenants through one
//! in-process daemon over a deliberately small worker fleet and bounded
//! admission queue, so the run exercises the whole service contract:
//! admission control pushing back under overload (`Reject` + retry-after,
//! honoured by the drivers), fair-share dispatch across tenants, and the
//! shared provenance store absorbing every campaign.
//!
//! Gates (`--smoke` runs a smaller load, same gates):
//!
//! 1. **Overload backpressure**: the flood must provoke at least one
//!    `Reject` carrying the configured retry-after hint, and every
//!    rejected submission must eventually be admitted by honouring it —
//!    backpressure sheds load without losing work.
//! 2. **p99 submission→first-result latency** (daemon-side
//!    `campaign.first_result` histogram) must stay under
//!    `SERVE_P99_MS` (default 5000 ms).
//! 3. **Fairness spread**: every tenant submits the same load, so the
//!    slowest tenant's mean campaign-completion latency must stay within
//!    `SERVE_FAIRNESS_SPREAD` × the fastest tenant's (default 3.0).
//!
//! 4. **Once per receptor, by count**: campaigns of `scidock:ad4:2x3`
//!    resolved by the resolver `scidockd` ships
//!    ([`scidock_bench::distspec::campaign_resolver`]) screen, prepare and
//!    render each of the two receptors once and touch the on-disk grid
//!    cache once per grid set — whatever the campaign and worker counts.
//!    Counts, not clocks: the gate reads `receptor.*` / `gridcache.*`.
//!
//! A JSON sidecar (`target/serve_bench.json`, schema v1) records the
//! latency quantiles, reject counts, and per-tenant means so trajectories
//! can be diffed across PRs.
//!
//! ```sh
//! cargo run --release -p scidock-bench --bin serve_bench            # full
//! cargo run --release -p scidock-bench --bin serve_bench -- --smoke # CI
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::serve::{
    CampaignResolver, CampaignState, Daemon, ServeClient, ServeConfig, SubmitOutcome,
};
use cumulus::workflow::{Activity, FileStore, WorkflowDef};
use cumulus::{Relation, Workflow};
use provenance::{ProvenanceStore, Value};
use scidock_bench::sidecar::Sidecar;
use telemetry::Telemetry;

const RETRY_AFTER_MS: u64 = 20;

/// `unit:<n>:<ms>` — one Map activity over `n` tuples, each activation
/// sleeping `ms`. Small and uniform, so every tenant's campaigns cost the
/// same and the fairness spread isolates the scheduler.
fn resolver() -> CampaignResolver {
    Arc::new(|spec: &str| {
        let rest = spec.strip_prefix("unit:")?;
        let (n, ms) = rest.split_once(':')?;
        let (n, ms): (usize, u64) = (n.parse().ok()?, ms.parse().ok()?);
        let def = WorkflowDef {
            tag: "serve-unit".into(),
            description: format!("{n} activations x {ms}ms"),
            expdir: "/bench/serve".into(),
            activities: vec![Activity::map(
                "spin",
                &["x"],
                Arc::new(move |part, _| {
                    std::thread::sleep(Duration::from_millis(ms));
                    Ok(part.to_vec())
                }),
            )],
            deps: vec![vec![]],
        };
        let mut input = Relation::new(&["x"]);
        for i in 0..n {
            input.push(vec![Value::Int(i as i64)]);
        }
        Some(Workflow::new(def, input).with_files(Arc::new(FileStore::new())))
    })
}

struct TenantOutcome {
    tenant: String,
    rejected: u64,
    /// submit→Finished per campaign, milliseconds.
    finish_ms: Vec<f64>,
}

/// One tenant's driver: flood `campaigns` submissions, honouring
/// retry-after on rejection, then poll everything to completion.
fn drive_tenant(addr: std::net::SocketAddr, tenant: String, campaigns: usize) -> TenantOutcome {
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut rejected = 0u64;
    let mut ids: Vec<(u64, Instant)> = Vec::with_capacity(campaigns);
    for _ in 0..campaigns {
        loop {
            let submitted = Instant::now();
            match client.submit(&tenant, 0, "unit:4:3").expect("submit io") {
                SubmitOutcome::Accepted { id } => {
                    ids.push((id, submitted));
                    break;
                }
                SubmitOutcome::Rejected { retry_after_ms, reason } => {
                    assert!(retry_after_ms > 0, "transient overload only, got: {reason}");
                    rejected += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
            }
        }
    }
    let mut finish_ms = Vec::with_capacity(ids.len());
    for (id, submitted) in ids {
        loop {
            let st = client.status(id).expect("status io");
            match st.state {
                CampaignState::Finished => {
                    finish_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                CampaignState::Cancelled | CampaignState::Failed => {
                    panic!("campaign {id} of {tenant} ended {:?}", st.state)
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
    TenantOutcome { tenant, rejected, finish_ms }
}

/// Gate 4: `campaigns` campaigns of `scidock:ad4:2x3`, all outstanding at
/// once, through the shipped resolver on a fresh grid-cache directory and
/// `workers` workers. Returns the four counts that must each equal the two
/// receptors of the spec: Hg screens, preparations, map renderings, and
/// on-disk grid cache lookups (hits + misses).
fn once_per_receptor_counts(campaigns: usize, workers: usize) -> [u64; 4] {
    let dir = std::path::PathBuf::from(format!(
        "target/serve_bench-gridcache-{}-{campaigns}x{workers}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tel = Telemetry::attached();
    let daemon = Daemon::start(
        ServeConfig::new()
            .with_workers(workers)
            .with_max_active(4)
            .with_max_pending(campaigns)
            .with_telemetry(tel.clone()),
        scidock_bench::distspec::campaign_resolver(Some(dir.clone()), tel.clone()),
        Arc::new(ProvenanceStore::new()),
    )
    .expect("daemon starts");
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    let ids: Vec<u64> = (0..campaigns)
        .map(|i| match client.submit(&format!("tenant-{}", i % 2), 0, "scidock:ad4:2x3") {
            Ok(SubmitOutcome::Accepted { id }) => id,
            other => panic!("campaign {i} not admitted: {other:?}"),
        })
        .collect();
    for id in ids {
        while client.status(id).expect("status io").state != CampaignState::Finished {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let snap = tel.snapshot().expect("telemetry attached");
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(count("campaign.finished"), campaigns as u64);
    [
        count("receptor.hg_screened"),
        count("receptor.prepared"),
        count("gridcache.maps.rendered"),
        count("gridcache.persist.hit") + count("gridcache.persist.miss"),
    ]
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let p99_gate_ms: f64 =
        std::env::var("SERVE_P99_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(5000.0);
    let spread_gate: f64 =
        std::env::var("SERVE_FAIRNESS_SPREAD").ok().and_then(|v| v.parse().ok()).unwrap_or(3.0);

    let tenants = if smoke { 4 } else { 6 };
    let per_tenant = if smoke { 30 } else { 50 };
    let total = tenants * per_tenant;
    println!(
        "== serve_bench: {total} campaigns from {tenants} tenants through one scidockd \
         (4 workers, 8 active, 32 pending) =="
    );

    let tel = Telemetry::attached();
    let daemon = Daemon::start(
        ServeConfig::new()
            .with_workers(4)
            .with_max_active(8)
            .with_max_pending(32)
            .with_tenant_quota(usize::MAX >> 1)
            .with_retry_after_ms(RETRY_AFTER_MS)
            .with_telemetry(tel.clone()),
        resolver(),
        Arc::new(ProvenanceStore::new()),
    )
    .expect("daemon starts");
    let addr = daemon.addr();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|i| {
            let tenant = format!("tenant-{i}");
            std::thread::spawn(move || drive_tenant(addr, tenant, per_tenant))
        })
        .collect();
    let outcomes: Vec<TenantOutcome> =
        handles.into_iter().map(|h| h.join().expect("driver thread")).collect();
    let wall_s = t0.elapsed().as_secs_f64();
    daemon.shutdown();

    let snap = tel.snapshot().expect("telemetry attached");
    let rejected_client: u64 = outcomes.iter().map(|o| o.rejected).sum();
    let rejected_daemon = snap.counter("campaign.rejected").unwrap_or(0);
    let finished = snap.counter("campaign.finished").unwrap_or(0);
    let recorded =
        snap.histograms.iter().find(|h| h.name == "campaign.first_result").map_or(0, |h| h.count);
    assert!(recorded > 0, "daemon recorded no first-result latencies");
    let first = tel.histogram("campaign.first_result").expect("telemetry attached");
    let p50_ms = first.quantile(0.50) / 1e6;
    let p99_ms = first.quantile(0.99) / 1e6;

    println!(
        "  {finished} campaigns finished in {wall_s:.2}s wall; {rejected_client} overload \
         rejects honoured ({rejected_daemon} daemon-side)"
    );
    println!("  submission -> first result: p50 {p50_ms:.1} ms, p99 {p99_ms:.1} ms");

    let mut sidecar = Sidecar::new();
    sidecar.push("campaigns_total", format!("{total}"));
    sidecar.push("tenants", format!("{tenants}"));
    sidecar.push("wall_s", format!("{wall_s:.3}"));
    sidecar.push("rejected_overload", format!("{rejected_client}"));
    sidecar.push("first_result_p50_ms", format!("{p50_ms:.3}"));
    sidecar.push("first_result_p99_ms", format!("{p99_ms:.3}"));

    let means: Vec<(String, f64)> =
        outcomes.iter().map(|o| (o.tenant.clone(), mean(&o.finish_ms))).collect();
    let fastest = means.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
    let slowest = means.iter().map(|(_, m)| *m).fold(0.0, f64::max);
    let spread = if fastest > 0.0 { slowest / fastest } else { 1.0 };
    for (tenant, m) in &means {
        println!("  {tenant}: mean campaign completion {m:.1} ms");
    }
    println!("  fairness spread (slowest/fastest tenant mean): {spread:.2}x");
    let tenant_means: Vec<String> = means
        .iter()
        .map(|(t, m)| format!("{{\"tenant\":\"{t}\",\"mean_finish_ms\":{m:.3}}}"))
        .collect();
    sidecar.push("tenant_means", format!("[{}]", tenant_means.join(",")));
    sidecar.push("fairness_spread", format!("{spread:.4}"));
    sidecar.push_metrics(&snap);
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/serve_bench.json", sidecar.to_json()).expect("write sidecar");
    println!("sidecar written to target/serve_bench.json");

    let mut ok = true;
    if finished != total as u64 {
        eprintln!("FAIL: {finished} of {total} campaigns finished");
        ok = false;
    }
    if rejected_client == 0 {
        eprintln!("FAIL: the flood never provoked an overload Reject — admission control untested");
        ok = false;
    }
    if p99_ms >= p99_gate_ms {
        eprintln!("FAIL: p99 first-result latency {p99_ms:.1} ms >= {p99_gate_ms} ms");
        ok = false;
    }
    if spread >= spread_gate {
        eprintln!("FAIL: fairness spread {spread:.2}x >= {spread_gate}x");
        ok = false;
    }
    for (campaigns, workers) in [(6, 1), (9, 4)] {
        let counts = once_per_receptor_counts(campaigns, workers);
        println!(
            "  {campaigns} x scidock:ad4:2x3 on {workers} worker(s): Hg screens, preparations, \
             map renderings, disk-cache lookups = {counts:?}"
        );
        if counts != [2; 4] {
            eprintln!("FAIL: each must be 2 (one per receptor), whatever the campaign count");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!();
    println!("serve_bench: all gates passed");
}
