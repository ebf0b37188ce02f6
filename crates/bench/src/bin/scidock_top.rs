//! `scidock-top` — a one-screen live view of a running campaign, fed by the
//! observability endpoint a run scope binds (`RunConfig::metrics_addr`,
//! `scidockd --metrics-addr`).
//!
//! ```text
//! scidock-top 127.0.0.1:9099            # refresh every 2 s until ^C
//! scidock-top 127.0.0.1:9099 --once     # single snapshot (no screen clear)
//! scidock-top 127.0.0.1:9099 --interval 0.5
//! ```
//!
//! Scrapes `/healthz`, `/metrics`, and `/events` with the std-only TCP
//! client (`cumulus::obs::http_get`) — no curl, no HTTP library — and
//! renders fleet health, the campaign counters, per-activity latency
//! summaries, and the tail of the structured event log.
//!
//! Pointed at a `scidockd` endpoint it additionally renders a per-campaign
//! panel (id, tenant, state, done/total, p95) from `/campaigns`; against a
//! pre-campaign endpoint (a plain local or distributed run, which 404s
//! that route) the panel is simply omitted — no error, no retry.

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use cumulus::obs::http_get;
use scidock_bench::util::bar;
use telemetry::prom::{self, Sample};

const TIMEOUT: Duration = Duration::from_secs(3);
const EVENT_TAIL: usize = 8;

fn usage() -> ! {
    eprintln!("usage: scidock-top <host:port> [--interval SECONDS] [--once]");
    std::process::exit(2);
}

/// First string value of `"key":"…"` in a JSON object rendered by the
/// endpoint (`HealthView::to_json` emits no nested strings before `workers`,
/// and worker objects carry only numbers/bools, so a flat scan is exact).
fn json_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = obj.find(&pat)? + pat.len();
    obj[start..].find('"').map(|end| obj[start..start + end].to_string())
}

/// First numeric value of `"key":N`.
fn json_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// First boolean value of `"key":true|false`.
fn json_bool(obj: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The `workers` array of a `/healthz` body, one object string per worker.
fn worker_objects(health: &str) -> Vec<&str> {
    let Some(start) = health.find("\"workers\":[") else { return Vec::new() };
    let body = &health[start + "\"workers\":[".len()..];
    let Some(end) = body.find(']') else { return Vec::new() };
    body[..end].split("},{").filter(|s| !s.is_empty()).collect()
}

/// The objects of a `/campaigns` array body, one string per campaign.
fn campaign_objects(body: &str) -> Vec<&str> {
    let inner = body.trim().trim_start_matches('[').trim_end_matches(']');
    inner.split("},{").filter(|s| !s.trim().is_empty()).collect()
}

fn sample_value<'a>(samples: &'a [Sample], name: &str) -> Option<&'a Sample> {
    samples.iter().find(|s| s.name == name)
}

fn counter(samples: &[Sample], short: &str) -> u64 {
    sample_value(samples, &format!("scidock_{}_total", prom::sanitize(short)))
        .map(|s| s.value as u64)
        .unwrap_or(0)
}

fn render(addr: SocketAddr, health: &str, metrics: &str, events: &str, campaigns: Option<&str>) {
    let samples = prom::parse(metrics).unwrap_or_default();
    let phase = json_str(health, "phase").unwrap_or_else(|| "?".into());
    let fleet = json_num(health, "fleet").unwrap_or(0.0) as u64;

    let finished = counter(&samples, "worker.finished");
    let failed = counter(&samples, "worker.failed");
    let stragglers = counter(&samples, "dist.stragglers");
    println!(
        "scidock-top — {addr}  phase={phase}  fleet={fleet}  \
         finished={finished}  failed={failed}  stragglers={stragglers}"
    );

    // per-campaign panel: only a scidockd endpoint serves /campaigns
    if let Some(body) = campaigns {
        let rows = campaign_objects(body);
        if !rows.is_empty() {
            println!();
            println!(
                "{:>4} {:<12} {:<10} {:>12} {:>9}",
                "id", "tenant", "state", "done/total", "p95_ms"
            );
            for c in &rows {
                let done = json_num(c, "done").unwrap_or(0.0) as u64;
                let total = json_num(c, "total").unwrap_or(0.0) as u64;
                println!(
                    "{:>4} {:<12} {:<10} {:>12} {:>9.1}",
                    json_num(c, "id").unwrap_or(-1.0) as i64,
                    json_str(c, "tenant").unwrap_or_else(|| "?".into()),
                    json_str(c, "state").unwrap_or_else(|| "?".into()),
                    format!("{done}/{total}"),
                    json_num(c, "p95_ms").unwrap_or(0.0),
                );
            }
        }
    }

    let workers = worker_objects(health);
    if !workers.is_empty() {
        println!();
        println!(
            "{:>4} {:>6} {:>9} {:>13} {:>10} {:>11}",
            "id", "alive", "draining", "last_seen_ms", "in_flight", "stragglers"
        );
        for w in &workers {
            println!(
                "{:>4} {:>6} {:>9} {:>13} {:>10} {:>11}",
                json_num(w, "id").unwrap_or(-1.0) as i64,
                if json_bool(w, "alive").unwrap_or(false) { "up" } else { "DOWN" },
                if json_bool(w, "draining").unwrap_or(false) { "yes" } else { "-" },
                json_num(w, "last_seen_ms").unwrap_or(0.0) as u64,
                json_num(w, "in_flight").unwrap_or(0.0) as u64,
                json_num(w, "stragglers").unwrap_or(0.0) as u64,
            );
        }
    }

    // per-activity latency summaries: scidock_activation_<tag>_seconds{quantile=…}
    let mut acts: Vec<(&str, f64, f64, f64)> = Vec::new(); // (name, count, p50, p95)
    for s in &samples {
        if !s.name.starts_with("scidock_activation_") || !s.name.ends_with("_seconds_count") {
            continue;
        }
        let base = &s.name[..s.name.len() - "_count".len()];
        let q = |want: &str| {
            samples
                .iter()
                .find(|x| {
                    x.name == base && x.labels.iter().any(|(k, v)| k == "quantile" && v == want)
                })
                .map(|x| x.value)
                .unwrap_or(0.0)
        };
        let tag = &base["scidock_activation_".len()..base.len() - "_seconds".len()];
        acts.push((tag, s.value, q("0.5"), q("0.95")));
    }
    if !acts.is_empty() {
        println!();
        println!("{:<28} {:>8} {:>10} {:>10}", "activity", "count", "p50_s", "p95_s");
        let max = acts.iter().map(|a| a.1 as usize).max().unwrap_or(0);
        for (name, count, p50, p95) in &acts {
            println!(
                "{name:<28} {count:>8} {p50:>10.3} {p95:>10.3}  {}",
                bar(*count as usize, max, 24)
            );
        }
    }

    let tail: Vec<&str> = events.lines().rev().take(EVENT_TAIL).collect();
    if !tail.is_empty() {
        println!();
        println!("last {} events (of {}):", tail.len(), events.lines().count());
        for line in tail.iter().rev() {
            let kind = json_str(line, "kind").unwrap_or_else(|| "?".into());
            let sev = json_str(line, "sev").unwrap_or_else(|| "?".into());
            let seq = json_num(line, "seq").unwrap_or(0.0) as u64;
            let t = json_num(line, "t_s").unwrap_or(0.0);
            println!("  #{seq:<5} {t:>9.3}s {sev:<5} {kind}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    let interval = args
        .iter()
        .position(|a| a == "--interval")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(2.0)
        .max(0.1);
    let addr_arg = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && i.checked_sub(1).and_then(|p| args.get(p)).map(String::as_str)
                    != Some("--interval")
        })
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| usage());
    let addr: SocketAddr = match addr_arg.to_socket_addrs().ok().and_then(|mut it| it.next()) {
        Some(a) => a,
        None => {
            eprintln!("scidock-top: cannot resolve {addr_arg}");
            std::process::exit(2);
        }
    };

    loop {
        let fetched = (|| -> std::io::Result<(String, String, String, Option<String>)> {
            let (hs, health) = http_get(addr, "/healthz", TIMEOUT)?;
            let (ms, metrics) = http_get(addr, "/metrics", TIMEOUT)?;
            let (es, events) = http_get(addr, "/events", TIMEOUT)?;
            if hs != 200 || ms != 200 || es != 200 {
                return Err(std::io::Error::other(format!(
                    "endpoint returned {hs}/{ms}/{es} for /healthz,/metrics,/events"
                )));
            }
            // pre-campaign endpoints 404 this route: fall back to no panel
            let campaigns = match http_get(addr, "/campaigns", TIMEOUT) {
                Ok((200, body)) => Some(body),
                _ => None,
            };
            Ok((health, metrics, events, campaigns))
        })();
        match fetched {
            Ok((health, metrics, events, campaigns)) => {
                if !once {
                    print!("\x1b[2J\x1b[H"); // clear screen, home cursor
                }
                render(addr, &health, &metrics, &events, campaigns.as_deref());
            }
            Err(e) => {
                eprintln!("scidock-top: {addr}: {e}");
                if once {
                    std::process::exit(1);
                }
            }
        }
        if once {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}
