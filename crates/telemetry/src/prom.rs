//! Prometheus text exposition (version 0.0.4) over a [`MetricsSnapshot`],
//! plus a tiny parser used by tests and `scidock-top` — std-only, like the
//! rest of the crate.
//!
//! Counters render as `scidock_<name>_total`, histograms as summaries
//! (`quantile="0.5"`/`"0.95"`, `_sum`, `_count`, and a `_max_seconds`
//! gauge, all in seconds), and gauges as their most recent sample. Metric
//! names are sanitized to the Prometheus grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`).

use crate::MetricsSnapshot;
use std::fmt::Write as _;

/// Map an internal metric name (dots, dashes, …) onto the Prometheus name
/// grammar: invalid characters become `_`, and a leading digit gets a `_`
/// prefix.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

/// Render the snapshot in Prometheus text exposition format. Every metric
/// is prefixed `scidock_`.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut s = String::new();
    for (name, v) in &snap.counters {
        let n = format!("scidock_{}_total", sanitize(name));
        let _ = writeln!(s, "# TYPE {n} counter");
        let _ = writeln!(s, "{n} {v}");
    }
    for h in &snap.histograms {
        let n = format!("scidock_{}_seconds", sanitize(&h.name));
        let _ = writeln!(s, "# TYPE {n} summary");
        let _ = writeln!(s, "{n}{{quantile=\"0.5\"}} {}", fmt_value(h.p50_s));
        let _ = writeln!(s, "{n}{{quantile=\"0.95\"}} {}", fmt_value(h.p95_s));
        let _ = writeln!(s, "{n}_sum {}", fmt_value(h.mean_s * h.count as f64));
        let _ = writeln!(s, "{n}_count {}", h.count);
        let _ = writeln!(s, "# TYPE {n}_max gauge");
        let _ = writeln!(s, "{n}_max {}", fmt_value(h.max_s));
    }
    for g in &snap.gauges {
        if let Some((_, last)) = g.samples.last() {
            let n = format!("scidock_{}", sanitize(&g.name));
            let _ = writeln!(s, "# TYPE {n} gauge");
            let _ = writeln!(s, "{n} {}", fmt_value(*last));
        }
    }
    s
}

/// One parsed sample: metric name, label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label key/value pairs, in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition into samples, validating the line
/// grammar. Comment (`#`) and blank lines are skipped. Returns the byte
/// line number (1-based) of the first malformed line.
pub fn parse(text: &str) -> Result<Vec<Sample>, usize> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).ok_or(lineno + 1)?);
    }
    Ok(out)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (head, value) = line.rsplit_once(|c: char| c.is_ascii_whitespace())?;
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().ok()?,
    };
    let head = head.trim();
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((n, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=')?;
                    if !valid_name(k) {
                        return None;
                    }
                    let v = v.strip_prefix('"')?.strip_suffix('"')?;
                    labels.push((k.to_string(), v.to_string()));
                }
            }
            (n.to_string(), labels)
        }
    };
    if !valid_name(&name) {
        return None;
    }
    Some(Sample { name, labels, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn sanitize_maps_to_prometheus_grammar() {
        assert_eq!(sanitize("dist.master.wakeups"), "dist_master_wakeups");
        assert_eq!(sanitize("activation.dock-2"), "activation_dock_2");
        assert_eq!(sanitize("0weird"), "_0weird");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn render_parses_back() {
        let tel = Telemetry::attached();
        tel.count("dist.jobs", 7);
        let h = tel.histogram("activation.dock").unwrap();
        h.record(1_000_000);
        h.record(5_000_000);
        tel.gauge_at("fleet.size", 0, 2.0);
        tel.gauge_at("fleet.size", 100, 3.0);

        let text = render(&tel.snapshot().unwrap());
        let samples = parse(&text).expect("rendered exposition must parse");
        let get = |n: &str| samples.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(get("scidock_dist_jobs_total"), Some(7.0));
        assert_eq!(get("scidock_activation_dock_seconds_count"), Some(2.0));
        assert_eq!(get("scidock_fleet_size"), Some(3.0), "gauges expose the last sample");
        let q50 = samples
            .iter()
            .find(|s| {
                s.name == "scidock_activation_dock_seconds"
                    && s.labels == vec![("quantile".to_string(), "0.5".to_string())]
            })
            .expect("quantile sample");
        assert!(q50.value > 0.0);
    }

    /// A gauge sampled once — because its value never changed again — is
    /// still exposed after the ring has overwritten that sample many times.
    #[test]
    fn a_gauge_keeps_its_last_value_after_its_samples_scroll_out_of_the_ring() {
        let tel = Telemetry::attached();
        tel.gauge("fleet.size", 3.0);
        // gauges share shard 0 with whatever else lands there: 16 K records
        for i in 0..20_000 {
            tel.gauge_at("pool.queue_depth", i, 1.0);
        }
        let snap = tel.snapshot().unwrap();
        assert!(snap.dropped_records > 0, "the ring must actually have wrapped");
        assert_eq!(snap.gauge("fleet.size").map(|g| g.samples.len()), Some(1));
        let samples = parse(&render(&snap)).expect("rendered exposition must parse");
        let fleet = samples.iter().find(|s| s.name == "scidock_fleet_size").map(|s| s.value);
        assert_eq!(fleet, Some(3.0));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("good_metric 1\nbad metric line\n").is_err());
        assert!(parse("no_value\n").is_err());
        assert!(parse("m{unquoted=x} 1\n").is_err());
        assert_eq!(parse("# just a comment\n\n").unwrap().len(), 0);
        let s = parse("m{a=\"b\",c=\"d\"} +Inf").unwrap();
        assert_eq!(s[0].labels.len(), 2);
        assert!(s[0].value.is_infinite());
    }
}
