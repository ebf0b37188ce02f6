//! Aggregated metrics view over a collector: per-histogram quantiles,
//! counter totals, gauge time series, and per-track busy time /
//! utilisation. This is what `RunReport` / `SimReport` surface after a run.

use crate::{Collector, Record};
use std::collections::BTreeMap;

/// Summary statistics for one histogram (durations reported in seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Histogram name (e.g. `activation.vina`).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Mean, seconds.
    pub mean_s: f64,
    /// Approximate median, seconds.
    pub p50_s: f64,
    /// Approximate 95th percentile, seconds.
    pub p95_s: f64,
    /// Exact maximum, seconds.
    pub max_s: f64,
}

/// A gauge's timestamped samples: `(seconds since epoch, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSeries {
    /// Gauge name (e.g. `fleet.size`).
    pub name: String,
    /// Samples in time order.
    pub samples: Vec<(f64, f64)>,
}

/// Busy time and utilisation for one track (worker thread or simulated VM).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackStats {
    /// Track id.
    pub track: u64,
    /// Track name, if one was registered (empty otherwise).
    pub name: String,
    /// Seconds covered by top-level spans on this track.
    pub busy_s: f64,
    /// Number of spans recorded on this track.
    pub spans: usize,
    /// `busy_s` over the snapshot's observed wall-clock window (0 when the
    /// window is empty).
    pub utilization: f64,
}

/// Point-in-time aggregation of everything a collector has seen.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Observed window: latest event end minus earliest event start, seconds.
    pub wall_s: f64,
    /// Counter totals, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<HistogramStats>,
    /// Gauge series, name-sorted.
    pub gauges: Vec<GaugeSeries>,
    /// Per-track busy/utilisation, track-sorted.
    pub tracks: Vec<TrackStats>,
    /// Ring-buffer records overwritten before this snapshot (0 = complete).
    pub dropped_records: u64,
}

impl MetricsSnapshot {
    /// Value of a named counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Stats for a named histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Samples of a named gauge.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSeries> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Render the snapshot as one JSON object (std-only, via
    /// [`crate::json`]), as the exposition endpoint serves it from
    /// `/snapshot.json`.
    pub fn to_json(&self) -> String {
        use crate::json::{escape, num};
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"wall_s\":{},\"dropped_records\":{},\"counters\":{{",
            num(self.wall_s),
            self.dropped_records
        );
        for (i, (n, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{}\":{v}", escape(n));
        }
        s.push_str("},\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"count\":{},\"mean_s\":{},\"p50_s\":{},\
                 \"p95_s\":{},\"max_s\":{}}}",
                escape(&h.name),
                h.count,
                num(h.mean_s),
                num(h.p50_s),
                num(h.p95_s),
                num(h.max_s)
            );
        }
        s.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let last = g.samples.last().map(|(_, v)| *v).unwrap_or(0.0);
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"samples\":{},\"last\":{}}}",
                escape(&g.name),
                g.samples.len(),
                num(last)
            );
        }
        s.push_str("],\"tracks\":[");
        for (i, t) in self.tracks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"track\":{},\"name\":\"{}\",\"busy_s\":{},\"spans\":{},\
                 \"utilization\":{}}}",
                t.track,
                escape(&t.name),
                num(t.busy_s),
                t.spans,
                num(t.utilization)
            );
        }
        s.push_str("]}");
        s
    }

    /// Multi-line human-readable rendering (used by examples and reports).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "window: {:.3} s  (dropped records: {})",
            self.wall_s, self.dropped_records
        );
        if !self.counters.is_empty() {
            let _ = writeln!(s, "counters:");
            for (n, v) in &self.counters {
                let _ = writeln!(s, "  {n:<32} {v}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                s,
                "histograms:                        count      p50      p95      max (s)"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    s,
                    "  {:<32} {:>5} {:>8.4} {:>8.4} {:>8.4}",
                    h.name, h.count, h.p50_s, h.p95_s, h.max_s
                );
            }
        }
        if !self.tracks.is_empty() {
            let _ = writeln!(s, "tracks:");
            for t in &self.tracks {
                let name =
                    if t.name.is_empty() { format!("track-{}", t.track) } else { t.name.clone() };
                let _ = writeln!(
                    s,
                    "  {name:<32} busy {:>8.3} s  util {:>5.1}%  spans {}",
                    t.busy_s,
                    t.utilization * 100.0,
                    t.spans
                );
            }
        }
        s
    }
}

const NS: f64 = 1e9;

pub(crate) fn build_snapshot(col: &Collector) -> MetricsSnapshot {
    let (records, dropped) = col.drain_snapshot();

    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    let mut gauges: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    // track -> (busy ns from top-level spans, span count)
    let mut tracks: BTreeMap<u64, (u64, usize)> = BTreeMap::new();

    for r in &records {
        match r {
            Record::Span { parent, track, start_ns, end_ns, .. } => {
                t_min = t_min.min(*start_ns);
                t_max = t_max.max(*end_ns);
                let e = tracks.entry(*track).or_default();
                if *parent == 0 {
                    e.0 += end_ns.saturating_sub(*start_ns);
                }
                e.1 += 1;
            }
            Record::Instant { ts_ns, .. } => {
                t_min = t_min.min(*ts_ns);
                t_max = t_max.max(*ts_ns);
            }
            Record::Gauge { name, ts_ns, value } => {
                t_min = t_min.min(*ts_ns);
                t_max = t_max.max(*ts_ns);
                gauges.entry(name).or_default().push((*ts_ns as f64 / NS, *value));
            }
        }
    }

    // a gauge whose samples all scrolled out of the ring still has a value
    for (name, ts_ns, value) in col.last_gauges() {
        let samples = gauges.entry(name).or_default();
        if samples.is_empty() {
            samples.push((ts_ns as f64 / NS, value));
        }
    }

    let wall_s = if t_max > t_min { (t_max - t_min) as f64 / NS } else { 0.0 };
    let names: BTreeMap<u64, String> = col.track_names().into_iter().collect();

    MetricsSnapshot {
        wall_s,
        counters: col.counter_values(),
        histograms: col
            .hist_handles()
            .into_iter()
            .map(|(name, h)| HistogramStats {
                name,
                count: h.count(),
                mean_s: h.mean() / NS,
                p50_s: h.quantile(0.50) / NS,
                p95_s: h.quantile(0.95) / NS,
                max_s: h.max() as f64 / NS,
            })
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|(name, samples)| GaugeSeries { name: name.to_string(), samples })
            .collect(),
        tracks: tracks
            .into_iter()
            .map(|(track, (busy_ns, spans))| {
                let busy_s = busy_ns as f64 / NS;
                TrackStats {
                    track,
                    name: names.get(&track).cloned().unwrap_or_default(),
                    busy_s,
                    spans,
                    utilization: if wall_s > 0.0 { (busy_s / wall_s).min(1.0) } else { 0.0 },
                }
            })
            .collect(),
        dropped_records: dropped,
    }
}

#[cfg(test)]
impl MetricsSnapshot {
    /// Mean utilisation across tracks that recorded at least one span.
    fn mean_utilization(&self) -> f64 {
        let busy: Vec<_> = self.tracks.iter().filter(|t| t.spans > 0).collect();
        if busy.is_empty() {
            0.0
        } else {
            busy.iter().map(|t| t.utilization).sum::<f64>() / busy.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    #[test]
    fn snapshot_aggregates_counters_hists_gauges_tracks() {
        let tel = Telemetry::attached();
        tel.name_current_track("main");
        tel.count("events", 7);
        let h = tel.histogram("lat").unwrap();
        h.record(1_000_000); // 1 ms
        h.record(3_000_000);
        tel.gauge_at("depth", 0, 1.0);
        tel.gauge_at("depth", 500_000_000, 3.0);
        tel.record_span_at("t", "work", None, 0, 1_000_000_000, None);

        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("events"), Some(7));
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 2);
        assert!(lat.max_s > 0.0029 && lat.max_s < 0.0031);
        let depth = snap.gauge("depth").unwrap();
        assert_eq!(depth.samples.len(), 2);
        assert_eq!(depth.samples[1].1, 3.0);
        assert_eq!(snap.dropped_records, 0);
        let main = snap.tracks.iter().find(|t| t.name == "main").unwrap();
        assert!((main.busy_s - 1.0).abs() < 1e-9);
        assert!(main.utilization > 0.9);
        assert!(!snap.render().is_empty());
    }

    #[test]
    fn snapshot_json_is_valid() {
        let tel = Telemetry::attached();
        tel.name_current_track("main \"lane\"");
        tel.count("a.b", 1);
        tel.histogram("h").unwrap().record(500);
        tel.gauge_at("g", 0, 2.5);
        tel.record_span_at("t", "w", None, 0, 10, None);
        let j = tel.snapshot().unwrap().to_json();
        crate::json::validate(&j).unwrap_or_else(|off| panic!("invalid JSON at byte {off}: {j}"));
        assert!(j.contains("\"a.b\":1"));
        assert!(j.contains("\"last\":2.5"));
    }

    #[test]
    fn nested_spans_do_not_double_count_busy_time() {
        let tel = Telemetry::attached();
        {
            let _outer = tel.span("t", "outer");
            std::thread::sleep(std::time::Duration::from_millis(5));
            let _inner = tel.span("t", "inner");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = tel.snapshot().unwrap();
        let t = &snap.tracks[0];
        assert_eq!(t.spans, 2);
        // busy time counts only the root span, so utilisation can't exceed 1
        assert!(t.utilization <= 1.0);
        assert!(t.busy_s <= snap.wall_s + 1e-9);
    }

    #[test]
    fn empty_snapshot_is_well_formed() {
        let snap = Telemetry::attached().snapshot().unwrap();
        assert_eq!(snap.wall_s, 0.0);
        assert!(snap.tracks.is_empty());
        assert_eq!(snap.mean_utilization(), 0.0);
    }
}
