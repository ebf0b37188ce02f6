//! Metric-name registry: the closed set of counter/histogram/gauge names
//! any crate in the workspace may emit.
//!
//! The authoritative human-readable table lives in DESIGN.md §12; this
//! module is its machine-checkable mirror. A test that snapshots a fully
//! exercised run asserts emitted names ⊆ registry, so a silent rename (which
//! would break dashboards scraping `/metrics`) fails CI instead of shipping.
//! Add the new name HERE and to the DESIGN.md table when introducing a
//! metric.

use crate::MetricsSnapshot;

/// Every registered counter name, sorted.
pub const COUNTERS: &[&str] = &[
    "campaign.cancelled",
    "campaign.finished",
    "campaign.p95_sorts",
    "campaign.rejected",
    "campaign.started",
    "campaign.submitted",
    "dist.master.wakeups",
    "dist.stragglers",
    "dock.evaluations",
    "fleet.spawn_timeouts",
    "gridcache.bytes",
    "gridcache.evicted",
    "gridcache.hit",
    "gridcache.maps.rendered",
    "gridcache.miss",
    "gridcache.persist.bytes",
    "gridcache.persist.hit",
    "gridcache.persist.miss",
    "gridcache.persist.write",
    "pool.completed",
    "pool.parks",
    "pool.steals",
    "pool.submitted",
    "pool.timeout_wakeups",
    "pool.unparks",
    "proto.oversized_done",
    "provstore.checkpoints",
    "provstore.fsync_shared",
    "provstore.wal_appends",
    "receptor.hg_screened",
    "receptor.prep.hit",
    "receptor.prepared",
    "sim.dispatched",
    "sim.events",
    "sim.vm_acquired",
    "sim.vm_released",
    "worker.failed",
    "worker.finished",
];

/// Every registered fixed histogram name, sorted. Histograms may also use a
/// registered dynamic prefix (see [`HISTOGRAM_PREFIXES`]).
pub const HISTOGRAMS: &[&str] = &[
    "campaign.first_result",
    "dist.heartbeat.job_elapsed",
    "pool.queue_wait",
    "provstore.commit_batch",
    "provstore.group_commit",
    "provstore.lock_hold",
    "provstore.lock_wait",
    "provstore.wal_append",
];

/// Registered dynamic histogram families: `<prefix><activity tag>`.
pub const HISTOGRAM_PREFIXES: &[&str] = &["activation."];

/// Every registered gauge name, sorted.
pub const GAUGES: &[&str] = &[
    "campaign.active",
    "campaign.queued",
    "fleet.size",
    "gridcache.resident_bytes",
    "pool.queue_depth",
    "sim.ready_queue",
];

/// Names in `snap` that are NOT in the registry, each prefixed with its
/// metric kind (e.g. `"counter:dist.jobs"`). Empty means the snapshot is
/// clean.
pub fn unregistered(snap: &MetricsSnapshot) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, _) in &snap.counters {
        if !COUNTERS.contains(&name.as_str()) {
            bad.push(format!("counter:{name}"));
        }
    }
    for h in &snap.histograms {
        let fixed = HISTOGRAMS.contains(&h.name.as_str());
        let dynamic =
            HISTOGRAM_PREFIXES.iter().any(|p| h.name.starts_with(p) && h.name.len() > p.len());
        if !fixed && !dynamic {
            bad.push(format!("histogram:{}", h.name));
        }
    }
    for g in &snap.gauges {
        if !GAUGES.contains(&g.name.as_str()) {
            bad.push(format!("gauge:{}", g.name));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn registry_tables_are_sorted_and_unique() {
        for table in [COUNTERS, HISTOGRAMS, GAUGES] {
            for w in table.windows(2) {
                assert!(w[0] < w[1], "registry out of order near {:?}", w);
            }
        }
    }

    #[test]
    fn unregistered_flags_strays_and_accepts_dynamic_activation_histograms() {
        let tel = Telemetry::attached();
        tel.count("worker.finished", 1);
        tel.count("dist.jobs", 1); // unregistered test-only name
        if let Some(h) = tel.histogram("activation.score") {
            h.record(1_000);
        }
        if let Some(h) = tel.histogram("activation.") {
            h.record(1_000); // bare prefix is not a valid family member
        }
        tel.gauge("fleet.size", 2.0);
        let bad = unregistered(&tel.snapshot().expect("attached"));
        assert_eq!(bad, vec!["counter:dist.jobs".to_string(), "histogram:activation.".to_string()]);
    }
}
