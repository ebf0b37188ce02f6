//! What the benchmark runs and what it reports: workload sizes and the
//! metric tables (names, units, direction, bounds). Sizes are constants; the
//! seed only draws the `tenants_small` campaign order and the probe literals.

/// A workload name and why it exists.
pub struct Workload {
    /// Stable name.
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the report header.
    pub why: &'static str,
}

/// The five workloads, in the order a set runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "screen_cold",
        why: "one adaptive campaign through scidockd on the paged+WAL store with an empty grid cache: paged ingest, WAL commit and cold grid builds do most of the work",
    },
    Workload {
        name: "screen_warm_mem",
        why: "same campaign on the Mem store with a pre-warmed grid cache: bypasses both disk mechanisms, so engine-loop, Mem-store and search-kernel changes show here",
    },
    Workload {
        name: "tenants_small",
        why: "many short campaigns from two tenants, 4 outstanding, durable store: admission, resolver/stage-in, begin_workflow and fair share dominate; docking is small",
    },
    Workload {
        name: "dist_screen",
        why: "same campaign through run_dist with 2 scidock-worker processes on a Mem store: SDW1 wire, stage-in and worker-process lifecycle do the overhead here only",
    },
    Workload {
        name: "deep_local",
        why: "run_screening at paper-scale search budgets on 2 threads: over 95% of worker time is autodock4/vina/autogrid4, so only kernel changes show",
    },
];

/// Sizes of one mode (full or `--smoke`).
pub struct Sizes {
    /// Campaign of `screen_cold`, `screen_warm_mem` and `dist_screen` (one
    /// spec, so their results must agree bit for bit).
    pub screen: &'static str,
    /// Receptors × ligands of `screen` (for the probe literals).
    pub screen_dims: (usize, usize),
    /// Throw-away campaign that warms the grid cache in `screen_warm_mem`'s
    /// set-up: every receptor of `screen` against one ligand. Grids are per
    /// receptor, so this builds exactly the entries `screen` reads.
    pub prewarm: &'static str,
    /// Campaigns of one `tenants_small` unit.
    pub tenant_campaigns: usize,
    /// The specs `tenants_small` draws from.
    pub tenant_specs: [&'static str; 3],
    /// Receptors × ligands every `tenant_specs` entry covers.
    pub tenant_dims: (usize, usize),
    /// Receptors × ligands of `deep_local`.
    pub deep: (usize, usize),
    /// Units a run of [`REFERENCE_SECONDS`] measures, in [`WORKLOADS`] order.
    /// A unit is sized to 8–14 s on the reference 2-core box. The count
    /// scales with `--seconds` and never with how fast the code under test
    /// is, so two commits always measure the same work.
    pub units: [f64; 5],
}

/// The `--seconds` the sizes are tuned for (`run_seconds` in
/// `BENCHMARK.json`).
pub const REFERENCE_SECONDS: f64 = 12.0;

impl Sizes {
    /// Units a run of `seconds` measures for workload `w`: at least one.
    pub fn units_for(&self, w: usize, seconds: f64) -> usize {
        (self.units[w] * seconds / REFERENCE_SECONDS).round().max(1.0) as usize
    }
}

/// Full sizes.
pub const FULL: Sizes = Sizes {
    screen: "scidock:adaptive:12x42",
    screen_dims: (12, 42),
    prewarm: "scidock:adaptive:12x1",
    tenant_campaigns: 120,
    tenant_specs: ["scidock:vina:2x6", "scidock:ad4:2x6", "scidock:adaptive:3x4"],
    tenant_dims: (2, 4),
    deep: (8, 10),
    units: [3.0, 3.0, 1.0, 3.0, 3.0],
};

/// `--smoke`: about a tenth of the work, every correctness gate, no bounds.
pub const SMOKE: Sizes = Sizes {
    screen: "scidock:adaptive:4x10",
    screen_dims: (4, 10),
    prewarm: "scidock:adaptive:4x1",
    tenant_campaigns: 16,
    tenant_specs: ["scidock:vina:2x6", "scidock:ad4:2x6", "scidock:adaptive:3x4"],
    tenant_dims: (2, 4),
    deep: (2, 6),
    units: [1.0; 5],
};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric.
pub struct EndToEnd {
    /// Stable name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Absolute slack under which a worsening is noise (same unit).
    pub floor: f64,
    /// Listed in `BENCHMARK.json`, whose runs must report each end-to-end
    /// metric as a number on every workload: the metric is defined on all
    /// five and holds its bound on the reference box.
    pub everywhere: bool,
    /// Held to its bound by `--ab`. A metric that cannot hold 25 % between
    /// two sets of one build on the reference box is still reported, but a
    /// gap in it fails nothing.
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    everywhere: bool,
    gated: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, floor, everywhere, gated }
}

/// The 13 end-to-end metrics. Every timing bound is 25 %: ten runs of one
/// build on the reference box spread by 4–18 % of their median (quartile to
/// quartile), so a tighter bound would mostly report the box. The two that
/// do not depend on timing keep the issue's bounds.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.1, true, true),
    e2e("tet_s", "s", Better::Lower, 0.25, 0.0, true, true),
    e2e("pairs_per_s", "1/s", Better::Higher, 0.25, 0.0, true, true),
    e2e("first_result_ms", "ms", Better::Lower, 0.25, 5.0, false, true),
    e2e("submit_p50_ms", "ms", Better::Lower, 0.25, 2.0, false, true),
    e2e("campaign_p50_s", "s", Better::Lower, 0.25, 0.0, false, true),
    e2e("campaign_p90_s", "s", Better::Lower, 0.25, 0.0, false, true),
    // the median under ingest moved by 33 % between two sets of one build
    // (Mem-store scans queue behind the writers): reported, not gated
    e2e("steer_p50_ms", "ms", Better::Lower, 0.25, 1.0, false, false),
    e2e("steer_p95_ms", "ms", Better::Lower, 0.25, 2.0, false, true),
    // defined on every workload, but 200 back-to-back queries are 0.2–2 s of
    // measurement and spread by 11–62 % over ten runs: reported, not gated
    e2e("steer_idle_p50_ms", "ms", Better::Lower, 0.25, 1.0, false, false),
    e2e("recover_s", "s", Better::Lower, 0.25, 0.1, false, true),
    e2e("disk_bytes_per_act", "B", Better::Lower, 0.05, 0.0, false, true),
    e2e("rss_peak_mb", "MB", Better::Lower, 0.25, 0.0, true, true),
];

/// Fixed fleet of every workload: two workers (threads or processes).
pub const WORKERS: usize = 2;

/// A per-layer metric: no bound, reported by traced runs.
pub struct PerLayer {
    /// Stable name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// The per-layer metrics every traced run reports, on every workload: the
/// traced run's own numbers first, then the layer suite. A time or count of a
/// layer the workload does not cross (the `client.*` rows on `dist_screen`
/// and `deep_local`) reads 0.
pub const PER_LAYER: [PerLayer; 77] = [
    // Query 1: busy seconds per activity
    low("scidock.act.babel.busy_s", "s"),
    low("scidock.act.prepligand.busy_s", "s"),
    low("scidock.act.prepreceptor.busy_s", "s"),
    low("scidock.act.autogpf4.busy_s", "s"),
    low("scidock.act.autogrid4.busy_s", "s"),
    low("scidock.act.autodpf4.busy_s", "s"),
    low("scidock.act.autodock4.busy_s", "s"),
    low("scidock.act.vinaconfig.busy_s", "s"),
    low("scidock.act.vina.busy_s", "s"),
    low("scidock.act.dockfilter.busy_s", "s"),
    low("scidock.act.count", "count"),
    high("cumulus.workers.util", "ratio"),
    low("cumulus.engine.unexplained_s", "s"),
    low("trace.tet_s", "s"),
    low("client.submit_s", "s"),
    low("client.first_wait_s", "s"),
    low("client.finish_wait_s", "s"),
    low("client.visible_wait_s", "s"),
    low("client.polls", "count"),
    low("client.steer.late_p95_ms", "ms"),
    // layer suite
    low("molkit.sdf_to_mol2_us", "us"),
    low("molkit.pdbqt_roundtrip_us", "us"),
    low("molkit.prep_receptor_us", "us"),
    low("molkit.torsion_tree_us", "us"),
    low("docking.grid_build_ad4_ms", "ms"),
    low("docking.grid_build_vina_ms", "ms"),
    low("docking.grid_bytes", "B"),
    low("docking.grid_serialize_ms", "ms"),
    low("docking.grid_deserialize_ms", "ms"),
    low("docking.gridcache_cold_ms", "ms"),
    low("docking.gridcache_disk_hit_ms", "ms"),
    low("docking.gridcache_mem_hit_us", "us"),
    low("docking.ad4_dock_ms", "ms"),
    low("docking.vina_dock_ms", "ms"),
    low("docking.ad4_evaluations", "count"),
    low("docking.vina_evaluations", "count"),
    low("docking.energy_total_ns", "ns"),
    low("docking.energy_batch_ns_per_pose", "ns"),
    low("scidock.stage_inputs_ms_48x42", "ms"),
    low("scidock.build_workflow_us", "us"),
    low("provenance.mem.act_write_us_at_0", "us"),
    low("provenance.mem.act_write_us_at_20k", "us"),
    low("provenance.paged.act_write_us_at_0", "us"),
    low("provenance.paged.act_write_us_at_20k", "us"),
    low("provenance.wal.act_write_us_at_0", "us"),
    low("provenance.wal.act_write_us_at_20k", "us"),
    low("provenance.wal.bytes_per_act", "B"),
    low("provenance.wal.appends_per_act", "count"),
    low("provenance.wal.checkpoints", "count"),
    low("provenance.wal.checkpoint_ms_at_20k", "ms"),
    low("provenance.wal.reopen_ms_at_20k", "ms"),
    low("provenance.paged.q_status_ms", "ms"),
    low("provenance.paged.q_fail_ms", "ms"),
    low("provenance.paged.q_task_us", "us"),
    low("provenance.paged.q_pair_us", "us"),
    low("provenance.paged.q_query1_ms", "ms"),
    low("provenance.mem.q_status_ms", "ms"),
    low("provenance.mem.q_fail_ms", "ms"),
    low("provenance.mem.q_task_us", "us"),
    low("provenance.mem.q_pair_us", "us"),
    low("provenance.mem.q_query1_ms", "ms"),
    high("provenance.paged.cache_hit_ratio", "ratio"),
    low("provenance.paged.cache_evictions", "count"),
    low("provenance.contended.q_p95_ms", "ms"),
    low("provenance.contended.act_write_us", "us"),
    low("cumulus.local.act_overhead_us", "us"),
    low("cumulus.dist.act_overhead_us", "us"),
    low("cumulus.serve.act_overhead_us", "us"),
    low("cumulus.dist.spawn_ms", "ms"),
    low("cumulus.serve.submit_rtt_us", "us"),
    low("cumulus.serve.status_rtt_us", "us"),
    low("cumulus.serve.query_rtt_us", "us"),
    low("cumulus.serve.campaign_floor_ms", "ms"),
    high("cumulus.sim.acts_per_s", "1/s"),
    low("telemetry.span_ns_attached", "ns"),
    low("telemetry.span_ns_disabled", "ns"),
    low("telemetry.counter_ns", "ns"),
];
