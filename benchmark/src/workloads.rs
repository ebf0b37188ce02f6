//! The five workloads. Each drives the product from outside: `scidockd` as a
//! process over `SDC1`, `run_dist` with real worker processes, or
//! `run_screening` — and checks what came out before reporting a number.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::serve::{CampaignState, ServeClient, SubmitOutcome};
use cumulus::workflow::FileStore;
use cumulus::{run_dist, DistConfig, Relation};
use provenance::{ProvenanceStore, Value};
use scidock::{
    run_screening, Dataset, DatasetParams, EngineMode, PairResult, SciDockConfig, LIGAND_CODES,
    RECEPTOR_IDS,
};
use scidock_bench::distspec;
use telemetry::{MetricsSnapshot, Telemetry};

use crate::budget::{Budget, ACTIVITIES, BUDGET_SQL};
use crate::digest::{results_digest, Golden};
use crate::proc::{vm_hwm_mb, Daemon, DaemonOpts};
use crate::spec::{Sizes, WORKERS};
use crate::stats::{median, tail_quantile};
use crate::steer::{self, Mix, Rng, Sample};

/// Everything a workload needs from the invocation.
pub struct Ctx<'a> {
    /// `benchmark/out/`: all temp state lives under it.
    pub out: &'a Path,
    /// The shipped daemon binary.
    pub scidockd: &'a Path,
    /// The shipped worker binary.
    pub worker: &'a Path,
    /// Pinned counts and digests per spec.
    pub golden: &'a BTreeMap<String, Golden>,
    /// Full or smoke sizes.
    pub sizes: &'a Sizes,
    /// `--seed`.
    pub seed: u64,
    /// Benchmark-side spans; attached on traced runs only.
    pub tel: Telemetry,
    /// No workload ran in this process before this run, so the process's
    /// own peak RSS is this workload's.
    pub fresh_process: bool,
}

impl Ctx<'_> {
    fn traced(&self) -> bool {
        self.tel.is_enabled()
    }

    /// A fresh, empty directory `out/<name>`.
    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.out.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Peak RSS of the benchmark process, for the workloads that run their
    /// master in it. Only a process that ran nothing else can tell.
    fn own_rss_peak_mb(&self) -> Option<f64> {
        self.fresh_process.then(|| vm_hwm_mb(std::process::id())).flatten()
    }

    fn golden(&self, key: &str) -> Result<&Golden, String> {
        self.golden.get(key).ok_or_else(|| format!("golden.json has no entry for {key}"))
    }
}

/// What one unit of a workload measured.
#[derive(Default)]
pub struct UnitOut {
    /// End-to-end metrics that apply to this workload (all but `setup_s`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Latencies of the open-loop steering queries, ms; a run pools them
    /// over its units before taking `steer_p50_ms` / `steer_p95_ms`.
    pub live_ms: Vec<f64>,
    /// How late each of those queries was sent, ms (pooled the same way).
    pub late_ms: Vec<f64>,
    /// Traced-run per-layer metrics (empty with tracing off).
    pub layer: BTreeMap<String, f64>,
    /// Traced-run numbers only some workloads can give (printed, not part
    /// of the per-layer contract).
    pub extra: BTreeMap<String, f64>,
    /// One entry per set-up performed, seconds.
    pub setups: Vec<f64>,
    /// Operations attempted: campaigns, steering queries, checks.
    pub attempted: u64,
    /// Operations that failed, with every failed correctness check.
    pub failed: u64,
    /// What failed, for the report.
    pub problems: Vec<String>,
    /// Steering queries that took over [`steer::LIMIT`] from their due time:
    /// reported, not failed.
    pub slow_steering: u64,
    /// spec → digest of its results relation, for cross-workload parity.
    pub digests: BTreeMap<String, String>,
}

impl UnitOut {
    /// One correctness check: an attempted op, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || format!("{what}: got {got:?}, pinned {want:?}"));
    }

    /// Fold the steering samples of a phase into attempts and failures.
    fn count_steering(&mut self, phase: &str, samples: &[Sample]) {
        self.attempted += samples.len() as u64;
        let bad = samples.iter().filter(|s| s.failed()).count();
        if bad > 0 {
            self.failed += bad as u64;
            self.problems.push(format!("{bad} {phase} steering queries returned an error"));
        }
        self.slow_steering += samples.iter().filter(|s| s.slow()).count() as u64;
    }

    fn put(&mut self, name: &'static str, v: f64) {
        self.e2e.insert(name, v);
    }

    fn put_opt(&mut self, name: &'static str, v: Option<f64>) {
        if let Some(v) = v {
            self.put(name, v);
        }
    }
}

/// Run set-ups until there are enough samples for a median: at least three,
/// and more while they are cheap (0.3 s in all, at most 25). All but the
/// last are handed to `discard`; the last one is the unit's.
fn repeat_setup<T>(
    first_unit: bool,
    setups: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let (mut spent, mut rep) = (0.0, 0);
    loop {
        let t0 = Instant::now();
        let live = setup(rep)?;
        let s = t0.elapsed().as_secs_f64();
        setups.push(s);
        spent += s;
        rep += 1;
        // later units of a run only pay their own set-up
        if !first_unit || (rep >= 3 && (spent >= 0.3 || rep >= 25)) {
            return Ok(live);
        }
        discard(live)?;
    }
}

/// "Its FINISHED rows counted through the query surface".
const COUNT_FINISHED_SQL: &str = "SELECT count(*) FROM hactivation WHERE status = 'FINISHED'";

/// Rows of a query result, whichever surface answered it.
type Rows = Vec<Vec<Value>>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn scalar(rows: &Rows) -> Option<f64> {
    rows.first()?.first()?.as_f64()
}

fn pair_results(columns: &[String], tuples: Vec<Vec<Value>>) -> Vec<PairResult> {
    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut rel = Relation::new(&cols);
    rel.tuples = tuples;
    scidock::analysis::results_from_relation(&rel)
}

// ------------------------------------------------------------------ serve

/// A `scidockd`-backed workload.
pub struct ServeWorkload {
    /// `--wal`: paged + WAL store (else the `Mem` backing).
    pub durable: bool,
    /// Warm the grid cache with this throw-away campaign during set-up.
    pub prewarm: Option<&'static str>,
    /// Campaigns kept in flight by the driver (closed loop).
    pub outstanding: usize,
    /// `(tenant, spec)` in submission order.
    pub plan: Vec<(&'static str, &'static str)>,
    /// Receptors × ligands the probe literals draw from.
    pub probe_dims: (usize, usize),
}

impl ServeWorkload {
    /// `screen_cold` / `screen_warm_mem`: one tenant, one campaign.
    pub fn screen(sizes: &Sizes, warm_mem: bool) -> ServeWorkload {
        ServeWorkload {
            durable: !warm_mem,
            prewarm: warm_mem.then_some(sizes.prewarm),
            outstanding: 1,
            plan: vec![("a", sizes.screen)],
            probe_dims: sizes.screen_dims,
        }
    }

    /// `tenants_small`: campaigns drawn by seed, tenants alternating.
    pub fn tenants(sizes: &Sizes, seed: u64) -> ServeWorkload {
        let mut rng = Rng::new(seed);
        let plan = (0..sizes.tenant_campaigns)
            .map(|i| {
                let spec = sizes.tenant_specs[rng.below(sizes.tenant_specs.len() as u64) as usize];
                (if i % 2 == 0 { "a" } else { "b" }, spec)
            })
            .collect();
        ServeWorkload {
            durable: true,
            prewarm: None,
            outstanding: 4,
            plan,
            probe_dims: sizes.tenant_dims,
        }
    }
}

/// A set-up daemon with the two connections of the load shape.
struct Live {
    daemon: Daemon,
    driver: ServeClient,
    steerer: ServeClient,
    wal: Option<PathBuf>,
    /// The throw-away daemon that warmed the grid cache, told to shut down
    /// but not yet waited for.
    warmer: Option<Daemon>,
}

impl Live {
    /// Tear down a set-up that is not going to be measured.
    fn discard(mut self) -> Vec<Daemon> {
        self.daemon.request_shutdown();
        [Some(self.daemon), self.warmer].into_iter().flatten().collect()
    }
}

fn connect(daemon: &Daemon) -> Result<ServeClient, String> {
    ServeClient::connect(daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))
}

/// Submit one campaign outside the measured load and poll it to `Finished`;
/// how long that took from the Submit.
pub fn run_to_finish(client: &mut ServeClient, spec: &str) -> Result<Duration, String> {
    let t0 = Instant::now();
    let id = match client.submit("warm", 0, spec).map_err(|e| format!("submit {spec}: {e}"))? {
        SubmitOutcome::Accepted { id } => id,
        SubmitOutcome::Rejected { reason, .. } => return Err(format!("{spec} rejected: {reason}")),
    };
    loop {
        match client.status(id).map_err(|e| format!("status: {e}"))?.state {
            CampaignState::Finished => return Ok(t0.elapsed()),
            CampaignState::Failed | CampaignState::Cancelled => {
                return Err(format!("{spec} did not finish"))
            }
            _ if t0.elapsed() > Duration::from_secs(120) => {
                return Err(format!("{spec} timed out"))
            }
            _ => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

fn serve_setup(ctx: &Ctx<'_>, w: &ServeWorkload, dir: &Path) -> Result<Live, String> {
    let grid_cache = dir.join("gridcache");
    let mut warmer = None;
    if let Some(spec) = w.prewarm {
        // the throw-away daemon's run is part of the set-up cost by design
        let opts = DaemonOpts {
            wal: None,
            grid_cache: &grid_cache,
            metrics: false,
            stderr: &dir.join("prewarm.stderr"),
        };
        let mut warm = Daemon::spawn(ctx.scidockd, &opts)?;
        run_to_finish(&mut connect(&warm)?, spec)?;
        // cache entries are on disk once the campaign is Finished; the
        // daemon's exit is waited for outside the timed set-up, because it
        // takes zero or one 250 ms steering tick and would make `setup_s`
        // hop between two values
        warm.request_shutdown();
        warmer = Some(warm);
    }
    let wal = w.durable.then(|| dir.join("wal"));
    let opts = DaemonOpts {
        wal: wal.as_deref(),
        grid_cache: &grid_cache,
        metrics: ctx.traced(),
        stderr: &dir.join("scidockd.stderr"),
    };
    let daemon = Daemon::spawn(ctx.scidockd, &opts)?;
    let driver = connect(&daemon)?;
    let steerer = connect(&daemon)?;
    Ok(Live { daemon, driver, steerer, wal, warmer })
}

/// One campaign as the driver saw it.
struct Campaign {
    spec: &'static str,
    id: u64,
    submitted: Instant,
    submit_rtt: Duration,
    first_result: Option<Duration>,
    finished: Option<Duration>,
    track: u64,
}

struct Driven {
    campaigns: Vec<Campaign>,
    rejects: u64,
    polls: u64,
    /// First Submit sent → FINISHED rows of every campaign counted by SQL.
    tet: Duration,
    /// Last `Finished` seen → rows countable.
    visible_wait: Duration,
    /// The FINISHED count the daemon acknowledged.
    finished_rows: u64,
}

/// The closed-loop driver: keep `outstanding` campaigns in flight, poll each
/// every millisecond, then count the FINISHED rows through the query
/// surface.
fn drive(
    client: &mut ServeClient,
    w: &ServeWorkload,
    expect_finished: u64,
    tel: &Telemetry,
) -> Result<Driven, String> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(150);
    let mut campaigns: Vec<Campaign> = Vec::with_capacity(w.plan.len());
    let mut in_flight: Vec<usize> = Vec::new();
    let (mut next, mut rejects, mut polls) = (0usize, 0u64, 0u64);
    while next < w.plan.len() || !in_flight.is_empty() {
        while in_flight.len() < w.outstanding && next < w.plan.len() {
            let (tenant, spec) = w.plan[next];
            let submitted = Instant::now();
            let outcome = {
                let _span = tel.span("client", "submit");
                client.submit(tenant, 0, spec).map_err(|e| format!("submit {spec}: {e}"))?
            };
            match outcome {
                SubmitOutcome::Accepted { id } => {
                    in_flight.push(campaigns.len());
                    campaigns.push(Campaign {
                        spec,
                        id,
                        submitted,
                        submit_rtt: submitted.elapsed(),
                        first_result: None,
                        finished: None,
                        track: tel.alloc_track(&format!("campaign {id} {spec}")),
                    });
                    next += 1;
                }
                SubmitOutcome::Rejected { retry_after_ms, reason } => {
                    // a failed op; honour the hint so the run still ends
                    rejects += 1;
                    if retry_after_ms == 0 {
                        return Err(format!("{spec} rejected for good: {reason}"));
                    }
                    std::thread::sleep(Duration::from_millis(retry_after_ms));
                }
            }
        }
        let mut k = 0;
        while k < in_flight.len() {
            let c = &mut campaigns[in_flight[k]];
            let st = {
                let _span = tel.span("client", "poll");
                client.status(c.id).map_err(|e| format!("status {}: {e}", c.id))?
            };
            polls += 1;
            if st.done > 0 && c.first_result.is_none() {
                c.first_result = Some(c.submitted.elapsed());
            }
            match st.state {
                CampaignState::Finished => {
                    c.finished = Some(c.submitted.elapsed());
                    in_flight.swap_remove(k);
                    continue;
                }
                CampaignState::Failed | CampaignState::Cancelled => {
                    // counted as a failed op by the caller
                    in_flight.swap_remove(k);
                    continue;
                }
                _ => k += 1,
            }
        }
        if Instant::now() > deadline {
            return Err("campaigns did not finish within 150 s".into());
        }
        if !in_flight.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let all_finished = Instant::now();
    let finished_rows = loop {
        let _span = tel.span("client", "count_finished");
        let (_, rows) =
            client.query(COUNT_FINISHED_SQL).map_err(|e| format!("count FINISHED: {e}"))?;
        let n = scalar(&rows).ok_or("count(*) returned no number")? as u64;
        if n >= expect_finished || Instant::now() > deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    Ok(Driven {
        campaigns,
        rejects,
        polls,
        tet: t0.elapsed(),
        visible_wait: all_finished.elapsed(),
        finished_rows,
    })
}

/// Per-campaign row counts by SQL against what is pinned for each spec.
/// Campaigns are told apart by their workflow tag, which names the engine
/// mode; the specs of one workload all differ in mode.
fn check_counts(
    out: &mut UnitOut,
    ctx: &Ctx<'_>,
    specs: &[&str],
    target: &mut dyn FnMut(&str) -> Result<Rows, String>,
) -> Result<u64, String> {
    let tag_of = |spec: &str| match spec.split(':').nth(1) {
        Some("ad4") => "SciDock-AD4",
        Some("vina") => "SciDock-Vina",
        _ => "SciDock",
    };
    let mut by_wkf: BTreeMap<i64, (String, u64, u64, u64)> = BTreeMap::new();
    for row in target("SELECT wkfid, tag FROM hworkflow ORDER BY wkfid")? {
        let id = row[0].as_f64().ok_or("wkfid is not a number")? as i64;
        by_wkf.insert(id, (row[1].to_string(), 0, 0, 0));
    }
    let rows = target("SELECT wkfid, status, count(*) FROM hactivation GROUP BY wkfid, status")?;
    for row in rows {
        let id = row[0].as_f64().ok_or("wkfid is not a number")? as i64;
        let n = row[2].as_f64().ok_or("count is not a number")? as u64;
        let slot = by_wkf.get_mut(&id).ok_or_else(|| format!("activation of unknown wkf {id}"))?;
        match row[1].as_str() {
            Some("FINISHED") => slot.1 = n,
            Some("BLACKLISTED") => slot.2 = n,
            other => out.check(false, || format!("wkf {id}: {n} rows left in status {other:?}")),
        }
    }
    let rows = target(
        "SELECT t.wkfid, count(*) FROM hactivation t, hactivity a \
         WHERE t.actid = a.actid AND t.status = 'FINISHED' \
         AND (a.tag = 'autodock4' OR a.tag = 'vina') GROUP BY t.wkfid",
    )?;
    for row in rows {
        let id = row[0].as_f64().ok_or("wkfid is not a number")? as i64;
        if let Some(slot) = by_wkf.get_mut(&id) {
            slot.3 = row[1].as_f64().ok_or("count is not a number")? as u64;
        }
    }
    out.check_eq("workflows in the store", by_wkf.len(), specs.len());
    let mut want_tags: BTreeMap<&str, (usize, &str)> = BTreeMap::new();
    for spec in specs {
        want_tags.entry(tag_of(spec)).or_insert((0, spec)).0 += 1;
    }
    let mut docked = 0;
    for (id, (tag, finished, blacklisted, pairs)) in &by_wkf {
        let Some((left, spec)) = want_tags.get_mut(tag.as_str()) else {
            out.check(false, || format!("wkf {id} has unexpected tag {tag}"));
            continue;
        };
        *left = left.saturating_sub(1);
        let g = ctx.golden(spec)?;
        out.check_eq(&format!("wkf {id} ({spec}) FINISHED rows"), *finished, g.finished);
        out.check_eq(&format!("wkf {id} ({spec}) BLACKLISTED rows"), *blacklisted, g.blacklisted);
        out.check_eq(&format!("wkf {id} ({spec}) docked pairs"), *pairs, g.docked);
        docked += pairs;
    }
    Ok(docked)
}

/// Run one unit of a serve workload.
pub fn serve_unit(
    ctx: &Ctx<'_>,
    name: &str,
    w: &ServeWorkload,
    unit: usize,
) -> Result<UnitOut, String> {
    let mut out = UnitOut::default();
    let expect_finished: u64 =
        w.plan.iter().map(|(_, s)| ctx.golden(s).map(|g| g.finished)).sum::<Result<u64, _>>()?;

    // ---- set-up (timed)
    let mut spares: Vec<Daemon> = Vec::new();
    let live = repeat_setup(
        unit == 0,
        &mut out.setups,
        |rep| serve_setup(ctx, w, &ctx.fresh_dir(&format!("{name}-{unit}-{rep}"))?),
        |live: Live| {
            spares.extend(live.discard());
            Ok(())
        },
    )?;
    let Live { daemon, mut driver, mut steerer, wal, warmer } = live;
    // every throw-away daemon is gone before anything is measured
    for spare in spares.into_iter().chain(warmer) {
        spare.shutdown()?;
    }

    // ---- measured: driver + steerer, two threads, two connections
    let (nr, nl) = w.probe_dims;
    let mut mix = Mix::new(ctx.seed, expect_finished, nr, nl);
    let stop = AtomicBool::new(false);
    let (driven, live_samples) = std::thread::scope(|s| {
        let steering = s.spawn(|| steer::open_loop(&mut steerer, &mut mix, &stop, &ctx.tel));
        let driven = {
            let _run = ctx.tel.span("client", "run");
            drive(&mut driver, w, expect_finished, &ctx.tel)
        };
        stop.store(true, Ordering::SeqCst);
        (driven, steering.join().expect("steerer thread"))
    });
    let driven = match driven {
        Ok(d) => d,
        Err(e) => return Err(format!("{e}\nscidockd stderr:\n{}", daemon.stderr_text())),
    };

    // ---- reads alone on the loaded store
    let idle_samples = steer::closed_loop(&mut steerer, &mut mix, &ctx.tel);
    out.count_steering("live", &live_samples);
    out.count_steering("idle", &idle_samples);
    for shape in [2, 3] {
        // the probe literals must hit rows once the store is loaded
        let hit = idle_samples.iter().any(|s| s.shape == shape && s.rows.unwrap_or(0) > 0);
        out.check(hit, || format!("no idle {} probe found a row", steer::SHAPES[shape]));
    }

    // ---- what happened to each campaign
    out.attempted += w.plan.len() as u64 + driven.rejects;
    out.failed += driven.rejects;
    if driven.rejects > 0 {
        out.problems.push(format!("{} submissions were rejected", driven.rejects));
    }
    for c in &driven.campaigns {
        if c.finished.is_none() {
            out.failed += 1;
            out.problems.push(format!("campaign {} ({}) did not reach Finished", c.id, c.spec));
            continue;
        }
        let (columns, tuples) =
            driver.results(c.id).map_err(|e| format!("results {}: {e}", c.id))?;
        let digest = results_digest(&pair_results(&columns, tuples));
        out.check_eq(
            &format!("campaign {} ({}) results digest", c.id, c.spec),
            digest.as_str(),
            ctx.golden(c.spec)?.digest.as_str(),
        );
        out.digests.insert(c.spec.to_string(), digest);
    }
    out.check_eq("FINISHED rows through the query surface", driven.finished_rows, expect_finished);
    let specs: Vec<&str> = w.plan.iter().map(|(_, s)| *s).collect();
    let docked = check_counts(&mut out, ctx, &specs, &mut |sql| {
        driver.query(sql).map(|(_, rows)| rows).map_err(|e| format!("{sql}: {e}"))
    })?;

    // ---- end-to-end numbers
    let tet_s = driven.tet.as_secs_f64();
    out.put("tet_s", tet_s);
    out.put("pairs_per_s", docked as f64 / tet_s);
    let firsts: Vec<f64> = driven.campaigns.iter().filter_map(|c| c.first_result).map(ms).collect();
    out.put_opt("first_result_ms", median(&firsts));
    let rtts: Vec<f64> = driven.campaigns.iter().map(|c| ms(c.submit_rtt)).collect();
    out.put_opt("submit_p50_ms", median(&rtts));
    if w.plan.len() > 1 {
        let spans: Vec<f64> =
            driven.campaigns.iter().filter_map(|c| c.finished).map(|d| d.as_secs_f64()).collect();
        out.put_opt("campaign_p50_s", median(&spans));
        out.put_opt("campaign_p90_s", tail_quantile(&spans, 0.90));
    }
    out.live_ms = steer::latencies_ms(&live_samples);
    out.late_ms = live_samples.iter().map(|s| ms(s.late)).collect();
    out.put_opt("steer_idle_p50_ms", median(&steer::latencies_ms(&idle_samples)));

    // ---- traced: the paper's budget query, the daemon's histograms, spans
    if ctx.traced() {
        let (_, rows) = driver.query(BUDGET_SQL).map_err(|e| format!("budget query: {e}"))?;
        let budget = Budget::parse(&rows)?;
        budget_metrics(&mut out.layer, &budget, WORKERS, tet_s);
        let addr = daemon.metrics_addr.ok_or("traced daemon has no metrics endpoint")?;
        let (code, body) = cumulus::obs::http_get(addr, "/metrics", Duration::from_secs(5))
            .map_err(|e| format!("scrape {addr}: {e}"))?;
        if code != 200 {
            return Err(format!("scrape {addr}: HTTP {code}"));
        }
        // kept next to the daemon's stderr for whoever reads the trace
        let _ = std::fs::write(ctx.out.join(format!("{name}-metrics.prom")), &body);
        let samples =
            telemetry::prom::parse(&body).map_err(|l| format!("/metrics line {l} is malformed"))?;
        let wall: f64 = samples
            .iter()
            .filter(|s| s.name.starts_with("scidock_activation_") && s.name.ends_with("_sum"))
            .map(|s| s.value)
            .sum();
        activation_extras(&mut out.extra, wall, &budget);
        client_metrics(&mut out.layer, ctx, &driven);
    }

    // ---- shutdown, then what the disk holds
    out.put_opt("rss_peak_mb", daemon.vm_hwm_mb());
    daemon.shutdown()?;
    if let Some(wal) = &wal {
        let bytes = dir_bytes(wal)?;
        out.put("disk_bytes_per_act", bytes as f64 / driven.finished_rows.max(1) as f64);
        let t0 = Instant::now();
        let store = ProvenanceStore::open(wal).map_err(|e| format!("reopen WAL: {e}"))?;
        let integrity = store.verify_integrity();
        out.put("recover_s", t0.elapsed().as_secs_f64());
        out.check(integrity.is_ok(), || format!("reopened store fails integrity: {integrity:?}"));
        let kept = count_finished(&store)?;
        out.check_eq("acknowledged FINISHED rows after reopen", kept, driven.finished_rows);
    }
    Ok(out)
}

/// Remove the unit directories of a run that succeeded (WAL, page file,
/// grid cache, daemon stderr). A failed run returns before this, so its
/// state and the daemons' stderr stay for whoever reads the failure.
pub fn sweep(out: &Path, name: &str) {
    let Ok(entries) = std::fs::read_dir(out) else { return };
    for entry in entries.flatten() {
        let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
        if is_dir && entry.file_name().to_string_lossy().starts_with(&format!("{name}-")) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| format!("stat WAL dir: {e}"))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

// ------------------------------------------------------- traced per-layer

/// `scidock.act.<tag>.busy_s`, the activation count, and how much of the
/// `slots`' time the activities explain.
fn budget_metrics(layer: &mut BTreeMap<String, f64>, budget: &Budget, slots: usize, tet_s: f64) {
    for tag in ACTIVITIES {
        layer.insert(format!("scidock.act.{tag}.busy_s"), budget.busy_s(tag));
    }
    layer.insert("scidock.act.count".into(), budget.count() as f64);
    layer.insert("cumulus.workers.util".into(), budget.utilisation(slots, tet_s));
    layer.insert("cumulus.engine.unexplained_s".into(), budget.unexplained_s(slots, tet_s));
    layer.insert("trace.tet_s".into(), tet_s);
}

/// The product's `activation.<tag>` histograms time an activation's whole
/// life on its worker; Query 1 times the activity function alone. The gap is
/// what the worker spent writing provenance and waiting for the store.
fn activation_extras(extra: &mut BTreeMap<String, f64>, wall_s: f64, budget: &Budget) {
    extra.insert("cumulus.activation.wall_s".into(), wall_s);
    extra.insert("provenance.inline_write_s".into(), wall_s - budget.total_busy_s());
}

/// Time the client spent in each phase of its campaigns (summed over
/// campaigns), and one trace lane per campaign.
fn client_metrics(layer: &mut BTreeMap<String, f64>, ctx: &Ctx<'_>, driven: &Driven) {
    let now = ctx.tel.now_ns();
    let run_start = now.saturating_sub(driven.tet.as_nanos() as u64);
    let t_first = driven.campaigns.iter().map(|c| c.submitted).min();
    let (mut submit, mut first, mut finish) = (0.0, 0.0, 0.0);
    for c in &driven.campaigns {
        let (Some(t_first), Some(done)) = (t_first, c.finished) else { continue };
        let fr = c.first_result.unwrap_or(done);
        submit += c.submit_rtt.as_secs_f64();
        first += fr.saturating_sub(c.submit_rtt).as_secs_f64();
        finish += done.saturating_sub(fr).as_secs_f64();
        let base = run_start + c.submitted.duration_since(t_first).as_nanos() as u64;
        let at = |d: Duration| base + d.as_nanos() as u64;
        let lane = Some(c.track);
        let detail = format!("campaign={} spec={}", c.id, c.spec);
        for (phase, from, to) in [
            ("campaign.submit", Duration::ZERO, c.submit_rtt),
            ("campaign.first_wait", c.submit_rtt, fr),
            ("campaign.finish_wait", fr, done),
        ] {
            ctx.tel.record_span_at("client", phase, lane, at(from), at(to), Some(&detail));
        }
    }
    layer.insert("client.submit_s".into(), submit);
    layer.insert("client.first_wait_s".into(), first);
    layer.insert("client.finish_wait_s".into(), finish);
    layer.insert("client.visible_wait_s".into(), driven.visible_wait.as_secs_f64());
    layer.insert("client.polls".into(), driven.polls as f64);
}

fn extra_counter(extra: &mut BTreeMap<String, f64>, snap: &MetricsSnapshot, name: &str) {
    extra.insert(format!("docking.{name}"), snap.counter(name).unwrap_or(0) as f64);
}

/// The client layer is not crossed by `dist_screen` and `deep_local`: no
/// time was spent in it.
fn no_client_metrics(layer: &mut BTreeMap<String, f64>) {
    for name in ["submit_s", "first_wait_s", "finish_wait_s", "visible_wait_s", "polls"] {
        layer.insert(format!("client.{name}"), 0.0);
    }
}

// ------------------------------------------------------------------- dist

/// One unit of `dist_screen`: an in-process `run_dist` master with two real
/// `scidock-worker` processes and a steerer on the shared store.
pub fn dist_unit(ctx: &Ctx<'_>, unit: usize) -> Result<UnitOut, String> {
    let mut out = UnitOut::default();
    let spec = ctx.sizes.screen;
    let golden = ctx.golden(spec)?;

    // ---- set-up (timed): cache dir, stage-in, store
    let (def, input, files, prov) = repeat_setup(
        unit == 0,
        &mut out.setups,
        |rep| {
            let dir = ctx.fresh_dir(&format!("dist_screen-{unit}-{rep}"))?;
            // the master and the workers it spawns read the cache dir from
            // the environment; nothing else in this process is running yet
            std::env::set_var("SCIDOCK_GRID_CACHE_DIR", dir.join("gridcache"));
            let files = Arc::new(FileStore::new());
            let def = distspec::resolve_with(spec, &files).ok_or("spec does not resolve")?;
            let input = distspec::prepare(spec, &files).ok_or("spec does not prepare")?;
            Ok((def, input, files, Arc::new(ProvenanceStore::new())))
        },
        |_| Ok(()),
    )?;
    let cfg = DistConfig::new()
        .with_workers(WORKERS)
        .with_worker_command(ctx.worker.to_string_lossy().into_owned(), Vec::new())
        .with_spec(spec)
        .with_steering_tick(Duration::from_millis(250))
        .with_telemetry(if ctx.traced() { Telemetry::attached() } else { Telemetry::disabled() });

    // ---- measured
    let (nr, nl) = ctx.sizes.screen_dims;
    let mut mix = Mix::new(ctx.seed, golden.finished, nr, nl);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let store: &ProvenanceStore = &prov;
    let (report, finished_rows, tet, live_samples) = std::thread::scope(|s| {
        let steering = s.spawn(|| {
            let mut target = store;
            steer::open_loop(&mut target, &mut mix, &stop, &ctx.tel)
        });
        let report = {
            let _run = ctx.tel.span("master", "run_dist");
            run_dist(&def, input, files, Arc::clone(&prov), &cfg)
        };
        let finished = count_finished(&prov);
        let tet = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        (report, finished, tet, steering.join().expect("steerer thread"))
    });
    let report = report.map_err(|e| format!("run_dist: {e}"))?;

    let mut target: &ProvenanceStore = &prov;
    let idle_samples = steer::closed_loop(&mut target, &mut mix, &ctx.tel);
    out.count_steering("live", &live_samples);
    out.count_steering("idle", &idle_samples);

    out.attempted += 1; // the campaign
    let rel = report.final_output();
    let digest = results_digest(&scidock::analysis::results_from_relation(rel));
    out.check_eq("results digest", digest.as_str(), golden.digest.as_str());
    out.digests.insert(spec.to_string(), digest);
    out.check_eq("FINISHED rows through the query surface", finished_rows?, golden.finished);
    let docked = check_counts(&mut out, ctx, &[spec], &mut |sql| query(&prov, sql))?;

    let tet_s = tet.as_secs_f64();
    out.put("tet_s", tet_s);
    out.put("pairs_per_s", docked as f64 / tet_s);
    out.live_ms = steer::latencies_ms(&live_samples);
    out.late_ms = live_samples.iter().map(|s| ms(s.late)).collect();
    out.put_opt("steer_idle_p50_ms", median(&steer::latencies_ms(&idle_samples)));
    out.put_opt("rss_peak_mb", ctx.own_rss_peak_mb());
    if ctx.traced() {
        // the master times an activation from dispatch to result, and keeps
        // `max_in_flight` of them queued on each worker
        let slots = WORKERS * cfg.max_in_flight;
        let budget = Budget::parse(&query(&prov, BUDGET_SQL)?)?;
        budget_metrics(&mut out.layer, &budget, slots, tet_s);
        if let Some(snap) = &report.metrics {
            let wall: f64 = snap
                .histograms
                .iter()
                .filter(|h| h.name.starts_with("activation."))
                .map(|h| h.mean_s * h.count as f64)
                .sum();
            // here the store's intervals run from dispatch to result, so
            // what exceeds the workers' own activation time is queueing on
            // the worker and the wire
            out.extra.insert("cumulus.activation.wall_s".into(), wall);
            out.extra.insert("cumulus.dist.queue_wait_s".into(), budget.total_busy_s() - wall);
        }
        no_client_metrics(&mut out.layer);
    }
    Ok(out)
}

fn query(prov: &ProvenanceStore, sql: &str) -> Result<Rows, String> {
    prov.query_rows(sql, &[]).map(|rs| rs.rows).map_err(|e| format!("{sql}: {e}"))
}

fn count_finished(prov: &ProvenanceStore) -> Result<u64, String> {
    let rows = query(prov, COUNT_FINISHED_SQL)?;
    Ok(scalar(&rows).ok_or("count(*) returned no number")? as u64)
}

// ------------------------------------------------------------------ local

/// Golden key of `deep_local` at the given size.
pub fn deep_key(sizes: &Sizes) -> String {
    format!("deep_local:{}x{}", sizes.deep.0, sizes.deep.1)
}

/// One unit of `deep_local`: `run_screening` at the paper-scale search
/// budgets of `SciDockConfig::default()`, two threads, no steerer (the
/// store is internal until the run returns).
pub fn deep_unit(ctx: &Ctx<'_>, unit: usize) -> Result<UnitOut, String> {
    let mut out = UnitOut::default();
    let (nr, nl) = ctx.sizes.deep;
    let key = deep_key(ctx.sizes);
    let golden = ctx.golden(&key)?;
    let (receptors, ligands) = (&RECEPTOR_IDS[..nr], &LIGAND_CODES[..nl]);

    // ---- set-up (timed): a unit directory and the generated inputs, which
    // also say how many pairs the run must account for
    let pairs = repeat_setup(
        unit == 0,
        &mut out.setups,
        |rep| {
            ctx.fresh_dir(&format!("deep_local-{unit}-{rep}"))?;
            Ok(Dataset::subset(receptors, ligands, DatasetParams::default()).pair_count())
        },
        |_| Ok(()),
    )?;

    // ---- measured
    let dock_tel = if ctx.traced() { Telemetry::attached() } else { Telemetry::disabled() };
    let cfg = SciDockConfig {
        dock: docking::engine::DockConfig {
            telemetry: dock_tel.clone(),
            ..SciDockConfig::default().dock
        },
        ..SciDockConfig::default()
    };
    let t0 = Instant::now();
    let outcome = {
        let _run = ctx.tel.span("local", "run_screening");
        run_screening(receptors, ligands, EngineMode::Adaptive, WORKERS, &cfg)
    };
    let finished_rows = count_finished(&outcome.prov)?;
    let tet_s = t0.elapsed().as_secs_f64();

    let mut mix = Mix::new(ctx.seed, golden.finished, nr, nl);
    let mut target: &ProvenanceStore = &outcome.prov;
    let idle_samples = steer::closed_loop(&mut target, &mut mix, &ctx.tel);
    out.count_steering("idle", &idle_samples);

    out.attempted += 1; // the screening
    let digest = results_digest(&outcome.results);
    out.check_eq("results digest", digest.as_str(), golden.digest.as_str());
    out.digests.insert(key.clone(), digest);
    out.check_eq("FINISHED rows through the query surface", finished_rows, golden.finished);
    let docked =
        check_counts(&mut out, ctx, &[key.as_str()], &mut |sql| query(&outcome.prov, sql))?;
    out.check_eq("results relation rows", outcome.results.len() as u64, docked);
    out.check(docked <= pairs as u64, || format!("{docked} docked pairs from {pairs} inputs"));

    out.put("tet_s", tet_s);
    out.put("pairs_per_s", docked as f64 / tet_s);
    out.put_opt("steer_idle_p50_ms", median(&steer::latencies_ms(&idle_samples)));
    out.put_opt("rss_peak_mb", ctx.own_rss_peak_mb());
    if ctx.traced() {
        let budget = Budget::parse(&query(&outcome.prov, BUDGET_SQL)?)?;
        budget_metrics(&mut out.layer, &budget, WORKERS, tet_s);
        no_client_metrics(&mut out.layer);
        // the docking layer's own counters: the work measure of the kernels
        if let Some(snap) = dock_tel.snapshot() {
            for name in ["dock.evaluations", "gridcache.hit", "gridcache.miss"] {
                extra_counter(&mut out.extra, &snap, name);
            }
        }
    }
    Ok(out)
}
