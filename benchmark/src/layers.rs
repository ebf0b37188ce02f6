//! The layer suite: each entry times calls into one layer's public
//! functions on fixed reference inputs, so a change to that layer shows
//! here first and a later issue can cite the row it expects to move.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::serve::{CampaignState, ServeClient, SubmitOutcome};
use cumulus::workflow::{Activity, FileStore, WorkflowDef};
use cumulus::{run_dist, Backend, DistConfig, LocalBackend, LocalConfig, Relation, Workflow};
use docking::conformation::{LigandModel, Pose};
use docking::energy::EnergyModel;
use docking::engine::{dock_with_grids, DockConfig, EngineKind};
use molkit::formats::pdbqt::PdbqtLigand;
use molkit::formats::{mol2, pdb, pdbqt, sdf};
use molkit::{Molecule, Vec3};
use provenance::durable::io::DirEnv;
use provenance::{
    ActivationRecord, ActivationStatus, ActivityId, DurableOptions, ProvenanceStore, Value,
    WorkflowId,
};
use scidock::activities::GridCache;
use scidock::dataset::{make_ligand, make_receptor};
use scidock::{
    build_scidock, simulate_at, stage_inputs, Dataset, DatasetParams, EngineMode, SciDockConfig,
    SweepConfig, LIGAND_CODES, RECEPTOR_IDS,
};
use scidock_bench::distspec;
use telemetry::Telemetry;

use crate::proc::{Daemon, DaemonOpts};
use crate::spec::WORKERS;
use crate::stats::{median, tail_quantile};
use crate::steer::{Mix, SHAPES};
use crate::workloads::run_to_finish;

/// Activations in the "loaded" provenance stores.
const LOADED: usize = 20_000;
/// Write sequences timed at each store size.
const WRITE_REPS: usize = 2_000;
/// No-op activations behind the per-activation engine overheads.
const NOOP_ACTS: usize = 5_000;

/// Median seconds per call: at least three calls, then until thirty calls
/// or `budget` is spent, whichever comes first.
fn time_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (samples.len() < 30 && t0.elapsed() < budget) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples).expect("at least three samples")
}

struct Suite<'a> {
    out: BTreeMap<String, f64>,
    dir: &'a Path,
    scidockd: &'a Path,
    worker: &'a Path,
    /// Per-entry time budget.
    budget: Duration,
}

impl Suite<'_> {
    fn put(&mut self, name: &str, v: f64) {
        self.out.insert(name.to_string(), v);
    }

    fn time(&mut self, name: &str, scale: f64, f: impl FnMut()) {
        let s = time_median(self.budget, f);
        self.put(name, s * scale);
    }
}

/// Run the whole suite; temp state goes under `dir`.
pub fn run(
    dir: &Path,
    scidockd: &Path,
    worker: &Path,
    budget: Duration,
) -> Result<BTreeMap<String, f64>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut s = Suite { out: BTreeMap::new(), dir, scidockd, worker, budget };
    let (receptor, ligand) = reference_pair();
    molkit_layer(&mut s, &receptor, &ligand);
    docking_layer(&mut s, &receptor, &ligand)?;
    scidock_layer(&mut s);
    provenance_layer(&mut s)?;
    cumulus_layer(&mut s)?;
    telemetry_layer(&mut s);
    // stores and caches of a suite that succeeded are of no further use
    let _ = std::fs::remove_dir_all(dir);
    Ok(s.out)
}

/// The reference inputs: first receptor and first ligand of the Table 2
/// dataset, raw as the pipeline receives them.
fn reference_pair() -> (Molecule, Molecule) {
    let params = DatasetParams::default();
    (
        make_receptor(RECEPTOR_IDS[0], &params).structure,
        make_ligand(LIGAND_CODES[0], &params).structure,
    )
}

/// Activity 2 of the pipeline: typed, charged, H-merged, torsion tree built.
fn prepared_ligand(raw: &Molecule) -> PdbqtLigand {
    let mut mol = raw.clone();
    molkit::typer::assign_ad_types(&mut mol);
    molkit::charges::assign_gasteiger(&mut mol, &Default::default());
    molkit::typer::merge_nonpolar_hydrogens(&mut mol);
    let tree = molkit::torsion::build_torsion_tree(&mol);
    PdbqtLigand { mol, tree }
}

/// Activity 3: typed and charged, through PDBQT text as the pipeline
/// stages it (the grid cache keys on that text).
fn receptor_pdbqt(raw: &Molecule) -> String {
    let mut mol = raw.clone();
    molkit::typer::assign_ad_types(&mut mol);
    molkit::charges::assign_gasteiger(&mut mol, &Default::default());
    pdbqt::write_receptor_pdbqt(&mol)
}

// ----------------------------------------------------------------- molkit

fn molkit_layer(s: &mut Suite<'_>, receptor: &Molecule, ligand: &Molecule) {
    let sdf_text = sdf::write_sdf(ligand);
    s.time("molkit.sdf_to_mol2_us", 1e6, || {
        let mol = sdf::read_sdf(&sdf_text).expect("reference SDF parses");
        std::hint::black_box(mol2::write_mol2(&mol));
    });
    let lig = prepared_ligand(ligand);
    s.time("molkit.pdbqt_roundtrip_us", 1e6, || {
        let text = pdbqt::write_ligand_pdbqt(&lig);
        std::hint::black_box(pdbqt::read_ligand_pdbqt(&text).expect("own PDBQT parses"));
    });
    let pdb_text = pdb::write_pdb(receptor);
    s.time("molkit.prep_receptor_us", 1e6, || {
        let mol = pdb::read_pdb(&pdb_text).expect("reference PDB parses");
        std::hint::black_box(receptor_pdbqt(&mol));
    });
    s.time("molkit.torsion_tree_us", 1e6, || {
        std::hint::black_box(molkit::torsion::build_torsion_tree(&lig.mol));
    });
}

// ---------------------------------------------------------------- docking

fn docking_layer(s: &mut Suite<'_>, receptor: &Molecule, ligand: &Molecule) -> Result<(), String> {
    // default budgets: LGA 20x18x3 runs, 1.0 A maps, one thread
    let cfg: DockConfig = SciDockConfig::default().dock;
    let rec_text = receptor_pdbqt(receptor);
    let rec = pdbqt::read_receptor_pdbqt(&rec_text).map_err(|e| format!("receptor: {e}"))?;
    let lig = prepared_ligand(ligand);
    let pocket =
        molkit::geometry::find_pocket(&rec, cfg.pocket_probe).ok_or("reference has no pocket")?;
    let spec = docking::grid::GridSpec::with_edge(pocket.center, cfg.box_edge, cfg.grid_spacing);
    let types = lig.mol.ad_types();

    let ad4 = || {
        docking::autogrid::build_ad4_grids(&rec, spec, &types, &docking::params::Ad4Params::new())
    };
    let vina = || {
        docking::autogrid::build_vina_grids(
            &rec,
            spec,
            &types,
            &docking::params::VinaParams::default(),
        )
    };
    s.time("docking.grid_build_ad4_ms", 1e3, || drop(std::hint::black_box(ad4())));
    s.time("docking.grid_build_vina_ms", 1e3, || drop(std::hint::black_box(vina())));
    let (ad4_grids, vina_grids) = (ad4(), vina());
    s.put("docking.grid_bytes", ad4_grids.bytes() as f64);
    let text = docking::gridio::serialize_grid_set(&ad4_grids);
    s.time("docking.grid_serialize_ms", 1e3, || {
        std::hint::black_box(docking::gridio::serialize_grid_set(&ad4_grids));
    });
    s.time("docking.grid_deserialize_ms", 1e3, || {
        std::hint::black_box(docking::gridio::deserialize_grid_set(&text).expect("own entry"));
    });

    // GridCache::get_or_build at its three levels
    let cache_dir = s.dir.join("gridcache");
    let get = |cache: &GridCache| {
        cache.get_or_build(RECEPTOR_IDS[0], &rec_text, EngineKind::Ad4, &cfg).expect("grids build")
    };
    s.time("docking.gridcache_cold_ms", 1e3, || {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cache = GridCache::persistent(&cache_dir, Arc::new(FileStore::new()));
        std::hint::black_box(get(&cache));
    });
    s.time("docking.gridcache_disk_hit_ms", 1e3, || {
        let cache = GridCache::persistent(&cache_dir, Arc::new(FileStore::new()));
        std::hint::black_box(get(&cache));
    });
    let cache = GridCache::persistent(&cache_dir, Arc::new(FileStore::new()));
    get(&cache);
    s.time("docking.gridcache_mem_hit_us", 1e6, || drop(std::hint::black_box(get(&cache))));

    for (name, grids, engine) in
        [("ad4", &ad4_grids, EngineKind::Ad4), ("vina", &vina_grids, EngineKind::Vina)]
    {
        let dock = || dock_with_grids(grids, RECEPTOR_IDS[0], &lig, engine, &cfg).expect("docks");
        s.time(&format!("docking.{name}_dock_ms"), 1e3, || drop(std::hint::black_box(dock())));
        s.put(&format!("docking.{name}_evaluations"), dock().evaluations as f64);
    }

    // the energy kernel on 200 poses scattered through the box
    let lm = LigandModel::new(&lig);
    let em = EnergyModel::new(&ad4_grids, &lm).map_err(|e| format!("energy model: {e}"))?;
    let natoms = lm.atom_count();
    let coords: Vec<Vec3> = (0..200)
        .flat_map(|p| {
            let f = |k: u32| ((p * 37 + k * 11) % 17) as f64 / 17.0 - 0.5;
            let at = pocket.center + Vec3::new(f(1), f(2), f(3)) * (cfg.box_edge * 0.5);
            lm.coords(&Pose::at(at, lm.torsdof()))
        })
        .collect();
    s.time("docking.energy_total_ns", 1e9 / 200.0, || {
        for pose in coords.chunks_exact(natoms) {
            std::hint::black_box(em.total(pose));
        }
    });
    let mut energies = vec![0.0; 200];
    s.time("docking.energy_batch_ns_per_pose", 1e9 / 200.0, || {
        em.total_batch(&coords, &mut energies);
        std::hint::black_box(&energies);
    });
    Ok(())
}

// ---------------------------------------------------------------- scidock

fn scidock_layer(s: &mut Suite<'_>) {
    let cfg = SciDockConfig::default();
    s.time("scidock.stage_inputs_ms_48x42", 1e3, || {
        let ds =
            Dataset::subset(&RECEPTOR_IDS[..48], &LIGAND_CODES[..42], DatasetParams::default());
        std::hint::black_box(stage_inputs(&ds, &FileStore::new(), &cfg.expdir));
    });
    s.time("scidock.build_workflow_us", 1e6, || {
        std::hint::black_box(build_scidock(EngineMode::Adaptive, &cfg, Arc::new(FileStore::new())));
    });
}

// ------------------------------------------------------------- provenance

/// The write sequence every backend issues per activation: RUNNING row,
/// FINISHED update, one file, one output tuple.
struct Writer<'a> {
    store: &'a ProvenanceStore,
    wkf: WorkflowId,
    act: ActivityId,
    next: usize,
}

impl<'a> Writer<'a> {
    fn new(store: &'a ProvenanceStore) -> Writer<'a> {
        let wkf = store.begin_workflow("SciDock", "layer suite", "/root/exp_SciDock");
        let act = store.register_activity(wkf, "babel", "MAP");
        Writer { store, wkf, act, next: 0 }
    }

    fn record(&self, status: ActivationStatus, key: &str, i: usize) -> ActivationRecord {
        ActivationRecord {
            activity: self.act,
            workflow: self.wkf,
            status,
            start_time: i as f64 * 1e-3,
            end_time: i as f64 * 1e-3 + 5e-4,
            machine: None,
            retries: 0,
            pair_key: key.to_string(),
        }
    }

    fn write_one(&mut self) {
        let i = self.next;
        self.next += 1;
        let key = format!("{}:{}:{i}", RECEPTOR_IDS[i % 48], LIGAND_CODES[i % 42]);
        let task = self.store.record_activation(&self.record(ActivationStatus::Running, &key, i));
        self.store.update_activation(task, &self.record(ActivationStatus::Finished, &key, i));
        self.store.record_file(task, self.act, self.wkf, "out.mol2", 2048, "/root/exp/babel/");
        self.store.record_output_tuple(
            task,
            self.act,
            self.wkf,
            &key,
            0,
            &[Value::from("1AEC"), Value::from("042"), Value::Float(-7.25)],
        );
    }

    /// Median microseconds per sequence over [`WRITE_REPS`] sequences.
    fn timed_writes(&mut self) -> f64 {
        let us: Vec<f64> = (0..WRITE_REPS)
            .map(|_| {
                let t = Instant::now();
                self.write_one();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&us).expect("WRITE_REPS > 0")
    }

    fn fill_to(&mut self, n: usize) {
        while self.next < n {
            self.write_one();
        }
    }
}

/// Time the five steering shapes on a loaded store, thirty queries each.
fn steering_shapes(s: &mut Suite<'_>, prefix: &str, store: &ProvenanceStore) -> Result<(), String> {
    let mut mix = Mix::new(1, LOADED as u64, 48, 42);
    for (shape, name) in SHAPES.iter().enumerate() {
        let (unit, scale) =
            if matches!(*name, "q_task" | "q_pair") { ("us", 1e6) } else { ("ms", 1e3) };
        let mut err = None;
        s.time(&format!("{prefix}.{name}_{unit}"), scale, || {
            if let Err(e) = store.query_rows(&mix.sql(shape), &[]) {
                err = Some(e.to_string());
            }
        });
        if let Some(e) = err {
            return Err(format!("{prefix}.{name}: {e}"));
        }
    }
    Ok(())
}

fn provenance_layer(s: &mut Suite<'_>) -> Result<(), String> {
    // ---- Mem and non-durable paged
    for (name, store) in [("mem", ProvenanceStore::new()), ("paged", ProvenanceStore::new_paged())]
    {
        let mut w = Writer::new(&store);
        let at_0 = w.timed_writes();
        s.put(&format!("provenance.{name}.act_write_us_at_0"), at_0);
        w.fill_to(LOADED);
        let at_loaded = w.timed_writes();
        s.put(&format!("provenance.{name}.act_write_us_at_20k"), at_loaded);
        steering_shapes(s, &format!("provenance.{name}"), &store)?;
        if name == "paged" {
            let c = store.cache_stats();
            let ratio = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
            s.put("provenance.paged.cache_hit_ratio", ratio);
            s.put("provenance.paged.cache_evictions", c.evictions as f64);
            contended(s, &store, &mut w);
        }
    }

    // ---- durable: paged + WAL, default options, one client
    let wal_dir = s.dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let tel = Telemetry::attached();
    let options = DurableOptions { telemetry: tel.clone(), ..Default::default() };
    let store = ProvenanceStore::open_with(&wal_dir, options).map_err(|e| format!("open: {e}"))?;
    let mut w = Writer::new(&store);
    s.put("provenance.wal.act_write_us_at_0", w.timed_writes());
    let counter = |name: &str| tel.snapshot().and_then(|m| m.counter(name)).unwrap_or(0) as f64;
    s.put("provenance.wal.appends_per_act", counter("provstore.wal_appends") / WRITE_REPS as f64);
    s.put("provenance.wal.checkpoints", counter("provstore.checkpoints"));
    w.fill_to(LOADED);
    s.put("provenance.wal.act_write_us_at_20k", w.timed_writes());
    let t = Instant::now();
    store.checkpoint();
    s.put("provenance.wal.checkpoint_ms_at_20k", t.elapsed().as_secs_f64() * 1e3);
    drop(store);
    let t = Instant::now();
    let store = ProvenanceStore::open(&wal_dir).map_err(|e| format!("reopen: {e}"))?;
    s.put("provenance.wal.reopen_ms_at_20k", t.elapsed().as_secs_f64() * 1e3);
    drop(store);

    // ---- log bytes per activation: no checkpoints, so the log only grows
    let log_dir = s.dir.join("wal-bytes");
    let _ = std::fs::remove_dir_all(&log_dir);
    let options = DurableOptions { checkpoint_every: 0, ..Default::default() };
    let store = ProvenanceStore::open_with(&log_dir, options).map_err(|e| format!("open: {e}"))?;
    let mut w = Writer::new(&store);
    let log = DirEnv::new(&log_dir).map_err(|e| format!("WAL dir: {e}"))?.wal_path();
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    store.flush_wal();
    let before = size(&log);
    w.fill_to(WRITE_REPS);
    store.flush_wal();
    s.put("provenance.wal.bytes_per_act", (size(&log) - before) as f64 / WRITE_REPS as f64);
    Ok(())
}

/// Reads beside writes on one store from two threads for one second: a
/// reader gain paid for by the writer shows as a slower write here.
fn contended(s: &mut Suite<'_>, store: &ProvenanceStore, w: &mut Writer<'_>) {
    let stop = AtomicBool::new(false);
    let (write_us, query_ms) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut mix = Mix::new(2, LOADED as u64, 48, 42);
            let mut ms = Vec::new();
            let mut i = 0;
            while !stop.load(Ordering::SeqCst) {
                let t = Instant::now();
                let _ = store.query_rows(&mix.sql(i), &[]);
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                i += 1;
            }
            ms
        });
        let t0 = Instant::now();
        let mut write_us = Vec::new();
        while t0.elapsed() < Duration::from_secs(1) {
            let t = Instant::now();
            w.write_one();
            write_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        stop.store(true, Ordering::SeqCst);
        (write_us, reader.join().expect("reader thread"))
    });
    s.put("provenance.contended.act_write_us", median(&write_us).expect("one second of writes"));
    let p95 = tail_quantile(&query_ms, 0.95).or_else(|| median(&query_ms)).unwrap_or(0.0);
    s.put("provenance.contended.q_p95_ms", p95);
}

// ---------------------------------------------------------------- cumulus

fn noop_workflow(n: usize) -> Workflow {
    let def = WorkflowDef {
        tag: "noop".into(),
        description: "no-op activations".into(),
        expdir: "/exp/noop".into(),
        activities: vec![Activity::map("noop", &["x"], Arc::new(|t, _| Ok(t.to_vec())))],
        deps: vec![vec![]],
    };
    let mut input = Relation::new(&["x"]);
    for i in 0..n {
        input.push(vec![Value::Int(i as i64)]);
    }
    Workflow::new(def, input)
}

fn dist_run(worker: &Path, spec: &str) -> Result<f64, String> {
    let files = Arc::new(FileStore::new());
    let def = distspec::resolve_with(spec, &files).ok_or("spec does not resolve")?;
    let input = distspec::prepare(spec, &files).ok_or("spec does not prepare")?;
    let cfg = DistConfig::new()
        .with_workers(WORKERS)
        .with_worker_command(worker.to_string_lossy().into_owned(), Vec::new())
        .with_spec(spec);
    let t = Instant::now();
    let report = run_dist(&def, input, files, Arc::new(ProvenanceStore::new()), &cfg)
        .map_err(|e| format!("run_dist {spec}: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let want: usize = spec.split(':').nth(2).and_then(|n| n.parse().ok()).unwrap_or(0);
    if report.finished != want {
        return Err(format!("{spec}: {} of {want} activations finished", report.finished));
    }
    Ok(wall)
}

fn cumulus_layer(s: &mut Suite<'_>) -> Result<(), String> {
    let spin = format!("unit:spin:{NOOP_ACTS}:0");

    let backend = LocalBackend::new(LocalConfig::new().with_threads(WORKERS));
    let wf = noop_workflow(NOOP_ACTS);
    let t = Instant::now();
    let outcome = backend
        .run(&wf, &Arc::new(ProvenanceStore::new()))
        .map_err(|e| format!("local no-op run: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    if outcome.finished != NOOP_ACTS {
        return Err(format!("local no-op run finished {} activations", outcome.finished));
    }
    s.put("cumulus.local.act_overhead_us", wall * 1e6 / NOOP_ACTS as f64);

    s.put("cumulus.dist.act_overhead_us", dist_run(s.worker, &spin)? * 1e6 / NOOP_ACTS as f64);
    let spawn: Result<Vec<f64>, String> =
        (0..3).map(|_| dist_run(s.worker, "unit:spin:1:0")).collect();
    s.put("cumulus.dist.spawn_ms", median(&spawn?).expect("three runs") * 1e3);

    let opts = DaemonOpts {
        wal: None,
        grid_cache: &s.dir.join("serve-gridcache"),
        metrics: false,
        stderr: &s.dir.join("scidockd.stderr"),
    };
    let daemon = Daemon::spawn(s.scidockd, &opts)?;
    let mut client =
        ServeClient::connect(daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    let mut err = None;
    s.time("cumulus.serve.query_rtt_us", 1e6, || {
        if let Err(e) = client.query("SELECT count(*) FROM hworkflow") {
            err = Some(format!("query: {e}"));
        }
    });
    let mut floors = Vec::new();
    let mut rtts = Vec::new();
    let mut last = 0;
    for _ in 0..10 {
        let t = Instant::now();
        match client.submit("layers", 0, "unit:spin:1:0").map_err(|e| format!("submit: {e}"))? {
            SubmitOutcome::Accepted { id } => last = id,
            SubmitOutcome::Rejected { reason, .. } => return Err(format!("rejected: {reason}")),
        }
        rtts.push(t.elapsed().as_secs_f64());
        while client.status(last).map_err(|e| format!("status: {e}"))?.state
            != CampaignState::Finished
        {
            if t.elapsed() > Duration::from_secs(10) {
                return Err("unit:spin:1:0 did not finish within 10 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        floors.push(t.elapsed().as_secs_f64());
    }
    s.put("cumulus.serve.submit_rtt_us", median(&rtts).expect("ten submits") * 1e6);
    s.put("cumulus.serve.campaign_floor_ms", median(&floors).expect("ten campaigns") * 1e3);
    s.time("cumulus.serve.status_rtt_us", 1e6, || {
        if let Err(e) = client.status(last) {
            err = Some(format!("status: {e}"));
        }
    });
    s.put(
        "cumulus.serve.act_overhead_us",
        run_to_finish(&mut client, &spin)?.as_secs_f64() * 1e6 / NOOP_ACTS as f64,
    );
    daemon.shutdown()?;
    if let Some(e) = err {
        return Err(e);
    }

    // the simulator on the full Table 2 task set at 32 cores (report-only)
    let t = Instant::now();
    let report = simulate_at(32, EngineMode::Adaptive, &SweepConfig::default(), None);
    s.put("cumulus.sim.acts_per_s", report.finished as f64 / t.elapsed().as_secs_f64());
    Ok(())
}

// -------------------------------------------------------------- telemetry

fn telemetry_layer(s: &mut Suite<'_>) {
    const N: usize = 10_000;
    let per_op = |f: &dyn Fn()| {
        time_median(Duration::from_millis(100), || {
            for _ in 0..N {
                f();
            }
        }) * 1e9
            / N as f64
    };
    let on = Telemetry::attached();
    let off = Telemetry::disabled();
    s.put("telemetry.span_ns_attached", per_op(&|| drop(on.span("layers", "span"))));
    s.put("telemetry.span_ns_disabled", per_op(&|| drop(off.span("layers", "span"))));
    let counter = on.counter("layers.counter").expect("attached");
    s.put("telemetry.counter_ns", per_op(&|| counter.incr()));
}
