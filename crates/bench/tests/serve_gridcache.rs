//! The daemon's receptor tier and the persistent grid cache, across
//! campaigns and across daemons.
//!
//! Campaigns resolved by one daemon share one [`ReceptorCache`] handle: the
//! first (cold) screens, prepares, builds, persists and renders each
//! receptor once, and every later one is served from process memory — no
//! disk load, no build, no parse, no rendering, asserted through the
//! `gridcache.*` / `receptor.*` counters. A second daemon with a new handle
//! on the same directory is served from disk. Every campaign's canonical
//! PROV-N is byte-identical to a one-shot cold-cache run through the local
//! backend with telemetry off, because cache traffic never appears as
//! produced files in provenance. A finished campaign lets go of its file
//! store; only the tier's one entry per receptor stays.

use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use cumulus::serve::{
    CampaignResolver, CampaignState, Daemon, ServeClient, ServeConfig, SubmitOutcome,
};
use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, LocalConfig, Workflow};
use provenance::{export_provn_canonical_for, ProvenanceStore};
use scidock::{build_scidock, stage_inputs, Dataset, DatasetParams, EngineMode, SciDockConfig};
use telemetry::Telemetry;

/// The fast integration-test search budget, pointed at `cache_dir` and
/// wired to `tel` so the cache counters are observable. Each call makes a
/// fresh receptor tier; clones of the returned config share it.
fn campaign_cfg(tel: &Telemetry, cache_dir: &std::path::Path) -> SciDockConfig {
    SciDockConfig {
        dock: docking::engine::DockConfig {
            ad4_runs: 1,
            lga: docking::search::LgaConfig { population: 6, generations: 4, ..Default::default() },
            mc: docking::search::McConfig { restarts: 2, steps: 3, ..Default::default() },
            grid_spacing: 1.5,
            box_edge: 14.0,
            telemetry: tel.clone(),
            ..Default::default()
        },
        hg_rule: true,
        grid_cache_dir: Some(cache_dir.to_path_buf()),
        ..Default::default()
    }
}

fn dataset() -> Dataset {
    let mut p = DatasetParams::default();
    p.receptor.min_residues = 30;
    p.receptor.max_residues = 35;
    p.receptor.hg_fraction = 0.0;
    p.ligand.min_heavy = 8;
    p.ligand.max_heavy = 10;
    Dataset::subset(&["1HUC"], &["042", "074"], p)
}

fn scidock_workflow(cfg: &SciDockConfig) -> Workflow {
    let files = Arc::new(FileStore::new());
    let def = build_scidock(EngineMode::Ad4Only, cfg, Arc::clone(&files));
    let input = stage_inputs(&dataset(), &files, &cfg.expdir);
    Workflow::new(def, input).with_files(files)
}

fn wait_finished(client: &mut ServeClient, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let st = client.status(id).expect("status io");
        if st.state == CampaignState::Finished {
            return;
        }
        assert!(Instant::now() < deadline, "campaign {id} stuck in {:?}", st.state);
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A two-worker daemon whose every campaign is `scidock_workflow(cfg)` — so
/// all of them share `cfg`'s receptor tier — and which notes each campaign's
/// file store in `stores`.
fn start_daemon(
    cfg: &SciDockConfig,
    tel: &Telemetry,
    prov: &Arc<ProvenanceStore>,
    stores: &Arc<Mutex<Vec<Weak<FileStore>>>>,
) -> Daemon {
    let resolver: CampaignResolver = {
        let (cfg, stores) = (cfg.clone(), Arc::clone(stores));
        Arc::new(move |spec: &str| {
            (spec == "sd:ad4").then(|| {
                let wf = scidock_workflow(&cfg);
                stores.lock().unwrap().push(Arc::downgrade(&wf.files));
                wf
            })
        })
    };
    Daemon::start(
        ServeConfig::new().with_workers(2).with_telemetry(tel.clone()),
        resolver,
        Arc::clone(prov),
    )
    .expect("daemon starts")
}

fn run_campaign(client: &mut ServeClient, tenant: &str) {
    let SubmitOutcome::Accepted { id } = client.submit(tenant, 0, "sd:ad4").expect("submit io")
    else {
        panic!("campaign of {tenant} must be admitted")
    };
    wait_finished(client, id);
}

/// Canonical PROV-N of every workflow in `prov`, in submission order.
fn exports(prov: &Arc<ProvenanceStore>) -> Vec<String> {
    let rows = prov.query_rows("SELECT wkfid FROM hworkflow", &[]).expect("wkf listing");
    let mut ids: Vec<i64> = rows.rows.iter().map(|r| r[0].as_f64().unwrap() as i64).collect();
    ids.sort_unstable();
    ids.into_iter().map(|id| export_provn_canonical_for(prov, provenance::WorkflowId(id))).collect()
}

/// What the first campaign on a tier pays once and no later one may pay
/// again.
const ONCE_PER_RECEPTOR: [&str; 6] = [
    "gridcache.persist.hit",
    "gridcache.persist.miss",
    "gridcache.bytes",
    "gridcache.maps.rendered",
    "receptor.prepared",
    "receptor.hg_screened",
];

#[test]
fn campaigns_share_one_receptor_tier_and_a_new_daemon_loads_from_disk() {
    let dir = std::env::temp_dir().join(format!("scidock-serve-gridcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tel = Telemetry::attached();
    let cfg = campaign_cfg(&tel, &dir);
    let prov = Arc::new(ProvenanceStore::new());
    let stores: Arc<Mutex<Vec<Weak<FileStore>>>> = Arc::default();
    let daemon = start_daemon(&cfg, &tel, &prov, &stores);
    let mut client = ServeClient::connect(daemon.addr()).expect("connect");
    let counters = |tel: &Telemetry| {
        let snap = tel.snapshot().expect("attached");
        ONCE_PER_RECEPTOR.map(|name| snap.counter(name).unwrap_or(0))
    };

    // campaign 1: cold — one receptor is screened, prepared, built,
    // persisted and rendered, each exactly once whichever worker got there
    run_campaign(&mut client, "alice");
    let cold = counters(&tel);
    let [persist_hit, persist_miss, built, rendered, prepared, screened] = cold;
    assert_eq!(persist_hit, 0, "nothing on disk yet");
    assert_eq!(persist_miss, 1, "cold campaign must miss the persistent tier");
    assert!(built > 0, "cold campaign built grids");
    assert_eq!((rendered, prepared, screened), (1, 1, 1));
    let snap = tel.snapshot().expect("attached");
    assert_eq!(snap.counter("gridcache.persist.write"), Some(1), "… and persist what it built");

    // campaigns 2 and 3: same receptor — served wholly from the daemon's
    // memory tier
    for tenant in ["bob", "carol"] {
        run_campaign(&mut client, tenant);
        assert_eq!(counters(&tel), cold, "{tenant}'s campaign must not load, build or prepare");
    }
    let snap = tel.snapshot().expect("attached");
    assert_eq!(snap.counter("receptor.prep.hit"), Some(5), "2 pairs x 3 campaigns, less the one");
    assert!(snap.gauge("gridcache.resident_bytes").is_some());
    // containment: everything a cached campaign emits is in the metric-name
    // registry
    assert_eq!(telemetry::registry::unregistered(&snap), Vec::<String>::new());

    // a finished campaign lets go of its file store (a worker may hold its
    // last activation's context a moment longer); the tier keeps one entry
    // per distinct receptor however many campaigns ran
    let deadline = Instant::now() + Duration::from_secs(30);
    assert_eq!(stores.lock().unwrap().len(), 3);
    while stores.lock().unwrap().iter().any(|s| s.upgrade().is_some()) {
        assert!(Instant::now() < deadline, "a finished campaign's FileStore is still alive");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!((cfg.receptors.receptors(), cfg.receptors.grid_sets()), (1, 1));
    daemon.shutdown();

    // a second daemon — new tier, same directory — is served from disk
    let tel2 = Telemetry::attached();
    let cfg2 = campaign_cfg(&tel2, &dir);
    let prov2 = Arc::new(ProvenanceStore::new());
    let daemon2 = start_daemon(&cfg2, &tel2, &prov2, &Arc::default());
    let mut client2 = ServeClient::connect(daemon2.addr()).expect("connect");
    run_campaign(&mut client2, "dave");
    daemon2.shutdown();
    let [persist_hit, persist_miss, built, ..] = counters(&tel2);
    assert_eq!((persist_hit, persist_miss), (1, 0), "the new daemon loads the persisted entry");
    assert_eq!(built, 0, "the new daemon must build ZERO new grid maps");

    // PROV-N parity: every campaign == a one-shot cold-cache local run with
    // telemetry off; neither the cache nor its metrics are visible to
    // provenance
    let solo_dir =
        std::env::temp_dir().join(format!("scidock-serve-gridcache-solo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&solo_dir);
    let solo_prov = Arc::new(ProvenanceStore::new());
    let solo_cfg = campaign_cfg(&Telemetry::disabled(), &solo_dir);
    LocalBackend::new(LocalConfig::new().with_threads(2))
        .run(&scidock_workflow(&solo_cfg), &solo_prov)
        .expect("one-shot run");
    let solo = exports(&solo_prov).pop().expect("one-shot workflow recorded");
    let served: Vec<String> = exports(&prov).into_iter().chain(exports(&prov2)).collect();
    assert_eq!(served.len(), 4, "four campaigns recorded");
    for (i, export) in served.iter().enumerate() {
        assert_eq!(export, &solo, "campaign {i}: daemon provenance must equal the one-shot run's");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
}

/// Once per receptor, by count, through the resolver `scidockd` ships:
/// campaigns of `scidock:ad4:2x3`, all outstanding at once, screen, prepare
/// and render each of the spec's two receptors once and look the on-disk
/// grid cache up once per grid set — whatever the campaign and worker
/// counts.
#[test]
fn shipped_resolver_pays_once_per_receptor_whatever_the_campaign_count() {
    for (campaigns, workers) in [(6usize, 1usize), (9, 4)] {
        let dir = std::env::temp_dir()
            .join(format!("scidock-serve-once-{}-{campaigns}x{workers}", std::process::id()));
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
            wait_finished(&mut client, id);
        }
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let snap = tel.snapshot().expect("attached");
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(count("campaign.finished"), campaigns as u64);
        let counts = [
            count("receptor.hg_screened"),
            count("receptor.prepared"),
            count("gridcache.maps.rendered"),
            count("gridcache.persist.hit") + count("gridcache.persist.miss"),
        ];
        assert_eq!(counts, [2; 4], "{campaigns} campaigns on {workers} worker(s)");
    }
}
