//! Workflow spec registry for distributed runs.
//!
//! Activity functions are closures and cannot cross a process boundary, so
//! the distributed backend's master and the `scidock-worker` processes both
//! rebuild the workflow from a spec string. This module is that shared
//! vocabulary:
//!
//! * `scidock:<mode>:<NR>x<NL>` — the real SciDock pipeline over the first
//!   `NR` receptors × `NL` ligands of the Table 2 dataset, with the fast
//!   search budget the integration tests use (`mode` is `ad4`, `vina`, or
//!   `adaptive`).
//! * `unit:spin:<N>:<MS>` — one Map activity over `N` tuples, each
//!   busy-spinning for `MS` milliseconds (CPU-bound; what the benchmark's
//!   layer suite submits to time the daemon's round trip).
//! * `unit:sleep:<N>:<MS>` — same shape but sleeping instead of spinning
//!   (timing-controlled; what the fault drills use).
//!
//! The master resolves a spec with [`resolve_with`] (binding the shared
//! [`FileStore`] so provenance-derived rules like the Hg blacklist see the
//! staged inputs) and stages inputs with [`prepare`]; workers resolve the
//! same spec through [`resolver`] with a store that starts empty and warms
//! lazily through the master fetch protocol; `scidockd` resolves each
//! submitted campaign through [`campaign_resolver`].
//!
//! Who owns the receptor tier ([`ReceptorCache`], with the grid directory
//! inside it): the daemon creates **one** and hands it to
//! [`campaign_resolver`], and [`resolver`] creates one for the worker
//! process it serves; each puts its tier in every workflow it resolves, so
//! a receptor is screened, prepared, loaded and rendered once however many
//! campaigns use it. A bare [`resolve_with`] (a one-shot dist master) gets
//! a private one. Beside the tier, [`campaign_resolver`] owns the daemon's
//! one [`InputCatalog`], so every campaign stages each receptor PDB and
//! ligand SDF by reference to the one rendering; a bare [`prepare`] stages
//! through a fresh catalog.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cumulus::distbackend::worker::WorkflowResolver;
use cumulus::serve::CampaignResolver;
use cumulus::workflow::{Activity, FileStore, WorkflowDef};
use cumulus::{Relation, Workflow};
use provenance::Value;
use scidock::{
    build_scidock, EngineMode, InputCatalog, ReceptorCache, SciDockConfig, LIGAND_CODES,
    RECEPTOR_IDS,
};
use telemetry::Telemetry;

/// The fast search budget shared by every `scidock:` spec (mirrors the
/// integration tests: small LGA/MC budgets, coarse grid), with the receptor
/// tier of whoever resolves the spec.
fn fast_cfg(receptors: ReceptorCache) -> SciDockConfig {
    SciDockConfig {
        dock: docking::engine::DockConfig {
            ad4_runs: 1,
            lga: docking::search::LgaConfig { population: 6, generations: 4, ..Default::default() },
            mc: docking::search::McConfig { restarts: 2, steps: 3, ..Default::default() },
            grid_spacing: 1.5,
            box_edge: 14.0,
            ..Default::default()
        },
        hg_rule: true,
        receptors,
        ..Default::default()
    }
}

/// A fresh receptor tier on `SCIDOCK_GRID_CACHE_DIR`, or with no directory
/// when it is unset: how a dist master and the `scidock-worker` processes
/// it spawns (which inherit the environment) agree on one persistent grid
/// directory, so repeated runs build each receptor's maps once.
fn env_receptor_cache() -> ReceptorCache {
    std::env::var_os("SCIDOCK_GRID_CACHE_DIR")
        .map_or_else(ReceptorCache::default, ReceptorCache::on_disk)
}

fn scidock_parts(spec: &str) -> Option<(EngineMode, usize, usize)> {
    let rest = spec.strip_prefix("scidock:")?;
    let (mode, size) = rest.split_once(':')?;
    let mode = match mode {
        "ad4" => EngineMode::Ad4Only,
        "vina" => EngineMode::VinaOnly,
        "adaptive" => EngineMode::Adaptive,
        _ => return None,
    };
    let (nr, nl) = size.split_once('x')?;
    let (nr, nl) = (nr.parse().ok()?, nl.parse().ok()?);
    if nr == 0 || nl == 0 || nr > RECEPTOR_IDS.len() || nl > LIGAND_CODES.len() {
        return None;
    }
    Some((mode, nr, nl))
}

fn unit_parts(spec: &str) -> Option<(&'static str, usize, u64)> {
    let rest = spec.strip_prefix("unit:")?;
    let (kind, size) = rest.split_once(':')?;
    let kind = match kind {
        "spin" => "spin",
        "sleep" => "sleep",
        _ => return None,
    };
    let (n, ms) = size.split_once(':')?;
    Some((kind, n.parse().ok()?, ms.parse().ok()?))
}

fn unit_def(kind: &'static str, ms: u64) -> WorkflowDef {
    WorkflowDef {
        tag: format!("unit-{kind}"),
        description: format!("synthetic {kind} workload, {ms}ms per activation"),
        expdir: "/exp/unit".into(),
        activities: vec![Activity::map(
            kind,
            &["x"],
            Arc::new(move |t, _| {
                match kind {
                    "sleep" => std::thread::sleep(Duration::from_millis(ms)),
                    _ => {
                        let until = Instant::now() + Duration::from_millis(ms);
                        let mut x = 0u64;
                        while Instant::now() < until {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(x);
                    }
                }
                Ok(t.to_vec())
            }),
        )],
        deps: vec![vec![]],
    }
}

fn resolve_in(spec: &str, files: &Arc<FileStore>, cfg: &SciDockConfig) -> Option<WorkflowDef> {
    if let Some((mode, _, _)) = scidock_parts(spec) {
        return Some(build_scidock(mode, cfg, Arc::clone(files)));
    }
    let (kind, _, ms) = unit_parts(spec)?;
    Some(unit_def(kind, ms))
}

/// Resolve a spec with an explicit shared file store (master side: the
/// SciDock Hg blacklist rule reads staged receptors from it). The receptor
/// tier is private to the returned workflow, on `SCIDOCK_GRID_CACHE_DIR` as
/// set at the call.
pub fn resolve_with(spec: &str, files: &Arc<FileStore>) -> Option<WorkflowDef> {
    resolve_in(spec, files, &fast_cfg(env_receptor_cache()))
}

/// The resolver the `scidock-worker` binary hands to
/// [`cumulus::distbackend::worker::serve`]: each spec is resolved against a
/// fresh, empty file store and this process's one receptor tier, whose
/// metrics (`gridcache.*`, `receptor.*`, `files.*`, `dock.evaluations`) go
/// to `telemetry` — the worker's collector, which ships them to the master.
pub fn resolver(telemetry: Telemetry) -> WorkflowResolver {
    let mut cfg = fast_cfg(env_receptor_cache());
    cfg.dock.telemetry = telemetry;
    Arc::new(move |spec| resolve_in(spec, &Arc::new(FileStore::new()), &cfg))
}

/// The resolver `scidockd` serves campaigns with: each campaign gets its own
/// file store with its inputs staged, and all of them share `receptors`,
/// the daemon's one tier, and the resolver's one input catalog.
/// `telemetry` receives the docking-side metrics (`gridcache.*`,
/// `receptor.*`, `dock.evaluations`).
pub fn campaign_resolver(receptors: ReceptorCache, telemetry: Telemetry) -> CampaignResolver {
    let mut cfg = fast_cfg(receptors);
    cfg.dock.telemetry = telemetry;
    let catalog = InputCatalog::default();
    Arc::new(move |spec| {
        let files = Arc::new(FileStore::new());
        let def = resolve_in(spec, &files, &cfg)?;
        let input = prepare_from(spec, &files, &catalog)?;
        Some(Workflow::new(def, input).with_files(files))
    })
}

/// Master-side preparation: stage any input files the spec needs into the
/// shared store and return the workflow's input relation.
pub fn prepare(spec: &str, files: &FileStore) -> Option<Relation> {
    prepare_from(spec, files, &InputCatalog::default())
}

/// [`prepare`], staging a `scidock:` spec's inputs through `catalog`.
fn prepare_from(spec: &str, files: &FileStore, catalog: &InputCatalog) -> Option<Relation> {
    if let Some((_, nr, nl)) = scidock_parts(spec) {
        // `fast_cfg` keeps the default experiment directory
        let expdir = SciDockConfig::default().expdir;
        return catalog.stage(&RECEPTOR_IDS[..nr], &LIGAND_CODES[..nl], files, &expdir);
    }
    let (_, n, _) = unit_parts(spec)?;
    let mut r = Relation::new(&["x"]);
    for i in 0..n {
        r.push(vec![Value::Int(i as i64)]);
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(spec: &str) -> Option<WorkflowDef> {
        resolver(Telemetry::disabled())(spec)
    }

    #[test]
    fn specs_resolve_and_prepare() {
        let files = FileStore::new();
        assert_eq!(prepare("unit:spin:8:5", &files).unwrap().len(), 8);
        assert_eq!(resolve("unit:sleep:3:1").unwrap().activities.len(), 1);
        assert!(resolve("scidock:adaptive:2x2").is_some());
        assert!(prepare("scidock:ad4:1x2", &files).is_some());
        assert!(!files.is_empty(), "scidock prepare stages structure files");
        for bad in ["", "unit:", "unit:spin:x:5", "scidock:warp:1x1", "scidock:ad4:0x4", "nope:1"] {
            assert!(resolve(bad).is_none(), "{bad:?} must not resolve");
        }
    }

    #[test]
    fn unit_specs_echo_their_input() {
        let def = resolve("unit:spin:4:0").unwrap();
        def.validate().unwrap();
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(provenance::ProvenanceStore::new());
        let input = prepare("unit:spin:4:0", &files).unwrap();
        let backend = cumulus::LocalBackend::new(cumulus::RunConfig::new().with_workers(2));
        let wf = cumulus::Workflow::new(def, input).with_files(files);
        let report = cumulus::Backend::run(&backend, &wf, &prov).unwrap();
        assert_eq!(report.finished, 4);
        let mut got: Vec<i64> = report
            .outputs
            .last()
            .unwrap()
            .tuples
            .iter()
            .map(|t| match t[0] {
                Value::Int(i) => i,
                _ => -1,
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
