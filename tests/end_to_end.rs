//! Cross-crate integration: the full SciDock pipeline from synthetic
//! structures through docking to provenance analysis.

use std::sync::Arc;

use cloudsim::FailureModel;
use cumulus::workflow::FileStore;
use cumulus::{Backend, LocalBackend, RunConfig, Workflow};
use provenance::{ProvenanceStore, Value};
use scidock::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
use scidock::analysis::{results_from_provenance, results_from_relation};
use scidock::dataset::{Dataset, DatasetParams};

fn fast_cfg() -> SciDockConfig {
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
        ..Default::default()
    }
}

fn tiny_dataset(receptors: &[&str], ligands: &[&str]) -> Dataset {
    let mut p = DatasetParams::default();
    p.receptor.min_residues = 30;
    p.receptor.max_residues = 45;
    p.receptor.hg_fraction = 0.0;
    p.ligand.min_heavy = 8;
    p.ligand.max_heavy = 12;
    Dataset::subset(receptors, ligands, p)
}

#[test]
fn full_pipeline_produces_consistent_results_in_three_places() {
    // the same docking results must be visible in (1) the output relation,
    // (2) the provenance parameters, and (3) the .dlg files
    let ds = tiny_dataset(&["1HUC", "2HHN"], &["0D6"]);
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let cfg = fast_cfg();
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
    let backend = LocalBackend::new(RunConfig::new().with_workers(2));
    let report =
        backend.run(&Workflow::new(wf, input).with_files(Arc::clone(&files)), &prov).unwrap();

    let from_rel = results_from_relation(report.final_output());
    let from_prov = results_from_provenance(&prov);
    assert_eq!(from_rel.len(), 2);
    assert_eq!(from_prov.len(), 2);
    for r in &from_rel {
        let p = from_prov
            .iter()
            .find(|p| p.receptor == r.receptor && p.ligand == r.ligand)
            .expect("pair in provenance");
        assert_eq!(r.feb, p.feb, "relation and provenance agree on FEB");
        assert_eq!(r.rmsd, p.rmsd);
        // the .dlg file carries the same FEB
        let dlg_path = files
            .list(&cfg.expdir)
            .into_iter()
            .find(|f| f.ends_with(&format!("{}_{}.dlg", r.ligand, r.receptor)))
            .expect(".dlg produced");
        let dlg = files.read(&dlg_path).unwrap();
        let parsed = docking::dlg::parse_dlg_feb(&dlg).unwrap();
        assert!((parsed - r.feb).abs() < 0.01, "dlg FEB {parsed} vs {r:?}");
    }
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let ds = tiny_dataset(&["1S4V"], &["042"]);
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));
        let backend = LocalBackend::new(RunConfig::new().with_workers(2));
        let report = backend.run(&Workflow::new(wf, input).with_files(files), &prov).unwrap();
        results_from_relation(report.final_output())
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].feb, b[0].feb, "same seed, same FEB");
    assert_eq!(a[0].rmsd, b[0].rmsd);
}

#[test]
fn failure_injection_recovers_through_retries() {
    let ds = tiny_dataset(&["1HUC", "2ACT", "1AEC"], &["042"]);
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let cfg = fast_cfg();
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));
    let backend = LocalBackend::new(
        RunConfig::new()
            .with_workers(2)
            .with_failures(FailureModel {
                fail_rate: 0.25,
                hang_rate: 0.0,
                fail_at_fraction: 0.5,
                seed: 3,
            })
            .with_max_retries(8),
    );
    let report = backend.run(&Workflow::new(wf, input).with_files(files), &prov).unwrap();
    assert!(report.failed_attempts > 0, "25% fail rate must produce failures");
    assert_eq!(report.final_output().len(), 3, "all pairs recover via retries");
    // every failed attempt is visible in provenance
    let r =
        prov.query_rows("SELECT count(*) FROM hactivation WHERE status = 'FAILED'", &[]).unwrap();
    assert_eq!(r.cell(0, 0), &Value::Int(report.failed_attempts as i64));
}

#[test]
fn adaptive_split_and_both_engines_report() {
    let mut p = DatasetParams::default();
    p.receptor.hg_fraction = 0.0;
    p.ligand.min_heavy = 8;
    p.ligand.max_heavy = 10;
    // force one small, one large receptor
    let mut small_p = p.clone();
    small_p.receptor.min_residues = 25;
    small_p.receptor.max_residues = 30;
    let mut large_p = p;
    large_p.receptor.min_residues = 140;
    large_p.receptor.max_residues = 150;
    let ds = Dataset {
        receptors: vec![
            scidock::dataset::make_receptor("1AEC", &small_p),
            scidock::dataset::make_receptor("2ACT", &large_p),
        ],
        ligands: vec![scidock::dataset::make_ligand("042", &small_p)],
        params: small_p,
    };
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let mut cfg = fast_cfg();
    cfg.size_threshold_atoms = 400;
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let wf = build_scidock(EngineMode::Adaptive, &cfg, Arc::clone(&files));
    let _ = LocalBackend::new(RunConfig::new().with_workers(4))
        .run(&Workflow::new(wf, input).with_files(files), &prov)
        .unwrap();
    let results = results_from_provenance(&prov);
    assert_eq!(results.len(), 2);
    let engines: std::collections::BTreeSet<&str> =
        results.iter().map(|r| r.engine.as_str()).collect();
    assert!(engines.contains("autodock4"), "small receptor docked with AD4: {engines:?}");
    assert!(engines.contains("vina"), "large receptor docked with Vina: {engines:?}");
}

#[test]
fn xml_spec_describes_the_built_workflow() {
    // the XML dialect and the executable builder agree on the structure
    use cumulus::xmlspec::{ActivityXml, DatabaseSpec, RelType, RelationSpec, SciCumulusSpec};
    let cfg = fast_cfg();
    let files = Arc::new(FileStore::new());
    let wf = build_scidock(EngineMode::Ad4Only, &cfg, files);
    let spec = SciCumulusSpec {
        database: DatabaseSpec {
            name: "scicumulus".into(),
            server: "localhost".into(),
            port: 5432,
        },
        tag: wf.tag.clone(),
        description: wf.description.clone(),
        exectag: "scidock".into(),
        expdir: wf.expdir.clone(),
        activities: wf
            .activities
            .iter()
            .map(|a| ActivityXml {
                tag: a.tag.clone(),
                templatedir: format!("{}/template_{}/", wf.expdir, a.tag),
                activation: "./experiment.cmd".into(),
                operator: a.operator.name().to_uppercase(),
                relations: vec![
                    RelationSpec {
                        reltype: RelType::Input,
                        name: format!("rel_in_{}", a.tag),
                        filename: "input.txt".into(),
                    },
                    RelationSpec {
                        reltype: RelType::Output,
                        name: format!("rel_out_{}", a.tag),
                        filename: "output.txt".into(),
                    },
                ],
                files: vec![],
            })
            .collect(),
    };
    let xml = spec.to_xml();
    // one <SciCumulusActivity> per built activity, in order, with its operator
    let rendered: Vec<&str> =
        xml.lines().filter(|l| l.trim_start().starts_with("<SciCumulusActivity ")).collect();
    assert_eq!(rendered.len(), wf.activities.len());
    for (line, a) in rendered.iter().zip(&wf.activities) {
        assert!(line.contains(&format!("tag=\"{}\"", a.tag)), "{line}");
        let operator = format!("operator=\"{}\"", a.operator.name().to_uppercase());
        assert!(line.contains(&operator), "{line}");
    }
}

#[test]
fn six_hundred_gb_scale_bookkeeping() {
    // the file store tracks the artifact volume the paper reports (600 GB
    // per full execution); at our test scale just verify the accounting
    let ds = tiny_dataset(&["1HUC"], &["042", "074"]);
    let files = Arc::new(FileStore::new());
    let prov = Arc::new(ProvenanceStore::new());
    let cfg = fast_cfg();
    let input = stage_inputs(&ds, &files, &cfg.expdir);
    let staged = files.total_bytes();
    assert!(staged > 0);
    let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
    let _ = LocalBackend::new(RunConfig::new().with_workers(4))
        .run(&Workflow::new(wf, input).with_files(Arc::clone(&files)), &prov)
        .unwrap();
    assert!(files.total_bytes() > staged, "activities must add artifacts");
    // hfile's sizes agree with the store
    let q = prov.query_rows("SELECT fname, fsize, fdir FROM hfile ORDER BY fileid", &[]).unwrap();
    for row in &q.rows {
        let path = format!("{}{}", row[2].as_str().unwrap(), row[0].as_str().unwrap());
        let size = files.size(&path).expect("recorded file exists in the store");
        assert_eq!(size as i64, row[1].as_f64().unwrap() as i64);
    }
}
