//! The eight SciDock activities (paper Fig. 1) as executable workflow
//! activities, and the workflow builder that assembles them.
//!
//! | # | tag | macro-activity | what it does |
//! |---|-----|----------------|--------------|
//! | 1 | `babel` | A: input preparation | SDF → MOL2 conversion |
//! | 2 | `prepligand` | A | MOL2 → ligand PDBQT (charges, polar-H merge, torsion tree) |
//! | 3 | `prepreceptor` | A | PDB → receptor PDBQT (Hg blacklist rule lives here) |
//! | 4 | `autogpf4` | B: coordinates generation | grid parameter file (GPF) |
//! | 5 | `autogrid4` | B | AutoGrid affinity maps |
//! | 6 | `dockfilter` | C: docking preparation | size split: small→AD4, large→Vina |
//! | 7 | `autodpf4` / `vinaconfig` | C | DPF / Vina config generation |
//! | 8 | `autodock4` / `vina` | D: molecular docking | the docking run, `.dlg`/log output |
//!
//! Every receptor-side step (the Hg rule, activity 3, the pocket, grids and
//! map files of activities 5 and 8) is a pure function of the receptor's
//! bytes, and every ligand-side step (activities 1 and 2, the ligand parse
//! of activities 4, 5 and 8) of the ligand's: [`crate::receptors`] computes
//! each once per process. The activities still run once per pair and record
//! the same files, parameters and tuples.

use std::collections::BTreeMap;
use std::sync::Arc;

use cumulus::workflow::{Activity, ActivityError, ActivityFn, FileStore, WorkflowDef};
use cumulus::{Operator, Template};
use docking::dlg::{parse_dlg_feb, parse_dlg_rmsd, parse_vina_modes, write_dlg, write_vina_log};
use docking::engine::{dock_with_grids, DockConfig, EngineKind};
use molkit::formats::pdbqt;
use molkit::synth::name_seed;
use provenance::Value;

// Also at `scidock::activities`, beside `build_scidock`, where the examples
// and integration tests import it.
pub use crate::inputs::stage_inputs;
pub use crate::receptors::{GridCache, ReceptorCache};

/// Which docking program(s) the workflow uses (paper Fig. 4 scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Scenario I: the whole set with AutoDock 4.
    Ad4Only,
    /// Scenario II: the whole set with Vina.
    VinaOnly,
    /// SciDock's adaptive mode: small receptors → AD4, large → Vina.
    Adaptive,
}

/// SciDock configuration.
#[derive(Debug, Clone)]
pub struct SciDockConfig {
    /// Docking search parameters.
    pub dock: DockConfig,
    /// Heavy-atom threshold of the activity-6 size filter.
    pub size_threshold_atoms: usize,
    /// Experiment directory in the shared file store.
    pub expdir: String,
    /// Enable the provenance-derived Hg blacklist rule on activity 3.
    pub hg_rule: bool,
    /// Append the SRQuery ranking activity: one activation that consumes
    /// every docked tuple, ranks by FEB, and writes `ranking.txt` (the
    /// §V.D "top interactions" analysis as a workflow step).
    pub with_ranking: bool,
    /// The receptor tier every workflow built from this config shares, with
    /// its grid directory if it has one: `Default` is a fresh private tier
    /// with none, `Clone` shares it. Not a knob — a process that outlives
    /// campaigns creates one and hands it to each.
    pub receptors: ReceptorCache,
}

impl Default for SciDockConfig {
    fn default() -> Self {
        SciDockConfig {
            dock: DockConfig {
                ad4_runs: 3,
                lga: docking::search::LgaConfig {
                    population: 20,
                    generations: 18,
                    ..Default::default()
                },
                mc: docking::search::McConfig { restarts: 5, steps: 10, ..Default::default() },
                grid_spacing: 1.0,
                box_edge: 20.0,
                ..Default::default()
            },
            size_threshold_atoms: 650,
            expdir: "/root/exp_SciDock".to_string(),
            hg_rule: true,
            with_ranking: false,
            receptors: ReceptorCache::default(),
        }
    }
}

fn text(t: &[Value], i: usize) -> Result<String, ActivityError> {
    t.get(i)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| ActivityError(format!("tuple column {i} is not text")))
}

fn int(t: &[Value], i: usize) -> Result<i64, ActivityError> {
    match t.get(i) {
        Some(Value::Int(n)) => Ok(*n),
        // tuples resumed from provenance store numerics as Float
        Some(Value::Float(f)) if f.fract() == 0.0 => Ok(*f as i64),
        other => Err(ActivityError(format!("tuple column {i} is not int: {other:?}"))),
    }
}

/// Build the SciDock workflow.
///
/// The returned definition has 8 activities for `Ad4Only`/`VinaOnly` and 10
/// for `Adaptive` (7a/7b and 8a/8b both present, routed by the activity-6
/// engine column). `files` is the shared store the workflow will run
/// against; the Hg blacklist rule inspects staged receptor files through it.
pub fn build_scidock(mode: EngineMode, cfg: &SciDockConfig, files: Arc<FileStore>) -> WorkflowDef {
    let cfga = Arc::new(cfg.clone());

    // -- activity 1: babel (SDF -> MOL2) ------------------------------------
    // Activities 1 and 2 depend on the ligand alone, so the tier computes
    // each once per content and every pair stages that text by reference.
    let cfg1 = Arc::clone(&cfga);
    let a1: ActivityFn = Arc::new(move |tuples, ctx| {
        let t = &tuples[0];
        let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
        let sdf_text = ctx.read_file(&text(t, 3)?)?;
        let mol2 = cfg1.receptors.mol2(&sdf_text, &cfg1.dock.telemetry)?;
        let out = ctx.write_file(&format!("{ligand}.mol2"), mol2);
        Ok(vec![vec![
            receptor.as_str().into(),
            ligand.as_str().into(),
            text(t, 2)?.into(),
            out.into(),
        ]])
    });

    // -- activity 2: prepare_ligand4 (MOL2 -> ligand PDBQT) -----------------
    let cfg2 = Arc::clone(&cfga);
    let a2: ActivityFn = Arc::new(move |tuples, ctx| {
        let t = &tuples[0];
        let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
        let mol2_text = ctx.read_file(&text(t, 3)?)?;
        let prepared = cfg2.receptors.prepared_ligand(&mol2_text, &cfg2.dock.telemetry)?;
        let out = ctx.write_file(&format!("{ligand}.pdbqt"), prepared.pdbqt.clone());
        ctx.record_param("torsdof", Some(prepared.torsdof as f64), None);
        Ok(vec![vec![
            receptor.as_str().into(),
            ligand.as_str().into(),
            text(t, 2)?.into(),
            out.into(),
        ]])
    });

    // -- activity 3: prepare_receptor4 (PDB -> receptor PDBQT) --------------
    // The PDBQT depends on the receptor alone, so the tier prepares it once
    // per (content, name) and every pair stages that text by reference.
    let cfg3 = Arc::clone(&cfga);
    let a3: ActivityFn = Arc::new(move |tuples, ctx| {
        let t = &tuples[0];
        let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
        let pdb_text = ctx.read_file(&text(t, 2)?)?;
        let prepared = cfg3.receptors.prepared(&pdb_text, &receptor, &cfg3.dock.telemetry)?;
        let out = ctx.write_file(&format!("{receptor}.pdbqt"), prepared.pdbqt.clone());
        ctx.record_param("receptor_atoms", Some(prepared.heavy_atoms as f64), None);
        Ok(vec![vec![
            receptor.as_str().into(),
            ligand.as_str().into(),
            text(t, 3)?.into(),
            out.into(),
            Value::Int(prepared.heavy_atoms as i64),
        ]])
    });

    // -- activity 4: GPF preparation ----------------------------------------
    let cfg4 = Arc::clone(&cfga);
    let a4: ActivityFn = Arc::new(move |tuples, ctx| {
        let t = &tuples[0];
        let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
        let lig_text = ctx.read_file(&text(t, 2)?)?;
        let lig = cfg4.receptors.ligand(&lig_text, &cfg4.dock.telemetry)?;
        let types: Vec<String> = lig.mol.ad_types().iter().map(|t| t.label().to_string()).collect();
        let npts = (cfg4.dock.box_edge / cfg4.dock.grid_spacing).ceil() as usize + 1;
        let mut gpf = String::new();
        gpf.push_str(&format!("npts {npts} {npts} {npts}\n"));
        gpf.push_str(&format!("spacing {}\n", cfg4.dock.grid_spacing));
        gpf.push_str(&format!("ligand_types {}\n", types.join(" ")));
        gpf.push_str(&format!("receptor {receptor}.pdbqt\n"));
        gpf.push_str("gridcenter auto\n");
        let out = ctx.write_file(&format!("{ligand}_{receptor}.gpf"), gpf);
        Ok(vec![vec![
            receptor.as_str().into(),
            ligand.as_str().into(),
            text(t, 2)?.into(),
            text(t, 3)?.into(),
            Value::Int(int(t, 4)?),
            out.into(),
        ]])
    });

    // -- activity 5: AutoGrid map generation ---------------------------------
    let cfg5 = Arc::clone(&cfga);
    let a5: ActivityFn = Arc::new(move |tuples, ctx| {
        let t = &tuples[0];
        let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
        let lig_text = ctx.read_file(&text(t, 2)?)?;
        // parsed for validation; grids are ligand-independent
        cfg5.receptors.ligand(&lig_text, &cfg5.dock.telemetry)?;
        let rec_path = text(t, 3)?;
        let rec_text = ctx.read_file(&rec_path)?;
        let maps =
            cfg5.receptors.get_or_render(&receptor, &rec_text, EngineKind::Ad4, &cfg5.dock)?;
        // AutoGrid's outputs: one .map file per type + e/d maps, in the real
        // AutoGrid format. Maps are per-receptor and byte-identical for every
        // ligand (the header names the receptor's .gpf, not the pair's), so
        // the cache renders them once and every activation stages the shared
        // set by reference — the same `Arc<str>` under the same 14 paths,
        // idempotently — and records it. Skipping files another activation
        // already staged would make the recorded producer a scheduling
        // artifact, and provenance must not depend on activation order.
        let map_dir = format!("{}/maps", cfg5.expdir.trim_end_matches('/'));
        for (name, text) in maps.iter() {
            ctx.write_file_at(&format!("{map_dir}/{name}"), text.clone());
        }
        // the grid map field file (.fld) indexes the maps, one per activation
        let fld: String =
            maps.iter().map(|(name, _)| format!("variable file={map_dir}/{name}\n")).collect();
        ctx.write_file(&format!("{receptor}.maps.fld"), fld);
        ctx.record_param("grid_maps", Some(maps.len() as f64), None);
        Ok(vec![vec![
            receptor.as_str().into(),
            ligand.as_str().into(),
            text(t, 2)?.into(),
            rec_path.into(),
            Value::Int(int(t, 4)?),
        ]])
    });

    // -- activity 6: docking filter (size split) -----------------------------
    let threshold = cfg.size_threshold_atoms as i64;
    let mode6 = mode;
    let a6: ActivityFn = Arc::new(move |tuples, _ctx| {
        let t = &tuples[0];
        let atoms = int(t, 4)?;
        let engine = match mode6 {
            EngineMode::Ad4Only => "AD4",
            EngineMode::VinaOnly => "VINA",
            EngineMode::Adaptive => {
                if atoms <= threshold {
                    "AD4"
                } else {
                    "VINA"
                }
            }
        };
        Ok(vec![vec![
            t[0].clone(),
            t[1].clone(),
            t[2].clone(),
            t[3].clone(),
            Value::Int(atoms),
            engine.into(),
        ]])
    });

    // -- activity 7a: DPF preparation (AD4) ----------------------------------
    // SciCumulus-style instrumentation (paper Fig. 3): a %TAG% template is
    // rendered per activation and every substituted value is recorded as a
    // provenance parameter
    let dpf_template = Arc::new(
        Template::parse(
            "autodock_parameter_version 4.2\nmove %LIGAND%.pdbqt\nabout auto\n\
             ga_pop_size %GA_POP%\nga_num_generations %GA_GEN%\nga_run %GA_RUN%\nanalysis\n",
        )
        .expect("static template parses"),
    );
    let cfg7a = Arc::clone(&cfga);
    let a7a: ActivityFn = {
        let dpf_template = Arc::clone(&dpf_template);
        Arc::new(move |tuples, ctx| {
            let t = &tuples[0];
            let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
            let mut vals = BTreeMap::new();
            vals.insert("LIGAND".to_string(), ligand.clone());
            vals.insert("GA_POP".to_string(), cfg7a.dock.lga.population.to_string());
            vals.insert("GA_GEN".to_string(), cfg7a.dock.lga.generations.to_string());
            vals.insert("GA_RUN".to_string(), cfg7a.dock.ad4_runs.to_string());
            let (dpf, used) = dpf_template
                .render_instrumented(&vals)
                .map_err(|e| ActivityError(format!("template: {e}")))?;
            for (tag, value) in used {
                ctx.record_param(&format!("tpl_{tag}"), None, Some(&value));
            }
            let out = ctx.write_file(&format!("{ligand}_{receptor}.dpf"), dpf);
            Ok(vec![vec![
                t[0].clone(),
                t[1].clone(),
                t[2].clone(),
                t[3].clone(),
                t[5].clone(),
                out.into(),
            ]])
        })
    };

    // -- activity 7b: Vina config preparation --------------------------------
    let conf_template = Arc::new(
        Template::parse(
            "receptor = %RECEPTOR%.pdbqt\nligand = %LIGAND%.pdbqt\n\
             center = auto\nsize = auto\nexhaustiveness = %EXH%\n",
        )
        .expect("static template parses"),
    );
    let cfg7b = Arc::clone(&cfga);
    let a7b: ActivityFn = {
        let conf_template = Arc::clone(&conf_template);
        Arc::new(move |tuples, ctx| {
            let t = &tuples[0];
            let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
            let mut vals = BTreeMap::new();
            vals.insert("RECEPTOR".to_string(), receptor.clone());
            vals.insert("LIGAND".to_string(), ligand.clone());
            vals.insert("EXH".to_string(), cfg7b.dock.mc.restarts.to_string());
            let (conf, used) = conf_template
                .render_instrumented(&vals)
                .map_err(|e| ActivityError(format!("template: {e}")))?;
            for (tag, value) in used {
                ctx.record_param(&format!("tpl_{tag}"), None, Some(&value));
            }
            let out = ctx.write_file(&format!("{ligand}_{receptor}.conf"), conf);
            Ok(vec![vec![
                t[0].clone(),
                t[1].clone(),
                t[2].clone(),
                t[3].clone(),
                t[5].clone(),
                out.into(),
            ]])
        })
    };

    // -- activity 8: docking execution ---------------------------------------
    let dock_fn = |engine: EngineKind, cfg: Arc<SciDockConfig>| -> ActivityFn {
        Arc::new(move |tuples, ctx| {
            let t = &tuples[0];
            let (receptor, ligand) = (text(t, 0)?, text(t, 1)?);
            let lig_text = ctx.read_file(&text(t, 2)?)?;
            let lig = cfg.receptors.ligand(&lig_text, &cfg.dock.telemetry)?;
            let rec_text = ctx.read_file(&text(t, 3)?)?;
            let grids = cfg.receptors.grids(&rec_text, engine, &cfg.dock)?;
            let mut dock_cfg = cfg.dock.clone();
            dock_cfg.seed = name_seed(&format!("{receptor}:{ligand}:{}", engine.program_name()));
            let result = dock_with_grids(&grids, &receptor, &lig, engine, &dock_cfg)
                .map_err(|e| ActivityError(format!("dock: {e}")))?;
            // write the program's log file, then extract values back out of
            // it — the SciCumulus extractor-component pattern
            let (log_name, log_text) = match engine {
                EngineKind::Ad4 => (format!("{ligand}_{receptor}.dlg"), write_dlg(&result)),
                EngineKind::Vina => (format!("{ligand}_{receptor}.log"), write_vina_log(&result)),
            };
            let log_path = ctx.write_file(&log_name, log_text);
            let log_body = ctx.read_file(&log_path)?;
            let (feb, rmsd) = match engine {
                EngineKind::Ad4 => (
                    parse_dlg_feb(&log_body)
                        .ok_or_else(|| ActivityError("no FEB in dlg".into()))?,
                    parse_dlg_rmsd(&log_body)
                        .ok_or_else(|| ActivityError("no RMSD in dlg".into()))?,
                ),
                EngineKind::Vina => {
                    let modes = parse_vina_modes(&log_body);
                    let best = modes
                        .first()
                        .ok_or_else(|| ActivityError("no modes in vina log".into()))?;
                    // Vina's reported "dist from best mode" averages over modes
                    let avg_rmsd = modes.iter().map(|(_, r)| *r).sum::<f64>() / modes.len() as f64;
                    (best.0, avg_rmsd)
                }
            };
            if engine == EngineKind::Vina {
                // Vina also writes the docked ligand PDBQT
                let mut posed = pdbqt::PdbqtLigand::clone(&lig);
                posed.mol.set_positions(&result.best_coords);
                ctx.write_file(
                    &format!("{ligand}_{receptor}_out.pdbqt"),
                    pdbqt::write_ligand_pdbqt(&posed),
                );
            }
            ctx.record_param("feb", Some(feb), None);
            ctx.record_param("rmsd", Some(rmsd), None);
            ctx.record_param("pair", None, Some(&format!("{receptor}-{ligand}")));
            ctx.record_param("engine", None, Some(engine.program_name()));
            Ok(vec![vec![
                receptor.as_str().into(),
                ligand.as_str().into(),
                engine.program_name().into(),
                Value::Float(feb),
                Value::Float(rmsd),
                log_path.into(),
            ]])
        })
    };

    let hg_blacklist: Option<cumulus::workflow::BlacklistFn> = if cfg.hg_rule {
        // the rule the paper added after provenance analysis: receptors whose
        // PDB file contains mercury never reach the docking programs
        let bl_files = Arc::clone(&files);
        let bl_cfg = Arc::clone(&cfga);
        // The rule runs on the engine's own thread (`scidockd`, `run_dist`)
        // once per pair: the staged PDB's digest finds its entry in the
        // tier, so a receptor is parsed once and looked up per ligand
        Some(Arc::new(move |t: &cumulus::Tuple| {
            // activity 3's input tuple carries the staged PDB path in col 2
            let Some(pdb) = t.get(2).and_then(|v| v.as_str()).and_then(|p| bl_files.read(p)) else {
                return false;
            };
            bl_cfg.receptors.has_hg(&pdb, &bl_cfg.dock.telemetry)
        }))
    } else {
        None
    };

    let prep_cols = ["receptor", "ligand", "lig_pdbqt", "rec_pdbqt", "rec_atoms"];
    let filt_cols = ["receptor", "ligand", "lig_pdbqt", "rec_pdbqt", "rec_atoms", "engine"];
    let parm_cols = ["receptor", "ligand", "lig_pdbqt", "rec_pdbqt", "engine", "param_file"];
    let dock_cols = ["receptor", "ligand", "engine", "feb", "rmsd", "log_file"];

    let mut activities = vec![
        Activity::map("babel", &["receptor", "ligand", "pdb_file", "mol2_file"], a1),
        Activity::map("prepligand", &["receptor", "ligand", "pdb_file", "lig_pdbqt"], a2),
        {
            let mut a = Activity::map("prepreceptor", &prep_cols, a3).with_affinity("receptor");
            a.blacklist = hg_blacklist;
            a
        },
        Activity::map(
            "autogpf4",
            &["receptor", "ligand", "lig_pdbqt", "rec_pdbqt", "rec_atoms", "gpf_file"],
            a4,
        ),
        Activity::map("autogrid4", &prep_cols, a5).with_affinity("receptor"),
        Activity::map("dockfilter", &filt_cols, a6).with_operator(Operator::Filter),
    ];
    let mut deps: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1], vec![2], vec![3], vec![4]];

    match mode {
        EngineMode::Ad4Only => {
            activities.push(
                Activity::map("autodpf4", &parm_cols, a7a).with_route("engine", "AD4".into()),
            );
            deps.push(vec![5]);
            activities.push(
                Activity::map("autodock4", &dock_cols, dock_fn(EngineKind::Ad4, Arc::clone(&cfga)))
                    .with_affinity("receptor"),
            );
            deps.push(vec![6]);
        }
        EngineMode::VinaOnly => {
            activities.push(
                Activity::map("vinaconfig", &parm_cols, a7b).with_route("engine", "VINA".into()),
            );
            deps.push(vec![5]);
            activities.push(
                Activity::map("vina", &dock_cols, dock_fn(EngineKind::Vina, Arc::clone(&cfga)))
                    .with_affinity("receptor"),
            );
            deps.push(vec![6]);
        }
        EngineMode::Adaptive => {
            activities.push(
                Activity::map("autodpf4", &parm_cols, a7a).with_route("engine", "AD4".into()),
            );
            deps.push(vec![5]);
            activities.push(
                Activity::map("vinaconfig", &parm_cols, a7b).with_route("engine", "VINA".into()),
            );
            deps.push(vec![5]);
            activities.push(
                Activity::map("autodock4", &dock_cols, dock_fn(EngineKind::Ad4, Arc::clone(&cfga)))
                    .with_affinity("receptor"),
            );
            deps.push(vec![6]);
            activities.push(
                Activity::map("vina", &dock_cols, dock_fn(EngineKind::Vina, Arc::clone(&cfga)))
                    .with_affinity("receptor"),
            );
            deps.push(vec![7]);
        }
    }

    if cfg.with_ranking {
        // SRQuery: a single activation over the whole docking relation,
        // ranking pairs by FEB (most negative first)
        let rank_fn: ActivityFn = Arc::new(move |tuples, ctx| {
            let mut rows: Vec<&cumulus::Tuple> = tuples.iter().collect();
            rows.sort_by(|a, b| {
                let fa = a[3].as_f64().unwrap_or(f64::INFINITY);
                let fb = b[3].as_f64().unwrap_or(f64::INFINITY);
                fa.total_cmp(&fb)
            });
            let mut report = String::from("rank receptor ligand engine feb rmsd\n");
            for (k, t) in rows.iter().enumerate() {
                report.push_str(&format!(
                    "{} {} {} {} {:.2} {:.2}\n",
                    k + 1,
                    t[0].as_str().unwrap_or("?"),
                    t[1].as_str().unwrap_or("?"),
                    t[2].as_str().unwrap_or("?"),
                    t[3].as_f64().unwrap_or(0.0),
                    t[4].as_f64().unwrap_or(0.0),
                ));
            }
            ctx.write_file("ranking.txt", report);
            if let Some(best) = rows.first() {
                ctx.record_param(
                    "best_pair",
                    None,
                    Some(&format!(
                        "{}-{}",
                        best[0].as_str().unwrap_or("?"),
                        best[1].as_str().unwrap_or("?")
                    )),
                );
                ctx.record_param("best_feb", best[3].as_f64(), None);
            }
            Ok(rows
                .into_iter()
                .enumerate()
                .map(|(k, t)| {
                    let mut out = vec![Value::Int(k as i64 + 1)];
                    out.extend(t.iter().cloned());
                    out
                })
                .collect())
        });
        let dock_indices: Vec<usize> = activities
            .iter()
            .enumerate()
            .filter(|(_, a)| a.tag == "autodock4" || a.tag == "vina")
            .map(|(i, _)| i)
            .collect();
        activities.push(
            Activity::map(
                "ranking",
                &["rank", "receptor", "ligand", "engine", "feb", "rmsd", "log_file"],
                rank_fn,
            )
            .with_operator(Operator::SRQuery),
        );
        deps.push(dock_indices);
    }

    WorkflowDef {
        tag: match mode {
            EngineMode::Ad4Only => "SciDock-AD4".to_string(),
            EngineMode::VinaOnly => "SciDock-Vina".to_string(),
            EngineMode::Adaptive => "SciDock".to_string(),
        },
        description: "Molecular docking-based virtual screening".to_string(),
        expdir: cfg.expdir.clone(),
        activities,
        deps,
    }
}

/// Render the SciCumulus XML specification (paper Fig. 2) of a SciDock
/// workflow — the declarative artifact scientists would edit and version.
pub fn scidock_xml_spec(mode: EngineMode, cfg: &SciDockConfig) -> String {
    use cumulus::xmlspec::{
        ActivityXml, DatabaseSpec, FileSpec, RelType, RelationSpec, SciCumulusSpec,
    };
    let wf = build_scidock(mode, cfg, Arc::new(FileStore::new()));
    let spec = SciCumulusSpec {
        database: DatabaseSpec {
            name: "scicumulus".into(),
            server: "ec2-50-17-107-164.compute-1.amazonaws.com".into(),
            port: 5432,
        },
        tag: wf.tag.clone(),
        description: wf.description.clone(),
        exectag: "scidock".into(),
        expdir: format!("{}/", cfg.expdir.trim_end_matches('/')),
        activities: wf
            .activities
            .iter()
            .enumerate()
            .map(|(i, a)| ActivityXml {
                tag: a.tag.clone(),
                templatedir: format!("{}/template_{}/", cfg.expdir.trim_end_matches('/'), a.tag),
                activation: "./experiment.cmd".into(),
                operator: a.operator.name().to_uppercase(),
                relations: vec![
                    RelationSpec {
                        reltype: RelType::Input,
                        name: format!("rel_in_{}", i + 1),
                        filename: format!("input_{}.txt", i + 1),
                    },
                    RelationSpec {
                        reltype: RelType::Output,
                        name: format!("rel_out_{}", i + 1),
                        filename: format!("output_{}.txt", i + 1),
                    },
                ],
                files: vec![FileSpec { filename: "experiment.cmd".into(), instrumented: true }],
            })
            .collect(),
    };
    spec.to_xml()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetParams};
    use cumulus::RunConfig;
    use cumulus::{Backend, LocalBackend, RunReport, Workflow};
    use docking::autogrid::GridSet;
    use parking_lot::Mutex;
    use provenance::ProvenanceStore;

    /// Run a workflow through the `Backend` trait (the non-deprecated
    /// surface) with the activities' shared file store attached.
    fn run(
        wf: cumulus::WorkflowDef,
        input: cumulus::Relation,
        files: Arc<FileStore>,
        prov: &Arc<ProvenanceStore>,
        cfg: RunConfig,
    ) -> RunReport {
        LocalBackend::new(cfg).run(&Workflow::new(wf, input).with_files(files), prov).unwrap()
    }

    fn tiny_dataset() -> Dataset {
        let mut p = DatasetParams::default();
        p.receptor.min_residues = 30;
        p.receptor.max_residues = 40;
        p.receptor.hg_fraction = 0.0;
        p.ligand.min_heavy = 8;
        p.ligand.max_heavy = 12;
        Dataset::subset(&["1HUC", "2HHN"], &["0D6"], p)
    }

    fn fast_cfg() -> SciDockConfig {
        SciDockConfig {
            dock: DockConfig {
                ad4_runs: 1,
                lga: docking::search::LgaConfig {
                    population: 6,
                    generations: 3,
                    ..Default::default()
                },
                mc: docking::search::McConfig { restarts: 2, steps: 2, ..Default::default() },
                grid_spacing: 1.5,
                box_edge: 14.0,
                ..Default::default()
            },
            hg_rule: false,
            ..Default::default()
        }
    }

    #[test]
    fn scidock_ad4_end_to_end() {
        let ds = tiny_dataset();
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        assert_eq!(input.len(), 2);
        let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        assert!(wf.validate().is_ok());
        assert_eq!(wf.activities.len(), 8);
        let report = run(
            wf,
            input,
            Arc::clone(&files),
            &prov,
            RunConfig { workers: 2, ..RunConfig::default() },
        );
        assert_eq!(report.final_output().len(), 2, "both pairs docked");
        // FEB column is a finite float
        let feb = report.final_output().tuples[0][3].as_f64().unwrap();
        assert!(feb.is_finite());
        // .dlg files recorded in provenance
        let r =
            prov.query_rows("SELECT count(*) FROM hfile WHERE fname LIKE '%.dlg'", &[]).unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(2));
        // feb params extracted
        let p =
            prov.query_rows("SELECT count(*) FROM hparameter WHERE pname = 'feb'", &[]).unwrap();
        assert_eq!(p.cell(0, 0), &Value::Int(2));
    }

    #[test]
    fn scidock_vina_end_to_end() {
        let ds = tiny_dataset();
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));
        let report = run(
            wf,
            input,
            Arc::clone(&files),
            &prov,
            RunConfig { workers: 2, ..RunConfig::default() },
        );
        assert_eq!(report.final_output().len(), 2);
        // Vina writes the docked pose pdbqt
        let outs = files.list(&format!("{}/vina", cfg.expdir));
        assert!(
            outs.iter().any(|p| p.ends_with("_out.pdbqt")),
            "vina output pdbqt missing: {outs:?}"
        );
    }

    #[test]
    fn adaptive_mode_routes_by_size() {
        // one surely-small and one surely-large receptor
        let mut p = DatasetParams::default();
        p.receptor.hg_fraction = 0.0;
        p.ligand.min_heavy = 8;
        p.ligand.max_heavy = 10;
        let mut small_p = p.clone();
        small_p.receptor.min_residues = 25;
        small_p.receptor.max_residues = 30;
        let mut large_p = p;
        large_p.receptor.min_residues = 150;
        large_p.receptor.max_residues = 160;
        let small = crate::dataset::make_receptor("1AEC", &small_p);
        let large = crate::dataset::make_receptor("2ACT", &large_p);
        let lig = crate::dataset::make_ligand("042", &small_p);
        let ds = Dataset { receptors: vec![small, large], ligands: vec![lig], params: small_p };

        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let mut cfg = fast_cfg();
        cfg.size_threshold_atoms = 400;
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::Adaptive, &cfg, Arc::clone(&files));
        assert_eq!(wf.activities.len(), 10);
        let report = run(wf, input, files, &prov, RunConfig { workers: 2, ..RunConfig::default() });
        // outputs: activity index 8 = autodock4, 9 = vina
        let ad4_out = &report.outputs[8];
        let vina_out = &report.outputs[9];
        assert_eq!(ad4_out.len(), 1, "small receptor routed to AD4");
        assert_eq!(vina_out.len(), 1, "large receptor routed to Vina");
        assert_eq!(ad4_out.tuples[0][0], Value::from("1AEC"));
        assert_eq!(vina_out.tuples[0][0], Value::from("2ACT"));
    }

    #[test]
    fn grid_cache_shared_across_ligands() {
        let mut p = DatasetParams::default();
        p.receptor.min_residues = 30;
        p.receptor.max_residues = 35;
        p.receptor.hg_fraction = 0.0;
        p.ligand.min_heavy = 8;
        p.ligand.max_heavy = 10;
        let ds = Dataset::subset(&["1HUC"], &["042", "074"], p);
        let files = Arc::new(FileStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        let report = run(
            wf,
            input,
            files,
            &Arc::new(ProvenanceStore::new()),
            RunConfig { workers: 2, ..RunConfig::default() },
        );
        assert_eq!(report.final_output().len(), 2, "one receptor, two ligands");
    }

    #[test]
    fn grid_cache_counters_surface_in_metrics() {
        let mut p = DatasetParams::default();
        p.receptor.min_residues = 30;
        p.receptor.max_residues = 35;
        p.receptor.hg_fraction = 0.0;
        p.ligand.min_heavy = 8;
        p.ligand.max_heavy = 10;
        let ds = Dataset::subset(&["1HUC"], &["042", "074"], p);
        let files = Arc::new(FileStore::new());
        let tel = telemetry::Telemetry::attached();
        let mut cfg = fast_cfg();
        cfg.dock.telemetry = tel.clone();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        // single-threaded so the first lookup is the only miss (concurrent
        // activations may each miss and build; the cache tolerates that)
        let report = run(
            wf,
            input,
            files,
            &Arc::new(ProvenanceStore::new()),
            RunConfig { workers: 1, ..RunConfig::default() },
        );
        assert_eq!(report.final_output().len(), 2);
        let snap = tel.snapshot().unwrap();
        // one receptor → one grid build; activities 5 and 8 each look the
        // set up once per ligand, so the other three lookups are hits
        assert_eq!(snap.counter("gridcache.miss"), Some(1));
        assert_eq!(snap.counter("gridcache.hit"), Some(3));
        let bytes = snap.counter("gridcache.bytes").expect("bytes counter present");
        assert!(bytes > 0, "resident grid bytes recorded");
    }

    #[test]
    fn autogrid4_renders_maps_once_and_stages_them_by_reference() {
        let mut p = DatasetParams::default();
        p.receptor.min_residues = 30;
        p.receptor.max_residues = 35;
        p.receptor.hg_fraction = 0.0;
        p.ligand.min_heavy = 8;
        p.ligand.max_heavy = 10;
        // a receptor whose id is itself a map label: its own-label map
        // (`e.e.map`) used to be silently neither staged nor recorded
        let ds = Dataset::subset(&["e"], &["042", "074", "0D6"], p);
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let tel = telemetry::Telemetry::attached();
        let mut cfg = fast_cfg();
        cfg.dock.telemetry = tel.clone();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let mut wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        wf.activities.truncate(5); // … up to and including autogrid4
        wf.deps.truncate(5);
        // read one staged map back after every autogrid4 activation
        let probe = format!("{}/maps/e.e.map", cfg.expdir);
        let seen: Arc<Mutex<Vec<cumulus::Blob>>> = Arc::default();
        let autogrid4 = Arc::clone(&wf.activities[4].func);
        wf.activities[4].func = {
            let seen = Arc::clone(&seen);
            Arc::new(move |tuples, ctx| {
                let out = autogrid4(tuples, ctx)?;
                seen.lock().push(ctx.read_file(&probe)?);
                Ok(out)
            })
        };
        let report = run(
            wf,
            input,
            Arc::clone(&files),
            &prov,
            RunConfig { workers: 1, ..RunConfig::default() },
        );
        assert_eq!(report.final_output().len(), 3);

        // every activation stages the one rendered set, not a copy of it:
        // each read is the same bytes, and the store holds none of them
        let seen = seen.lock();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|text| *text == seen[0] && **text == *seen[0]));
        assert_eq!(tel.snapshot().unwrap().counter("gridcache.maps.rendered"), Some(1));
        assert_eq!(files.resident_bytes(), held_without_maps(&files, &cfg.expdir));

        // … and still records all of it: 14 maps + its own .fld, per pair
        assert_eq!(files.list(&format!("{}/maps/", cfg.expdir)).len(), 14);
        let rows = prov
            .query_rows(
                "SELECT f.fdir, f.fname, f.fsize FROM hfile f, hactivation t, hactivity a \
                 WHERE f.taskid = t.taskid AND t.actid = a.actid AND a.tag = 'autogrid4'",
                &[],
            )
            .unwrap();
        assert_eq!(rows.len(), 15 * 3);
        for i in 0..rows.len() {
            let dir = rows.cell(i, 0).as_str().unwrap();
            let name = rows.cell(i, 1).as_str().unwrap();
            let size = files.size(&format!("{dir}{name}")).expect("recorded file is staged");
            assert_eq!(rows.cell(i, 2), &Value::Int(size as i64), "{dir}{name}");
        }
        let maps =
            prov.query_rows("SELECT count(*) FROM hfile WHERE fname LIKE 'e.%.map'", &[]).unwrap();
        assert_eq!(maps.cell(0, 0), &Value::Int(14 * 3));
    }

    /// Bytes of the distinct contents of every path of `files` that is not
    /// a `.map` file under `expdir`.
    fn held_without_maps(files: &FileStore, expdir: &str) -> u64 {
        let map_dir = format!("{}/maps/", expdir.trim_end_matches('/'));
        let mut distinct: Vec<cumulus::Blob> = Vec::new();
        for path in files.list("") {
            if path.starts_with(&map_dir) && path.ends_with(".map") {
                continue;
            }
            let blob = files.read(&path).unwrap();
            if !distinct.contains(&blob) {
                distinct.push(blob);
            }
        }
        distinct.iter().map(|blob| blob.len() as u64).sum()
    }

    #[test]
    fn a_run_holds_no_map_text_and_every_map_reads_back_as_autogrid_prints_it() {
        let ds = Dataset::subset(&["1HUC", "2HHN"], &["042", "074"], tiny_dataset().params);
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::Adaptive, &cfg, Arc::clone(&files));
        let report = run(
            wf,
            input,
            Arc::clone(&files),
            &prov,
            RunConfig { workers: 2, ..RunConfig::default() },
        );
        assert_eq!(report.failed_attempts, 0);
        assert_eq!(files.resident_bytes(), held_without_maps(&files, &cfg.expdir));

        // each receptor's staged maps are the files its grid set prints
        let map_dir = format!("{}/maps", cfg.expdir);
        let prepared = &report.outputs[2];
        assert_eq!(files.list(&format!("{map_dir}/")).len(), 14 * 2);
        for id in ["1HUC", "2HHN"] {
            let t = prepared.tuples.iter().find(|t| t[0].as_str() == Some(id)).unwrap();
            let pdbqt = files.read(t[3].as_str().unwrap()).unwrap();
            let grids = cfg.receptors.grids(&pdbqt, EngineKind::Ad4, &cfg.dock).unwrap();
            for (name, text) in docking::mapfile::render_map_files(&grids, id) {
                let staged = files.read(&format!("{map_dir}/{name}")).unwrap();
                assert!(*staged == *text, "{name}");
                assert_eq!(staged.digest(), cumulus::digest(text.as_bytes()));
            }
        }
        // … and reading them held nothing
        assert_eq!(files.resident_bytes(), held_without_maps(&files, &cfg.expdir));
    }

    #[test]
    fn rendered_maps_are_keyed_by_content_digest_and_receptor_name() {
        let tel = telemetry::Telemetry::attached();
        let (text, cfg) = cache_fixture(&tel);
        let cache = ReceptorCache::default();
        let render = |id: &str, text: &cumulus::Blob| {
            cache.get_or_render(id, text, EngineKind::Ad4, &cfg).unwrap()
        };
        let counter = |name: &str| tel.snapshot().unwrap().counter(name);

        let first = render("1HUC", &text);
        let again = render("1HUC", &text);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(first.len(), 14);
        assert_eq!(counter("gridcache.maps.rendered"), Some(1));

        // same content under a second name: same grids, but the .map header
        // names the receptor, so the files are rendered again
        let renamed = render("COPY", &text);
        assert_eq!(counter("gridcache.miss"), Some(1));
        assert_eq!(counter("gridcache.maps.rendered"), Some(2));
        assert_eq!(renamed[0].0, "COPY.C.map");
        assert!(renamed[0].1.contains("MACROMOLECULE COPY.pdbqt"));
        assert_ne!(renamed[0].1, first[0].1);

        // same name, different content: the digest is in the key, so a
        // re-staged receptor never gets the previous one's maps
        let moved = cumulus::Blob::new(text.replacen("REMARK", "REMARK  edited\nREMARK", 1));
        let other = render("1HUC", &moved);
        assert_eq!(counter("gridcache.miss"), Some(2));
        assert_eq!(counter("gridcache.maps.rendered"), Some(3));
        assert!(!Arc::ptr_eq(&other, &first));
        assert_eq!(cache.grid_sets(), 2);
    }

    /// One prepared receptor's PDBQT text plus a fast `DockConfig` bound to
    /// `tel`, shared by the persistent-cache tests below.
    fn cache_fixture(tel: &telemetry::Telemetry) -> (cumulus::Blob, DockConfig) {
        let mut p = DatasetParams::default();
        p.receptor.min_residues = 30;
        p.receptor.max_residues = 35;
        p.receptor.hg_fraction = 0.0;
        let mut mol = crate::dataset::make_receptor("1HUC", &p).structure;
        molkit::typer::assign_ad_types(&mut mol);
        molkit::charges::assign_gasteiger(&mut mol, &Default::default());
        let text = cumulus::Blob::new(pdbqt::write_receptor_pdbqt(&mol));
        let cfg = DockConfig {
            grid_spacing: 1.5,
            box_edge: 14.0,
            telemetry: tel.clone(),
            ..Default::default()
        };
        (text, cfg)
    }

    #[test]
    fn persistent_grid_cache_survives_across_cache_instances() {
        let dir =
            std::env::temp_dir().join(format!("scidock-gridcache-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tel = telemetry::Telemetry::attached();
        let (text, cfg) = cache_fixture(&tel);

        // cold: fresh cache over an empty dir → build + persist
        let cold = ReceptorCache::on_disk(&dir);
        let built = cold.get_or_build("1HUC", &text, EngineKind::Ad4, &cfg).unwrap();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("gridcache.persist.miss"), Some(1));
        assert_eq!(snap.counter("gridcache.persist.write"), Some(1));
        assert_eq!(snap.counter("gridcache.persist.hit"), None);

        // warm: a NEW cache instance (empty memory tier) over the same dir
        // loads the entry instead of rebuilding
        let warm = ReceptorCache::on_disk(&dir);
        let loaded = warm.get_or_build("1HUC", &text, EngineKind::Ad4, &cfg).unwrap();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("gridcache.persist.miss"), Some(1), "no second build");
        assert_eq!(snap.counter("gridcache.persist.write"), Some(1));
        assert_eq!(snap.counter("gridcache.persist.hit"), Some(1));
        assert_eq!(
            docking::gridio::serialize_grid_set(&built),
            docking::gridio::serialize_grid_set(&loaded),
            "persisted entry round-trips bit-identically"
        );
        assert_eq!(
            telemetry::registry::unregistered(&snap),
            Vec::<String>::new(),
            "persistent-cache metrics are all registered"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_under_another_name_is_a_miss_not_an_error() {
        let dir =
            std::env::temp_dir().join(format!("scidock-gridcache-renamed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tel = telemetry::Telemetry::attached();
        let (text, cfg) = cache_fixture(&tel);
        let built = ReceptorCache::on_disk(&dir).grids(&text, EngineKind::Ad4, &cfg).unwrap();
        // the entry as a build that keyed grids differently named it
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        std::fs::rename(&entry, dir.join("5e636ef3bd54d040.grid")).unwrap();

        let rebuilt = ReceptorCache::on_disk(&dir).grids(&text, EngineKind::Ad4, &cfg).unwrap();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("gridcache.persist.miss"), Some(2), "built again");
        assert_eq!(snap.counter("gridcache.persist.hit"), None);
        assert_eq!(
            docking::gridio::serialize_grid_set(&built),
            docking::gridio::serialize_grid_set(&rebuilt)
        );
        assert!(entry.exists(), "… and published under its own name");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_claiming_an_impossible_lattice_is_rebuilt_not_loaded() {
        let dir =
            std::env::temp_dir().join(format!("scidock-gridcache-npts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tel = telemetry::Telemetry::attached();
        let (text, cfg) = cache_fixture(&tel);
        let built = ReceptorCache::on_disk(&dir).grids(&text, EngineKind::Ad4, &cfg).unwrap();
        // the entry with 10¹⁵ lattice points in its header and a footer
        // that matches: only the lattice size is a lie
        let entry = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let on_disk = std::fs::read_to_string(&entry).unwrap();
        let (header, maps) = on_disk[..on_disk.rfind("end ").unwrap()].split_once('\n').unwrap();
        let mut h: Vec<&str> = header.split(' ').collect();
        h[2] = "100000";
        let body = format!("{}\n{maps}", h.join(" "));
        let crafted = format!("{body}end {:016x}\n", docking::gridio::fnv1a64(body.as_bytes()));
        assert!(docking::gridio::deserialize_grid_set(&crafted).is_err());
        std::fs::write(&entry, crafted).unwrap();

        let rebuilt = ReceptorCache::on_disk(&dir).grids(&text, EngineKind::Ad4, &cfg).unwrap();
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("gridcache.persist.miss"), Some(2), "built again");
        assert_eq!(snap.counter("gridcache.persist.hit"), None);
        assert_eq!(
            docking::gridio::serialize_grid_set(&built),
            docking::gridio::serialize_grid_set(&rebuilt)
        );
        assert_eq!(std::fs::read_to_string(&entry).unwrap(), on_disk, "… and written back whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_grid_cache_racers_share_one_untorn_entry() {
        let dir =
            std::env::temp_dir().join(format!("scidock-gridcache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tel = telemetry::Telemetry::attached();
        let (text, cfg) = cache_fixture(&tel);
        let text = Arc::new(text);
        let sets: Vec<Arc<GridSet>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let text = Arc::clone(&text);
                    let cfg = cfg.clone();
                    let dir = dir.clone();
                    s.spawn(move || {
                        // each racer is its own campaign: private memory
                        // tier, shared on-disk dir
                        let cache = ReceptorCache::on_disk(dir);
                        cache.get_or_build("1HUC", &text, EngineKind::Ad4, &cfg).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries.len(), 1, "one entry, no leftover temp files: {entries:?}");
        let on_disk = std::fs::read_to_string(&entries[0]).unwrap();
        let parsed = docking::gridio::deserialize_grid_set(&on_disk).expect("entry not torn");
        let want = docking::gridio::serialize_grid_set(&sets[0]);
        assert_eq!(docking::gridio::serialize_grid_set(&parsed), want);
        assert_eq!(on_disk, want, "bytes on disk are the canonical serialization");
        assert_eq!(
            docking::gridio::serialize_grid_set(&sets[1]),
            want,
            "both racers observe identical grids"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hg_rule_blacklists_poison_receptors() {
        // force an Hg-bearing receptor by scanning ids with default params
        let p = DatasetParams::default();
        let hg_id = crate::dataset::RECEPTOR_IDS
            .iter()
            .find(|id| crate::dataset::make_receptor(id, &p).has_hg)
            .expect("dataset contains at least one Hg receptor");
        let ds = Dataset::subset(&[hg_id, "1HUC"], &["042"], {
            let mut q = DatasetParams::default();
            q.ligand.min_heavy = 8;
            q.ligand.max_heavy = 10;
            q
        });
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let mut cfg = fast_cfg();
        cfg.hg_rule = true;
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        let report = run(wf, input, files, &prov, RunConfig { workers: 2, ..RunConfig::default() });
        assert_eq!(report.blacklisted, 1);
        let r = prov
            .query_rows("SELECT count(*) FROM hactivation WHERE status = 'BLACKLISTED'", &[])
            .unwrap();
        assert_eq!(r.cell(0, 0), &Value::Int(1));
        // the poisoned pair never reaches docking
        assert_eq!(report.final_output().len(), 1);
    }

    #[test]
    fn template_instrumentation_recorded_in_provenance() {
        let ds = tiny_dataset();
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));
        let _ = run(
            wf,
            input,
            Arc::clone(&files),
            &prov,
            RunConfig { workers: 4, ..RunConfig::default() },
        );
        // every vinaconfig activation recorded its substituted template tags
        let q = prov
            .query_rows(
                "SELECT pname, count(*) FROM hparameter WHERE pname LIKE 'tpl_%' \
                 GROUP BY pname ORDER BY pname",
                &[],
            )
            .unwrap();
        let names: Vec<String> = q.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["tpl_EXH", "tpl_LIGAND", "tpl_RECEPTOR"]);
        for r in &q.rows {
            assert_eq!(r[1].as_f64(), Some(2.0), "one per pair");
        }
        // the rendered config file exists and contains the substituted value
        let confs = files.list(&format!("{}/vinaconfig", cfg.expdir));
        assert_eq!(confs.len(), 2);
        let body = files.read(&confs[0]).unwrap();
        assert!(body.contains("exhaustiveness = 2"), "{body}");
        assert!(body.contains(".pdbqt"));
    }

    #[test]
    fn ranking_activity_orders_by_feb() {
        let ds = tiny_dataset();
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let mut cfg = fast_cfg();
        cfg.with_ranking = true;
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::VinaOnly, &cfg, Arc::clone(&files));
        assert_eq!(wf.activities.len(), 9, "8 activities + ranking");
        assert_eq!(wf.activities.last().unwrap().operator, Operator::SRQuery);
        let report = run(
            wf,
            input,
            Arc::clone(&files),
            &prov,
            RunConfig { workers: 2, ..RunConfig::default() },
        );
        let ranked = report.final_output();
        assert_eq!(ranked.len(), 2);
        // rank column ascending, FEB ascending
        assert_eq!(ranked.tuples[0][0], Value::Int(1));
        assert_eq!(ranked.tuples[1][0], Value::Int(2));
        let f0 = ranked.tuples[0][4].as_f64().unwrap();
        let f1 = ranked.tuples[1][4].as_f64().unwrap();
        assert!(f0 <= f1, "ranking must be FEB-ascending: {f0} vs {f1}");
        // the report file exists and the best pair is a provenance param
        let rank_files = files.list(&format!("{}/ranking", cfg.expdir));
        assert_eq!(rank_files.len(), 1);
        let body = files.read(&rank_files[0]).unwrap();
        assert!(body.starts_with("rank receptor ligand"));
        let q = prov
            .query_rows("SELECT pvalue_text FROM hparameter WHERE pname = 'best_pair'", &[])
            .unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn xml_spec_renders_all_modes() {
        for (mode, n) in
            [(EngineMode::Ad4Only, 8), (EngineMode::VinaOnly, 8), (EngineMode::Adaptive, 10)]
        {
            let xml = scidock_xml_spec(mode, &SciDockConfig::default());
            let starting = |tag: &str| -> Vec<&str> {
                xml.lines().filter(|l| l.trim_start().starts_with(tag)).collect()
            };
            let activities = starting("<SciCumulusActivity ");
            assert_eq!(activities.len(), n, "{mode:?}");
            assert!(activities[0].contains("tag=\"babel\""));
            // an input and an output relation per activity
            assert_eq!(starting("<Relation reltype=\"Input\"").len(), n);
            assert_eq!(starting("<Relation reltype=\"Output\"").len(), n);
        }
        // the paper's Fig. 2 shape: babel with instrumented experiment.cmd
        let xml = scidock_xml_spec(EngineMode::Ad4Only, &SciDockConfig::default());
        assert!(xml.contains("tag=\"babel\""));
        assert!(xml.contains("instrumented=\"true\""));
    }

    #[test]
    fn paper_queries_run_against_real_execution() {
        let ds = tiny_dataset();
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let cfg = fast_cfg();
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        let _ = run(wf, input, files, &prov, RunConfig { workers: 4, ..RunConfig::default() });
        // Query 1 (paper Fig. 10)
        let q1 = prov
            .query_rows(
                "SELECT a.tag, \
                   min(extract('epoch' from (t.endtime-t.starttime))), \
                   max(extract('epoch' from (t.endtime-t.starttime))), \
                   sum(extract('epoch' from (t.endtime-t.starttime))), \
                   avg(extract('epoch' from (t.endtime-t.starttime))) \
                 FROM hworkflow w, hactivity a, hactivation t \
                 WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 1 \
                 GROUP BY a.tag ORDER BY a.tag",
                &[],
            )
            .unwrap();
        assert_eq!(q1.len(), 8, "eight SciDock activities");
        // Query 2 (paper Fig. 11)
        let q2 = prov
            .query_rows(
                "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir \
                 FROM hworkflow w, hactivity a, hactivation t, hfile f \
                 WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND t.taskid = f.taskid \
                 AND f.fname LIKE '%.dlg'",
                &[],
            )
            .unwrap();
        assert_eq!(q2.len(), 2);
        assert_eq!(q2.cell(0, 1), &Value::from("autodock4"));
    }
}
