//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p scidock-bench --bin figures              # everything
//! cargo run --release -p scidock-bench --bin figures -- --fig7    # one artifact
//! cargo run --release -p scidock-bench --bin figures -- --all --scale 4
//! ```
//!
//! `--scale N` divides the receptor set of the *local* (real-docking)
//! experiments by N to keep laptop runs short; the simulated experiments
//! always use the full 10,000-pair dataset.
//!
//! Besides the human-readable text, every numeric series is also written as
//! a JSON sidecar (default `target/figures.json`, override with
//! `--json PATH`) so bench trajectories can be diffed across PRs.

use std::collections::BTreeSet;

use provenance::ProvenanceStore;
use scidock::activities::{EngineMode, SciDockConfig};
use scidock::analysis::{
    activation_durations, histogram, per_activity_stats, render_table3, table3, top_interactions,
    total_feb_negative, PairResult,
};
use scidock::dataset::{Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};
use scidock::experiments::{
    headline, run_screening, scaling_sweep, simulate_at, ScalePoint, SweepConfig, PAPER_CORE_COUNTS,
};

use scidock_bench::sidecar::{num_array, Sidecar};
use scidock_bench::util::{bar, human_time};
use telemetry::json;

/// Every artifact a `--<name>` flag selects; `--all` (or no flag) = all.
const ARTIFACTS: [&str; 14] = [
    "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "query1", "query2", "table3",
    "top3", "headline", "cost", "spec",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_arg =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let json_path = flag_arg("--json").unwrap_or_else(|| "target/figures.json".to_string());
    let mut wanted: BTreeSet<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            a.starts_with("--")
                && !matches!(a.as_str(), "--scale" | "--all" | "--json")
                // skip a flag's value slot (e.g. the PATH after --json)
                && !matches!(i.checked_sub(1).and_then(|p| args.get(p)).map(String::as_str),
                    Some("--scale" | "--json"))
        })
        .map(|(_, a)| a.trim_start_matches("--").to_string())
        .collect();
    let scale: usize = flag_arg("--scale").and_then(|v| v.parse().ok()).unwrap_or(1);
    let mut sidecar = Sidecar::new();
    if let Some(unknown) = wanted.iter().find(|w| !ARTIFACTS.contains(&w.as_str())) {
        eprintln!(
            "figures: unknown flag --{unknown}\nusage: figures [--all] [--scale N] [--json PATH] {}",
            ARTIFACTS.map(|a| format!("[--{a}]")).join(" ")
        );
        std::process::exit(2);
    }
    if wanted.is_empty() || args.iter().any(|a| a == "--all") {
        wanted.extend(ARTIFACTS.map(String::from));
    }
    let want = |k: &str| wanted.contains(k);

    // ---------------- static tables ----------------
    if want("table1") {
        section("TABLE 1 — Characteristics of used VMs");
        println!("{:<12} | {:>7} | Physical Processor", "Instance", "# cores");
        println!("{:-<12}-+-{:-<7}-+-{:-<20}", "", "", "");
        for t in [&cloudsim::M3_XLARGE, &cloudsim::M3_2XLARGE] {
            println!("{:<12} | {:>7} | {}", t.name, t.cores, t.processor);
        }
    }

    if want("table2") {
        section("TABLE 2 — Receptors and ligands of clan Peptidase_CA (CL0125)");
        println!("{} receptors (PDB):", RECEPTOR_IDS.len());
        for chunk in RECEPTOR_IDS.chunks(14) {
            println!("  {}", chunk.join(" "));
        }
        println!("{} ligands (SDF):", LIGAND_CODES.len());
        for chunk in LIGAND_CODES.chunks(18) {
            println!("  {}", chunk.join(" "));
        }
        let ds = Dataset::full(DatasetParams::default());
        println!("total pairs: {} (paper: \"all-out 10,000 receptor-ligands\")", ds.pair_count());
    }

    // ---------------- simulated 1,000-pair run: figs 5, 6, query 1 ----------
    let needs_sim_1k = want("fig5") || want("fig6") || want("query1");
    let sim_tel = telemetry::Telemetry::attached();
    let sim_prov = if needs_sim_1k {
        let mut sweep = SweepConfig {
            ligand_codes: LIGAND_CODES[..4].iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        };
        sweep.sim.telemetry = sim_tel.clone();
        let prov = ProvenanceStore::new();
        eprintln!("[figures] simulating the 1,000-pair run on 16 cores …");
        let r = simulate_at(16, EngineMode::VinaOnly, &sweep, Some(&prov));
        eprintln!(
            "[figures]   TET {} | {} finished, {} failed, {} aborted, {} blacklisted",
            human_time(r.tet_s),
            r.finished,
            r.failed_attempts,
            r.aborted,
            r.blacklisted
        );
        Some(prov)
    } else {
        None
    };

    if want("fig5") {
        let prov = sim_prov.as_ref().expect("sim ran");
        section("FIGURE 5 — Histogram of activity execution times (1,000 pairs)");
        let durations = activation_durations(prov, 1);
        let h = histogram(&durations, 12);
        let max = h.iter().map(|(_, _, c)| *c).max().unwrap_or(0);
        println!("{:>18} | {:>6} |", "duration (s)", "count");
        for (lo, hi, c) in &h {
            println!("{:>8.1} –{:>8.1} | {:>6} | {}", lo, hi, c, bar(*c, max, 40));
        }
        let n = durations.len() as f64;
        let mean = durations.iter().sum::<f64>() / n;
        let sd = (durations.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n).sqrt();
        println!("activations: {} | mean {:.1} s | sd {:.1} s", durations.len(), mean, sd);
        let bins: Vec<String> = h
            .iter()
            .map(|(lo, hi, c)| {
                format!("{{\"lo_s\":{},\"hi_s\":{},\"count\":{c}}}", json::num(*lo), json::num(*hi))
            })
            .collect();
        sidecar.push(
            "fig5",
            format!(
                "{{\"activations\":{},\"mean_s\":{},\"sd_s\":{},\"bins\":[{}]}}",
                durations.len(),
                json::num(mean),
                json::num(sd),
                bins.join(",")
            ),
        );
    }

    if want("fig6") {
        let prov = sim_prov.as_ref().expect("sim ran");
        section("FIGURE 6 — Execution time per activity (16 cores)");
        let stats = per_activity_stats(prov, 1);
        let max_sum = stats.iter().map(|s| s.3).fold(0.0f64, f64::max);
        println!(
            "{:<16} | {:>9} | {:>9} | {:>11} | {:>9} |",
            "activity", "min (s)", "max (s)", "total (s)", "avg (s)"
        );
        for (tag, min, max, sum, avg) in &stats {
            println!(
                "{:<16} | {:>9.2} | {:>9.2} | {:>11.1} | {:>9.2} | {}",
                tag,
                min,
                max,
                sum,
                avg,
                bar((*sum) as usize, max_sum as usize, 30)
            );
        }
        let rows: Vec<String> = stats
            .iter()
            .map(|(tag, min, max, sum, avg)| {
                format!(
                    "{{\"activity\":\"{}\",\"min_s\":{},\"max_s\":{},\"total_s\":{},\"avg_s\":{}}}",
                    json::escape(tag),
                    json::num(*min),
                    json::num(*max),
                    json::num(*sum),
                    json::num(*avg)
                )
            })
            .collect();
        sidecar.push("fig6", format!("[{}]", rows.join(",")));
    }

    if want("query1") {
        let prov = sim_prov.as_ref().expect("sim ran");
        section("QUERY 1 (paper Fig. 10) — per-activity min/max/sum/avg via SQL");
        let sql = "SELECT a.tag, \
                     min(extract('epoch' from (t.endtime-t.starttime))), \
                     max(extract('epoch' from (t.endtime-t.starttime))), \
                     sum(extract('epoch' from (t.endtime-t.starttime))), \
                     avg(extract('epoch' from (t.endtime-t.starttime))) \
                   FROM hworkflow w, hactivity a, hactivation t \
                   WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 1 \
                   GROUP BY a.tag ORDER BY a.tag";
        println!("SQL: {sql}\n");
        match prov.query_rows(sql, &[]) {
            Ok(rs) => println!("{rs}"),
            Err(e) => println!("query failed: {e}"),
        }
    }

    // ---------------- scaling sweeps: figs 7-9 + headline -------------------
    let needs_sweep =
        want("fig7") || want("fig8") || want("fig9") || want("headline") || want("cost");
    let sweeps: Option<(Vec<ScalePoint>, Vec<ScalePoint>)> = if needs_sweep {
        let sweep = SweepConfig::default();
        eprintln!("[figures] running the 10,000-pair scaling sweeps (2–128 cores) …");
        let ad4 = scaling_sweep(&PAPER_CORE_COUNTS, EngineMode::Ad4Only, &sweep);
        let vina = scaling_sweep(&PAPER_CORE_COUNTS, EngineMode::VinaOnly, &sweep);
        Some((ad4, vina))
    } else {
        None
    };

    if want("fig7") {
        let (ad4, vina) = sweeps.as_ref().expect("sweep ran");
        section("FIGURE 7 — Total execution time of SciDock (10,000 pairs)");
        println!("cores | TET SciDock-AD4 | TET SciDock-Vina");
        println!("------+-----------------+-----------------");
        for (a, v) in ad4.iter().zip(vina) {
            println!("{:>5} | {:>15} | {:>15}", a.cores, human_time(a.tet_s), human_time(v.tet_s));
        }
        sidecar.push(
            "fig7",
            format!(
                "{{\"cores\":{},\"ad4_tet_s\":{},\"vina_tet_s\":{}}}",
                num_array(&ad4.iter().map(|p| p.cores as f64).collect::<Vec<_>>()),
                num_array(&ad4.iter().map(|p| p.tet_s).collect::<Vec<_>>()),
                num_array(&vina.iter().map(|p| p.tet_s).collect::<Vec<_>>())
            ),
        );
    }

    if want("fig8") {
        let (ad4, vina) = sweeps.as_ref().expect("sweep ran");
        section("FIGURE 8 — Speedup of SciDock (vs 1-core baseline)");
        println!("cores | AD4 speedup | Vina speedup | ideal");
        println!("------+-------------+--------------+------");
        for (a, v) in ad4.iter().zip(vina) {
            println!("{:>5} | {:>11.1} | {:>12.1} | {:>5}", a.cores, a.speedup, v.speedup, a.cores);
        }
        sidecar.push(
            "fig8",
            format!(
                "{{\"cores\":{},\"ad4_speedup\":{},\"vina_speedup\":{}}}",
                num_array(&ad4.iter().map(|p| p.cores as f64).collect::<Vec<_>>()),
                num_array(&ad4.iter().map(|p| p.speedup).collect::<Vec<_>>()),
                num_array(&vina.iter().map(|p| p.speedup).collect::<Vec<_>>())
            ),
        );
    }

    if want("fig9") {
        let (ad4, vina) = sweeps.as_ref().expect("sweep ran");
        section("FIGURE 9 — Efficiency of SciDock");
        println!("cores | AD4 efficiency | Vina efficiency");
        println!("------+----------------+----------------");
        for (a, v) in ad4.iter().zip(vina) {
            println!("{:>5} | {:>14.2} | {:>15.2}", a.cores, a.efficiency, v.efficiency);
        }
        sidecar.push(
            "fig9",
            format!(
                "{{\"cores\":{},\"ad4_efficiency\":{},\"vina_efficiency\":{}}}",
                num_array(&ad4.iter().map(|p| p.cores as f64).collect::<Vec<_>>()),
                num_array(&ad4.iter().map(|p| p.efficiency).collect::<Vec<_>>()),
                num_array(&vina.iter().map(|p| p.efficiency).collect::<Vec<_>>())
            ),
        );
    }

    if want("cost") {
        let (ad4, vina) = sweeps.as_ref().expect("sweep ran");
        section("EXTENSION — cloud cost vs cores (§V.C: \"particularly if financial costs are involved\")");
        println!("cores | AD4 cost (USD) | Vina cost (USD) | AD4 $/1k pairs | Vina $/1k pairs");
        println!("------+----------------+-----------------+----------------+----------------");
        for (a, v) in ad4.iter().zip(vina) {
            println!(
                "{:>5} | {:>14.2} | {:>15.2} | {:>14.2} | {:>15.2}",
                a.cores,
                a.cost_usd,
                v.cost_usd,
                a.cost_usd / 10.0,
                v.cost_usd / 10.0
            );
        }
        println!("\n(the paper's caution about >32 VMs shows up as the cost knee: past the\nefficiency plateau each extra dollar buys less speedup)");
        sidecar.push(
            "cost",
            format!(
                "{{\"cores\":{},\"ad4_usd\":{},\"vina_usd\":{}}}",
                num_array(&ad4.iter().map(|p| p.cores as f64).collect::<Vec<_>>()),
                num_array(&ad4.iter().map(|p| p.cost_usd).collect::<Vec<_>>()),
                num_array(&vina.iter().map(|p| p.cost_usd).collect::<Vec<_>>())
            ),
        );
    }

    if want("spec") {
        section("SCIDOCK XML SPECIFICATION (paper Fig. 2, generated)");
        let xml =
            scidock::activities::scidock_xml_spec(EngineMode::Adaptive, &SciDockConfig::default());
        for line in xml.lines().take(24) {
            println!("{line}");
        }
        println!("… ({} lines total)", xml.lines().count());
    }

    if want("headline") {
        let (ad4, vina) = sweeps.as_ref().expect("sweep ran");
        section("HEADLINE NUMBERS (paper §I / §V.C / §VI)");
        let ha = headline(ad4);
        let hv = headline(vina);
        println!(
            "SciDock-AD4 : {:.1} days (2 cores) → {:.1} hours (128 cores)   [paper: 12.5 d → 11.9 h]",
            ha.tet_low_days, ha.tet_high_hours
        );
        println!(
            "SciDock-Vina: {:.1} days (2 cores) → {:.1} hours (128 cores)   [paper:  9.0 d →  7.7 h]",
            hv.tet_low_days, hv.tet_high_hours
        );
        println!(
            "improvement at 32 cores: AD4 {:.1}%, Vina {:.1}%              [paper: 95.4% / 96.1%]",
            ha.improvement_at_32.unwrap_or(0.0),
            hv.improvement_at_32.unwrap_or(0.0)
        );
        println!(
            "speedup at 16 cores: AD4 {:.1}×, Vina {:.1}×                  [paper: ~13×]",
            ha.speedup_at_16.unwrap_or(0.0),
            hv.speedup_at_16.unwrap_or(0.0)
        );
        let engine_json = |h: &scidock::experiments::Headline| {
            format!(
                "{{\"tet_low_days\":{},\"tet_high_hours\":{},\"improvement_at_32_pct\":{},\"speedup_at_16\":{}}}",
                json::num(h.tet_low_days),
                json::num(h.tet_high_hours),
                json::num(h.improvement_at_32.unwrap_or(f64::NAN)),
                json::num(h.speedup_at_16.unwrap_or(f64::NAN))
            )
        };
        sidecar.push(
            "headline",
            format!("{{\"ad4\":{},\"vina\":{}}}", engine_json(&ha), engine_json(&hv)),
        );
    }

    // ---------------- real docking run: table 3, query 2, top 3 -------------
    let needs_real = want("table3") || want("query2") || want("top3");
    if needs_real {
        let n_rec = (RECEPTOR_IDS.len() / scale).max(2);
        let receptor_ids: Vec<&str> = RECEPTOR_IDS[..n_rec].to_vec();
        let ligands: Vec<&str> = LIGAND_CODES[..4].to_vec();
        eprintln!(
            "[figures] real docking: {} receptors × {} ligands × 2 engines (--scale {scale}) …",
            receptor_ids.len(),
            ligands.len()
        );
        let cfg = SciDockConfig::default();
        let t0 = std::time::Instant::now();
        let ad4_out = run_screening(&receptor_ids, &ligands, EngineMode::Ad4Only, 4, &cfg);
        eprintln!(
            "[figures]   AD4 done in {} ({} pairs)",
            human_time(t0.elapsed().as_secs_f64()),
            ad4_out.results.len()
        );
        let t1 = std::time::Instant::now();
        let vina_out = run_screening(&receptor_ids, &ligands, EngineMode::VinaOnly, 4, &cfg);
        eprintln!(
            "[figures]   Vina done in {} ({} pairs)",
            human_time(t1.elapsed().as_secs_f64()),
            vina_out.results.len()
        );

        let mut results: Vec<PairResult> = ad4_out.results.clone();
        results.extend(vina_out.results.clone());

        if want("table3") {
            section("TABLE 3 — Results of molecular docking processes for SciDock");
            let lig_list: Vec<&str> = ligands.clone();
            let rows_a = table3(&results, "autodock4", &lig_list);
            let rows_v = table3(&results, "vina", &lig_list);
            println!("{}", render_table3(&rows_a, &rows_v));
            println!(
                "total FEB(-): AD4 {} / Vina {} of {} pairs each   [paper: 287 / 355 of 1,000]",
                total_feb_negative(&results, "autodock4"),
                total_feb_negative(&results, "vina"),
                ad4_out.results.len()
            );
            sidecar.push(
                "table3",
                format!(
                    "{{\"scale\":{scale},\"pairs_per_engine\":{},\"ad4_feb_negative\":{},\"vina_feb_negative\":{}}}",
                    ad4_out.results.len(),
                    total_feb_negative(&results, "autodock4"),
                    total_feb_negative(&results, "vina")
                ),
            );
        }

        if want("top3") {
            section("TOP INTERACTIONS (paper §V.D: 2HHN-0E6, 1S4V-0D6, 1HUC-0D6)");
            for r in top_interactions(&results, 10) {
                println!(
                    "  {}-{} [{}]: FEB {:+.2} kcal/mol, RMSD {:.1} Å",
                    r.receptor, r.ligand, r.engine, r.feb, r.rmsd
                );
            }
        }

        if want("query2") {
            section("QUERY 2 (paper Fig. 11) — names, sizes, locations of .dlg files");
            let sql = "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir \
                       FROM hworkflow w, hactivity a, hactivation t, hfile f \
                       WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND t.taskid = f.taskid \
                       AND f.fname LIKE '%.dlg' ORDER BY f.fsize DESC, f.fname LIMIT 10";
            println!("SQL: {sql}\n");
            match ad4_out.prov.query_rows(sql, &[]) {
                Ok(rs) => println!("{rs}"),
                Err(e) => println!("query failed: {e}"),
            }
        }
    }

    if !sidecar.is_empty() {
        if let Some(m) = sim_tel.snapshot() {
            if !m.counters.is_empty() || !m.histograms.is_empty() {
                sidecar.push_metrics(&m);
            }
        }
        let path = std::path::Path::new(&json_path);
        match sidecar.write(path) {
            Ok(()) => eprintln!("[figures] JSON sidecar written to {}", path.display()),
            Err(e) => eprintln!("[figures] failed to write {}: {e}", path.display()),
        }
    }
    eprintln!("[figures] done.");
}

fn section(title: &str) {
    println!("\n=============================================================");
    println!("{title}");
    println!("=============================================================");
}
