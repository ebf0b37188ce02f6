//! Runtime provenance steering — the SciCumulus capability the paper
//! highlights: while a (simulated) 10,000-pair execution runs, the
//! scientist queries the provenance database to find failures, hangs, and
//! blacklisted poison inputs without browsing output directories.
//!
//! ```sh
//! cargo run --release --example provenance_steering
//! ```

use cloudsim::FailureModel;
use provenance::ProvenanceStore;
use scidock::activities::EngineMode;
use scidock::dataset::{LIGAND_CODES, RECEPTOR_IDS};
use scidock::experiments::{simulate_at, SweepConfig};

fn main() {
    // Simulate a 238 × 8 slice with the paper's ~10% failure injection so
    // there is something interesting to steer on.
    let mut sweep = SweepConfig {
        receptor_ids: RECEPTOR_IDS.iter().map(|s| s.to_string()).collect(),
        ligand_codes: LIGAND_CODES[..8].iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    };
    sweep.sim.failures =
        FailureModel { fail_rate: 0.10, hang_rate: 0.02, fail_at_fraction: 0.6, seed: 7 };

    let prov = ProvenanceStore::new();
    println!("simulating SciDock-Vina on 32 cores with failure injection …");
    let report = simulate_at(32, EngineMode::VinaOnly, &sweep, Some(&prov));
    println!(
        "TET {:.1} h | {} finished, {} failed attempts, {} aborted (hangs), {} blacklisted, {} cancelled\n",
        report.tet_s / 3600.0,
        report.finished,
        report.failed_attempts,
        report.aborted,
        report.blacklisted,
        report.cancelled,
    );

    let show = |title: &str, sql: &str| {
        println!("-- {title}\n   {sql}\n");
        match prov.query_rows(sql, &[]) {
            Ok(rs) => {
                for line in rs.to_string().lines().take(12) {
                    println!("   {line}");
                }
                if rs.len() > 10 {
                    println!("   … ({} rows total)", rs.len());
                }
            }
            Err(e) => println!("   query failed: {e}"),
        }
        println!();
    };

    show(
        "how is each activity doing? (paper Query 1)",
        "SELECT a.tag, count(*), avg(extract('epoch' from (t.endtime-t.starttime))) \
         FROM hactivity a, hactivation t WHERE a.actid = t.actid \
         GROUP BY a.tag ORDER BY a.tag",
    );

    show(
        "which activations failed and how often were they retried?",
        "SELECT status, count(*), max(retries) FROM hactivation GROUP BY status ORDER BY status",
    );

    show(
        "which pairs hit the hang detector? (the paper's 'looping state' analysis)",
        "SELECT pairkey, count(*) FROM hactivation WHERE status = 'ABORTED' \
         GROUP BY pairkey ORDER BY pairkey LIMIT 10",
    );

    show(
        "which receptors were blacklisted by the Hg rule?",
        "SELECT pairkey FROM hactivation WHERE status = 'BLACKLISTED' ORDER BY pairkey LIMIT 10",
    );

    show(
        "how was work spread over VM types?",
        "SELECT m.instancetype, count(*) FROM hactivation t, hmachine m \
         WHERE t.vmid = m.vmid GROUP BY m.instancetype ORDER BY m.instancetype",
    );

    // the same questions through the typed steering API
    println!("-- typed steering API (provenance::steering) --");
    for s in provenance::steering::status_summary(&prov).unwrap() {
        println!("   {:<12} {}", s.status, s.count);
    }
    println!("   slowest activations:");
    for s in provenance::steering::slowest_activations(&prov, 3).unwrap() {
        println!("     {} on {}: {:.1} s", s.activity, s.pair_key, s.seconds);
    }
    for (tag, n) in provenance::steering::failures_by_activity(&prov).unwrap() {
        println!("   {tag}: {n} failed attempts");
    }
    let last_hour = provenance::steering::activations_since(&prov, report.tet_s - 3600.0).unwrap();
    println!("   activations ending in the last hour: {}", last_hour.len());
    let per_hour = provenance::steering::throughput(&prov, 3600.0).unwrap();
    println!("   finished per hour, first hours: {:?}", &per_hour[..per_hour.len().min(4)]);
    let retried = provenance::steering::problematic_pairs(&prov, 2).unwrap();
    println!("   pairs retried ≥2 times: {}", retried.len());
    println!(
        "   recorded data volume: {:.1} GB",
        provenance::steering::data_volume_bytes(&prov).unwrap() / 1e9
    );

    // export the whole provenance graph as W3C PROV-N (first lines)
    let provn = provenance::export_provn(&prov);
    println!("\n-- W3C PROV-N export (first 6 lines of {} total) --", provn.lines().count());
    for line in provn.lines().take(6) {
        println!("   {line}");
    }
}
