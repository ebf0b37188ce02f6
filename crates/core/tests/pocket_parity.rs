//! The pruned pocket search against the brute-force scan on every Table 2
//! receptor: the molecule the docking engine searches and the parsed PDBQT
//! the grid builds search, at the benchmark's probe radius and two others.
//! Centres must agree bit for bit, lining counts exactly.
//!
//! Ignored in the default run (the scan takes ~30 ms per receptor in
//! release); `ci.sh` runs it:
//!
//! ```sh
//! cargo test --release -p scidock --test pocket_parity -- --ignored
//! ```

use std::time::{Duration, Instant};

use cumulus::Blob;
use molkit::formats::{pdb, pdbqt};
use molkit::geometry::{find_pocket, find_pocket_reference, Pocket};
use scidock::dataset::{make_receptor, DatasetParams, RECEPTOR_IDS};
use scidock::receptors::ReceptorCache;
use telemetry::Telemetry;

fn bits(p: Option<Pocket>) -> Option<([u64; 3], usize)> {
    p.map(|p| ([p.center.x, p.center.y, p.center.z].map(f64::to_bits), p.lining_atoms))
}

#[test]
#[ignore = "the brute-force scan over 238 receptors; run in release"]
fn pruned_search_matches_the_scan_on_every_table_2_receptor() {
    let params = DatasetParams::default();
    let tier = ReceptorCache::default();
    let tel = Telemetry::disabled();
    let (mut pruned, mut scan) = (Duration::ZERO, Duration::ZERO);
    let mut searches = 0;
    for id in RECEPTOR_IDS {
        let raw = make_receptor(id, &params).structure;
        let pdb_text = Blob::new(pdb::write_pdb(&raw));
        let Ok(prepared) = tier.prepared(&pdb_text, id, &tel) else {
            panic!("{id}: preparation failed");
        };
        let parsed = pdbqt::read_receptor_pdbqt(&prepared.pdbqt).unwrap();
        for (form, mol) in [("structure", &raw), ("pdbqt", &parsed)] {
            for radius in [8.0, 9.0, 10.0] {
                let start = Instant::now();
                let got = find_pocket(mol, radius);
                pruned += start.elapsed();
                let start = Instant::now();
                let want = find_pocket_reference(mol, radius);
                scan += start.elapsed();
                assert!(want.is_some(), "{id} {form} at {radius}: no pocket");
                assert_eq!(bits(got), bits(want), "{id} {form} at {radius}");
                searches += 1;
            }
        }
    }
    eprintln!(
        "{searches} searches: pruned {:.2} ms, scan {:.2} ms per search",
        pruned.as_secs_f64() * 1e3 / searches as f64,
        scan.as_secs_f64() * 1e3 / searches as f64
    );
}
