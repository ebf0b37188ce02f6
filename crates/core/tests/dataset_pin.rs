//! The generated Table 2 dataset, pinned: the PDB text of all 238
//! receptors and the SDF text of all 42 ligands, as `stage_inputs` writes
//! them at `DatasetParams::default()`. Every figure and table of the paper's
//! real-docking experiments (Table 3, §V.D, Query 2) is computed from these
//! bytes, so a change to the generator (`molkit::synth`) or to the random
//! streams under it (`shims/rand`, `shims/rand_chacha`) fails here by name
//! instead of silently moving those results. A deliberate change re-pins
//! both values and re-measures every table EXPERIMENTS.md reports.

use cumulus::digest;
use molkit::formats::{pdb, sdf};
use scidock::dataset::{make_ligand, make_receptor, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};

/// One digest over the texts in order: the XXH64 of their XXH64s.
fn digest_of(texts: impl Iterator<Item = String>) -> u64 {
    let digests: Vec<u8> = texts.flat_map(|text| digest(text.as_bytes()).to_le_bytes()).collect();
    digest(&digests)
}

#[test]
fn the_generated_receptors_and_ligands_are_pinned() {
    let params = DatasetParams::default();
    let receptors = digest_of(
        RECEPTOR_IDS.iter().map(|id| pdb::write_pdb(&make_receptor(id, &params).structure)),
    );
    let ligands = digest_of(
        LIGAND_CODES.iter().map(|code| sdf::write_sdf(&make_ligand(code, &params).structure)),
    );
    assert_eq!(
        (format!("{receptors:016x}"), format!("{ligands:016x}")),
        ("131d360949565cc1".to_string(), "74b3947ef0fda7e6".to_string()),
        "the generated dataset changed: receptors, ligands"
    );
}
