//! The three ligand decoders the receptor tier memoises — `read_sdf`
//! (activity 1), `read_mol2` (activity 2) and `read_ligand_pdbqt`
//! (activities 4, 5 and 8) — and the two receptor decoders — `read_pdb`
//! (the Hg screen and activity 3) and `read_receptor_pdbqt` (the grid
//! build) — answer any text with a molecule or a typed `ParseError`, never
//! a panic: a staged input that panics its decoder kills the worker thread
//! that ran it.
//!
//! Inputs are random byte strings and seeded damage to every Table 2
//! ligand's three texts and every Table 2 receptor's two: truncation, a
//! byte replaced (non-ASCII bytes included), a byte inserted, a line
//! dropped, doubled or swapped with the next, a number's digit changed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cumulus::Blob;
use molkit::formats::{mol2, pdb, pdbqt, sdf, ParseError};
use provenance::codec::testing::Gen;
use scidock::dataset::{make_ligand, make_receptor, DatasetParams, LIGAND_CODES, RECEPTOR_IDS};
use scidock::receptors::ReceptorCache;
use telemetry::Telemetry;

/// Damaged copies decoded per ligand text.
const MUTATIONS: usize = 200;

/// Damaged copies decoded per receptor text: a receptor's texts are 20–50
/// times a ligand's.
const RECEPTOR_MUTATIONS: usize = 12;

type Decoder = fn(&str) -> Result<(), ParseError>;

/// The ligand decoders, in the order of a [`corpus`] entry's texts, then
/// the receptor decoders, in the order of a [`receptor_corpus`] entry's.
const DECODERS: [(&str, Decoder); 5] = [
    ("sdf", |t| sdf::read_sdf(t).map(drop)),
    ("mol2", |t| mol2::read_mol2(t).map(drop)),
    ("pdbqt", |t| pdbqt::read_ligand_pdbqt(t).map(drop)),
    ("pdb", |t| pdb::read_pdb(t).map(drop)),
    ("receptor pdbqt", |t| pdbqt::read_receptor_pdbqt(t).map(drop)),
];

/// The index in [`DECODERS`] of the first receptor decoder.
const RECEPTOR: usize = 3;

/// Every Table 2 ligand as SDF, MOL2 and ligand PDBQT, prepared the way
/// activities 1 and 2 prepare it.
fn corpus() -> Vec<[String; 3]> {
    let params = DatasetParams::default();
    let tier = ReceptorCache::default();
    let tel = Telemetry::disabled();
    LIGAND_CODES
        .iter()
        .map(|code| {
            let sdf_text = Blob::new(sdf::write_sdf(&make_ligand(code, &params).structure));
            let mol2_text = tier.mol2(&sdf_text, &tel).unwrap();
            let prepared = tier.prepared_ligand(&mol2_text, &tel).unwrap();
            [&sdf_text, &mol2_text, &prepared.pdbqt].map(|b| b.to_string())
        })
        .collect()
}

/// Every Table 2 receptor as PDB and prepared receptor PDBQT, prepared the
/// way activity 3 prepares it.
fn receptor_corpus() -> Vec<[String; 2]> {
    let params = DatasetParams::default();
    let tier = ReceptorCache::default();
    let tel = Telemetry::disabled();
    RECEPTOR_IDS
        .iter()
        .map(|id| {
            let pdb_text = Blob::new(pdb::write_pdb(&make_receptor(id, &params).structure));
            let prepared = tier.prepared(&pdb_text, id, &tel).unwrap();
            [&pdb_text, &prepared.pdbqt].map(|b| b.to_string())
        })
        .collect()
}

/// Decode `text` with decoder `which`: `Ok(true)` for a molecule,
/// `Ok(false)` for a parse error, `Err` for a panic.
fn decode(which: usize, text: &str) -> Result<bool, String> {
    let (name, decoder) = DECODERS[which];
    catch_unwind(AssertUnwindSafe(|| decoder(text).is_ok()))
        .map_err(|_| format!("{name} decoder panicked on {text:?}"))
}

/// Damage `text` once.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut lines: Vec<&str> = text.lines().collect();
    let pick = |g: &mut Gen, n: usize| g.below(n.max(1));
    match g.below(7) {
        0 => bytes.truncate(g.below(bytes.len() + 1)),
        1 if !bytes.is_empty() => {
            let at = pick(g, bytes.len());
            bytes[at] = g.u8();
        }
        2 => {
            let at = g.below(bytes.len() + 1);
            bytes.insert(at, g.u8());
        }
        3..=5 if !lines.is_empty() => {
            let at = pick(g, lines.len());
            match g.below(3) {
                0 => {
                    lines.remove(at);
                }
                1 => {
                    let line = lines[at];
                    lines.insert(at, line);
                }
                _ => {
                    let next = (at + 1).min(lines.len() - 1);
                    lines.swap(at, next);
                }
            }
            bytes = lines.join("\n").into_bytes();
        }
        _ => {
            let digits: Vec<usize> =
                (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
            if !digits.is_empty() {
                let at = digits[pick(g, digits.len())];
                bytes[at] = b"0123456789-. "[g.below(13)];
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decode `mutations` damaged copies of every text of `corpus`, text `i`
/// of an entry with decoder `first + i`, damage drawn from `seed`: a panic
/// fails the test, and each decoder must refuse more than a tenth of its
/// copies, so the damage reaches its error paths, not only its happy one.
fn damaged_copies_never_panic<const N: usize>(
    corpus: &[[String; N]],
    first: usize,
    mutations: usize,
    seed: u64,
) {
    let mut g = Gen::new(seed);
    let mut refused = [0usize; N];
    for texts in corpus {
        for (i, text) in texts.iter().enumerate() {
            let mut damaged = text.clone();
            for _ in 0..mutations {
                // half the time damage the damaged copy again
                let base = if g.bool() { damaged.as_str() } else { text.as_str() };
                damaged = mutate(&mut g, base);
                refused[i] += usize::from(!decode(first + i, &damaged).unwrap());
            }
        }
    }
    let total = corpus.len() * mutations;
    for (i, refused) in refused.iter().enumerate() {
        assert!(*refused > total / 10, "{}: {refused} of {total} refused", DECODERS[first + i].0);
    }
}

#[test]
fn the_corpus_decodes() {
    for texts in corpus() {
        for (which, text) in texts.iter().enumerate() {
            assert_eq!(decode(which, text), Ok(true), "{}", DECODERS[which].0);
        }
    }
}

#[test]
fn the_receptor_corpus_decodes() {
    for texts in receptor_corpus() {
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(decode(RECEPTOR + i, text), Ok(true), "{}", DECODERS[RECEPTOR + i].0);
        }
    }
}

#[test]
fn damaged_ligand_files_are_decoded_or_refused_never_a_panic() {
    damaged_copies_never_panic(&corpus(), 0, MUTATIONS, 0x11_6A4D);
}

#[test]
fn damaged_receptor_files_are_decoded_or_refused_never_a_panic() {
    damaged_copies_never_panic(&receptor_corpus(), RECEPTOR, RECEPTOR_MUTATIONS, 0x2EC_E970);
}

#[test]
fn random_bytes_are_decoded_or_refused_never_a_panic() {
    let mut g = Gen::new(0xB17E5);
    for _ in 0..4000 {
        let len = g.below(400);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match g.below(4) {
                // mostly the decoders' own alphabet, so lines get past the
                // first check
                0 => b" \n.-0123456789"[g.below(14)],
                1 => b"ATOMHETROBRANCHEND@<TRIPOS>MOLECULE$V2000"[g.below(40)],
                _ => g.u8(),
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        for which in 0..DECODERS.len() {
            decode(which, &text).unwrap();
        }
    }
}
