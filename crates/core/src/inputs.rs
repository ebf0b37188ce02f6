//! Staging a screen's inputs: each receptor's PDB and each ligand's SDF
//! under `<expdir>/input`, and the `(receptor, ligand, pdb_file, sdf_file)`
//! relation over their cross product.
//!
//! There is one staging path; what varies is where a file's contents come
//! from.
//!
//! * [`stage_inputs`] renders the structures of a generated [`Dataset`],
//!   and the store digests every text it takes.
//! * An [`InputCatalog`] renders each Table 2 id's structure once per
//!   process, as a [`Blob`], on first use. Every later staging hands the
//!   store that same allocation: no generation, no render, no digest. A
//!   process that outlives campaigns (`scidockd`'s resolver) owns one, beside
//!   its one [`ReceptorCache`](crate::ReceptorCache). It holds at most one
//!   blob per id: 238 receptors and 42 ligands.

use std::sync::OnceLock;

use cumulus::workflow::{Blob, FileStore};
use cumulus::Relation;
use molkit::formats::{pdb, sdf};

use crate::dataset::{
    make_ligand, make_receptor, Dataset, DatasetParams, LIGAND_CODES, RECEPTOR_IDS,
};

/// Which side of a pair a staged file belongs to.
#[derive(Clone, Copy)]
enum Side {
    Receptor,
    Ligand,
}

/// The one staging path: `put(side, i, path)` writes the `i`-th receptor's
/// PDB or ligand's SDF at `path`, receptors first; then the input relation,
/// receptor-major.
fn stage(
    receptors: &[&str],
    ligands: &[&str],
    expdir: &str,
    mut put: impl FnMut(Side, usize, &str),
) -> Relation {
    let dir = format!("{}/input", expdir.trim_end_matches('/'));
    let pdb_path = |id: &str| format!("{dir}/{id}.pdb");
    let sdf_path = |code: &str| format!("{dir}/{code}.sdf");
    for (i, id) in receptors.iter().enumerate() {
        put(Side::Receptor, i, &pdb_path(id));
    }
    for (i, code) in ligands.iter().enumerate() {
        put(Side::Ligand, i, &sdf_path(code));
    }
    let mut rel = Relation::new(&["receptor", "ligand", "pdb_file", "sdf_file"]);
    for r in receptors {
        for l in ligands {
            rel.push(vec![(*r).into(), (*l).into(), pdb_path(r).into(), sdf_path(l).into()]);
        }
    }
    rel
}

/// Stage the dataset's raw structure files into the shared store and build
/// the workflow input relation: `(receptor, ligand, pdb_file, sdf_file)`.
pub fn stage_inputs(ds: &Dataset, files: &FileStore, expdir: &str) -> Relation {
    let ids: Vec<&str> = ds.receptors.iter().map(|r| r.id.as_str()).collect();
    let codes: Vec<&str> = ds.ligands.iter().map(|l| l.code.as_str()).collect();
    stage(&ids, &codes, expdir, |side, i, path| {
        let text = match side {
            Side::Receptor => pdb::write_pdb(&ds.receptors[i].structure),
            Side::Ligand => sdf::write_sdf(&ds.ligands[i].structure),
        };
        files.write(path, text);
    })
}

/// Every Table 2 input this process has staged, each rendered once: see
/// the module docs. Structures are generated with
/// [`DatasetParams::default`].
#[derive(Debug)]
pub struct InputCatalog {
    /// By position in [`RECEPTOR_IDS`].
    receptors: Vec<OnceLock<Blob>>,
    /// By position in [`LIGAND_CODES`].
    ligands: Vec<OnceLock<Blob>>,
}

impl Default for InputCatalog {
    fn default() -> InputCatalog {
        InputCatalog {
            receptors: RECEPTOR_IDS.iter().map(|_| OnceLock::new()).collect(),
            ligands: LIGAND_CODES.iter().map(|_| OnceLock::new()).collect(),
        }
    }
}

impl InputCatalog {
    /// Stage `receptors` × `ligands` into `files`: the same paths, bytes and
    /// relation as [`stage_inputs`] over `Dataset::subset` of these ids with
    /// default parameters. An id's first staging renders its
    /// structure, which the store digests; the catalog keeps the store's
    /// blob, and every later staging writes that blob. `None` when an id is
    /// not one of Table 2's.
    pub fn stage(
        &self,
        receptors: &[&str],
        ligands: &[&str],
        files: &FileStore,
        expdir: &str,
    ) -> Option<Relation> {
        let positions = |table: &[&str], ids: &[&str]| -> Option<Vec<usize>> {
            ids.iter().map(|id| table.iter().position(|t| t == id)).collect()
        };
        let rs = positions(&RECEPTOR_IDS, receptors)?;
        let ls = positions(&LIGAND_CODES, ligands)?;
        let params = DatasetParams::default();
        Some(stage(receptors, ligands, expdir, |side, i, path| match side {
            Side::Receptor => put(&self.receptors[rs[i]], files, path, || {
                pdb::write_pdb(&make_receptor(receptors[i], &params).structure)
            }),
            Side::Ligand => put(&self.ligands[ls[i]], files, path, || {
                sdf::write_sdf(&make_ligand(ligands[i], &params).structure)
            }),
        }))
    }

    /// Receptors and ligands rendered so far.
    #[cfg(test)]
    fn len(&self) -> (usize, usize) {
        let filled = |cells: &[OnceLock<Blob>]| cells.iter().filter(|c| c.get().is_some()).count();
        (filled(&self.receptors), filled(&self.ligands))
    }
}

/// Write `cell`'s blob at `path`, rendering it into the store first if the
/// cell is empty.
fn put(cell: &OnceLock<Blob>, files: &FileStore, path: &str, render: impl FnOnce() -> String) {
    let mut rendered = false;
    let blob = cell.get_or_init(|| {
        rendered = true;
        files.write(path, render())
    });
    if !rendered {
        files.write(path, blob.clone());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    const EXPDIR: &str = "/exp/screen";

    /// Stage through `catalog`, check the staging against `stage_inputs`
    /// over a freshly generated dataset, and return the store.
    fn staged(catalog: &InputCatalog, receptors: &[&str], ligands: &[&str]) -> FileStore {
        let files = FileStore::new();
        let rel = catalog.stage(receptors, ligands, &files, EXPDIR).expect("Table 2 ids");
        let fresh = FileStore::new();
        let ds = Dataset::subset(receptors, ligands, DatasetParams::default());
        let want = stage_inputs(&ds, &fresh, EXPDIR);
        assert_eq!((&rel.columns, &rel.tuples), (&want.columns, &want.tuples));
        let paths = files.list("/");
        assert_eq!(paths, fresh.list("/"));
        for p in &paths {
            assert_eq!(files.read(p).map(|b| b.to_string()), fresh.read(p).map(|b| b.to_string()));
        }
        files
    }

    fn bytes(files: &FileStore, paths: &[String]) -> u64 {
        paths.iter().map(|p| files.size(p).expect("staged")).sum()
    }

    /// Two overlapping subsets through one catalog: each staging equals
    /// `stage_inputs`; the second digests only the ids it is first to stage
    /// and stages the shared ids as the first's allocations; a repeat of the
    /// first renders and digests nothing. The catalog holds one entry per
    /// distinct id.
    #[test]
    fn a_catalog_stages_by_reference_what_stage_inputs_renders() {
        let catalog = InputCatalog::default();
        assert_eq!(catalog.len(), (0, 0));
        let a = staged(&catalog, &["1AEC", "1AIM"], &["042", "074"]);
        assert_eq!(a.take_digest_bytes(), bytes(&a, &a.list("/")), "a first staging digests all");

        let b = staged(&catalog, &["1AIM", "1ATK"], &["074", "0D6"]);
        let input = |name: &str| format!("{EXPDIR}/input/{name}");
        let new = [input("1ATK.pdb"), input("0D6.sdf")];
        assert_eq!(b.take_digest_bytes(), bytes(&b, &new), "only the ids new to the catalog");
        for shared in [input("1AIM.pdb"), input("074.sdf")] {
            let (x, y) = (a.read(&shared).expect("staged"), b.read(&shared).expect("staged"));
            assert!(Arc::ptr_eq(x.text(), y.text()), "{shared} is one allocation");
        }

        let again = staged(&catalog, &["1AEC", "1AIM"], &["042", "074"]);
        assert_eq!(again.take_digest_bytes(), 0, "a repeat renders and digests nothing");
        for p in a.list("/") {
            let (x, y) = (a.read(&p).expect("staged"), again.read(&p).expect("staged"));
            assert!(Arc::ptr_eq(x.text(), y.text()), "{p} is one allocation");
        }
        assert_eq!(catalog.len(), (3, 3), "one entry per distinct id");
        assert!(catalog.stage(&["NOPE"], &["042"], &FileStore::new(), EXPDIR).is_none());
        assert!(catalog.stage(&["1AEC"], &["NOPE"], &FileStore::new(), EXPDIR).is_none());
    }
}
