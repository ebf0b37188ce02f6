//! Everything that is a pure function of one input's bytes, computed once
//! per process: for a receptor the Hg screen, `prepare_receptor4`, the
//! pocket, grid load/build and `.map` rendering; for a ligand activities 1
//! and 2 and the parse activities 4, 5 and 8 share.
//!
//! A screening campaign is a cross product, so every receptor-side step is
//! the same computation repeated per ligand, every ligand-side step the same
//! computation repeated per receptor — and, on an always-on daemon, per
//! campaign. One type keeps it to once: [`ReceptorCache`], a bounded,
//! shareable memory tier with an owner and, if the owner gives it one, an
//! on-disk directory of grid sets beneath it. Whoever outlives campaigns
//! creates one and puts it in every [`SciDockConfig`](crate::SciDockConfig)
//! it resolves (`scidockd`'s resolver, a `scidock-worker` process); a
//! one-shot run keeps its own. It is never a global.
//!
//! What is keyed by what — always content, never a path, and a name only
//! where the output text carries it. A content's digest is the one its
//! [`Blob`] took when it was made (staged, prepared or rendered), so a
//! lookup hashes nothing:
//!
//! | entry | key |
//! |-------|-----|
//! | grid set | [`grid_key`] (every map-shaping knob + the receptor PDBQT's digest) |
//! | `.map` files (rendered on read) | grid key × receptor name (the header names the receptor) |
//! | parsed receptor (Hg answer + molecule) | the PDB text's digest |
//! | prepared PDBQT + heavy-atom count | PDB digest × receptor name (the `NAME` record) |
//! | binding pocket | receptor PDBQT digest × probe radius |
//! | ligand MOL2 (activity 1) | the SDF text's digest |
//! | ligand PDBQT + `torsdof` (activity 2) | the MOL2 text's digest |
//! | parsed ligand (activities 4, 5, 8) | the ligand PDBQT's digest |
//!
//! Lookups of one key are **single flight**: the key's cell is locked while
//! its value is computed, so racing activations wait for one load, build,
//! parse or rendering instead of each doing their own. A failed computation
//! is not memoised. Each such wait is counted (`receptor.waits`) and timed
//! (`receptor.wait`): the engine's affinity dispatch exists to keep them
//! near zero.
//!
//! The tier is **LRU by resident bytes** against `TIER_BUDGET_BYTES`.
//! Eviction only drops the tier's reference: activations and file stores
//! holding the `Arc`s are unaffected, and the next lookup falls through to
//! disk or a rebuild with bit-identical results. A grid set's map files
//! print from it, so they leave with it: the tier holds no grid set it
//! does not charge.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use cumulus::workflow::{digest, ActivityError, Blob, FileStore};
use docking::autogrid::GridSet;
use docking::engine::{DockConfig, EngineKind};
use docking::gridio::grid_key_header;
use molkit::charges::assign_gasteiger;
use molkit::formats::pdbqt::PdbqtLigand;
use molkit::formats::{mol2, pdb, pdbqt, sdf};
use molkit::geometry::{find_pocket, Pocket};
use molkit::torsion::build_torsion_tree;
use molkit::typer::{assign_ad_types, merge_nonpolar_hydrogens};
use molkit::{Element, Molecule};
use telemetry::Telemetry;

/// Resident bytes (grid values, prepared texts, map files' names, the atoms
/// and bonds of parsed molecules) a tier keeps before evicting its least
/// recently used entries. At the paper's grid settings (1.0 Å, 20 Å box) a
/// receptor is ≈ 1.6 MB on average in adaptive mode (its AD4 grid set, 1.04
/// MB, for all; a Vina one, 0.89 MB, for the 123 of 238 above the size
/// threshold), so its 238 receptors are ≈ 0.38 GB, which an always-on daemon
/// must not pin; this holds about 165 of them.
const TIER_BUDGET_BYTES: u64 = 256 << 20;

/// What an entry is and what identifies it (the module table): a content
/// digest, and the receptor name where the cached text carries it.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Grids(u64),
    Maps(u64, String),
    Receptor(u64),
    Pdbqt(u64, String),
    /// Receptor PDBQT digest × the probe radius's bits.
    Pocket(u64, u64),
    Mol2(u64),
    LigandPdbqt(u64),
    Ligand(u64),
}

/// One key's cell. Its lock is held while the value is computed, so racing
/// askers of the key wait for one computation. The key's variant fixes the
/// value's type.
type Slot = Mutex<Option<Arc<dyn Any + Send + Sync>>>;

struct Held {
    slot: Arc<Slot>,
    /// Charged against the budget; 0 until the slot is filled.
    bytes: u64,
    /// Tick of the last lookup (ticks are unique, so this orders entries).
    used: u64,
}

#[derive(Default)]
struct State {
    held: HashMap<Key, Held>,
    resident: u64,
    clock: u64,
}

struct Tier {
    budget: u64,
    /// Where grid sets persist as `<key>.grid` entries, if anywhere.
    dir: Option<PathBuf>,
    state: Mutex<State>,
}

/// Every receptor- and ligand-derived value this process has computed and
/// still holds, shared by each workflow built from a config that carries
/// this handle, over an optional on-disk directory of grid sets
/// ([`ReceptorCache::on_disk`]). `Clone` shares the tier; `Default` makes a
/// fresh private one with no directory.
#[derive(Clone)]
pub struct ReceptorCache(Arc<Tier>);

/// The name the benchmark's layer suite still uses for [`ReceptorCache`].
#[doc(hidden)]
pub type GridCache = ReceptorCache;

impl Default for ReceptorCache {
    fn default() -> Self {
        ReceptorCache::with_budget(TIER_BUDGET_BYTES)
    }
}

impl fmt::Debug for ReceptorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.0.state.lock();
        f.debug_struct("ReceptorCache")
            .field("dir", &self.0.dir)
            .field("entries", &st.held.len())
            .field("resident_bytes", &st.resident)
            .field("budget_bytes", &self.0.budget)
            .finish()
    }
}

/// `text` as a [`Blob`], its digest counted as `files.digest_bytes`.
fn digested(text: impl Into<Arc<str>>, tel: &Telemetry) -> Blob {
    let blob = Blob::new(text);
    tel.count("files.digest_bytes", blob.len() as u64);
    blob
}

/// Activity 3's output for one (receptor content, receptor name).
pub struct Prepared {
    /// The receptor PDBQT text, digested once here and staged by reference
    /// by every activation.
    pub pdbqt: Blob,
    /// Heavy atoms, the activity-6 size filter's input.
    pub heavy_atoms: usize,
}

/// Activity 2's output for one MOL2 content.
pub struct PreparedLigand {
    /// The ligand PDBQT text, digested once here and staged by reference by
    /// every activation.
    pub pdbqt: Blob,
    /// Its torsional degrees of freedom, recorded per activation.
    pub torsdof: usize,
}

/// `f()`, its wall time recorded in nanoseconds into the histogram `name`.
fn timed<T>(tel: &Telemetry, name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(h) = tel.histogram(name) {
        h.record(start.elapsed().as_nanos() as u64);
    }
    out
}

/// What a parsed molecule holds on the heap: its atoms, bonds and name
/// strings.
fn molecule_bytes(mol: &Molecule) -> u64 {
    let names: usize = mol.atoms.iter().map(|a| a.name.capacity() + a.res_name.capacity()).sum();
    (size_of_val(&mol.atoms[..]) + size_of_val(&mol.bonds[..]) + names) as u64
}

/// A receptor PDB parsed once: the Hg rule's answer, and the molecule
/// activity 3 formats per receptor name.
struct Receptor {
    has_hg: bool,
    /// The molecule and whether it is typed and charged yet: preparation
    /// waits for activity 3, so a blacklisted receptor is only ever parsed.
    mol: Mutex<(Molecule, bool)>,
}

impl ReceptorCache {
    fn with_budget(budget: u64) -> ReceptorCache {
        ReceptorCache(Arc::new(Tier { budget, dir: None, state: Mutex::default() }))
    }

    /// A fresh tier whose grid sets also persist in `dir`, as `<key>.grid`
    /// entries shared across runs, campaigns and the processes of one
    /// machine.
    pub fn on_disk(dir: impl Into<PathBuf>) -> ReceptorCache {
        let (budget, dir) = (TIER_BUDGET_BYTES, Some(dir.into()));
        ReceptorCache(Arc::new(Tier { budget, dir, state: Mutex::default() }))
    }

    /// [`ReceptorCache::on_disk`] under the name and arguments the
    /// benchmark's layer suite calls; the file store is not used.
    #[doc(hidden)]
    pub fn persistent(dir: impl Into<PathBuf>, _files: Arc<FileStore>) -> ReceptorCache {
        ReceptorCache::on_disk(dir)
    }

    /// Does the staged receptor PDB `pdb` contain mercury? One parse per
    /// content (counted by `receptor.hg_screened`) answers every pair and
    /// feeds [`ReceptorCache::prepared`]. A text that does not parse is not
    /// remembered and answers `false`: activity 3 reports the error.
    pub fn has_hg(&self, pdb: &Blob, tel: &Telemetry) -> bool {
        self.receptor(pdb, tel).is_ok_and(|r| r.has_hg)
    }

    /// `prepare_receptor4` of the staged PDB `pdb` as receptor `name`:
    /// typed, charged and formatted once per (content, name) — counted by
    /// `receptor.prepared`, later calls by `receptor.prep.hit` — from the one
    /// parse [`ReceptorCache::has_hg`] shares.
    pub fn prepared(
        &self,
        pdb: &Blob,
        name: &str,
        tel: &Telemetry,
    ) -> Result<Arc<Prepared>, ActivityError> {
        let (prepared, computed) =
            self.get_or_try(Key::Pdbqt(pdb.digest(), name.to_string()), tel, || {
                let receptor = self.receptor(pdb, tel)?;
                let mut guard = receptor.mol.lock();
                let (mol, ready) = &mut *guard;
                if !*ready {
                    assign_ad_types(mol);
                    assign_gasteiger(mol, &Default::default());
                    *ready = true;
                }
                mol.name = name.to_string();
                let pdbqt = digested(pdbqt::write_receptor_pdbqt(mol), tel);
                let bytes = pdbqt.len() as u64;
                Ok((Prepared { pdbqt, heavy_atoms: mol.heavy_atom_count() }, bytes))
            })?;
        tel.count(if computed { "receptor.prepared" } else { "receptor.prep.hit" }, 1);
        Ok(prepared)
    }

    /// The one place a receptor PDB is parsed, for the rule and for
    /// activity 3 alike.
    fn receptor(&self, pdb: &Blob, tel: &Telemetry) -> Result<Arc<Receptor>, ActivityError> {
        let (receptor, _) = self.get_or_try(Key::Receptor(pdb.digest()), tel, || {
            tel.count("receptor.hg_screened", 1);
            let mol = pdb::read_pdb(pdb).map_err(|e| ActivityError(format!("pdb: {e}")))?;
            let has_hg = mol.contains_element(Element::Hg);
            let bytes = molecule_bytes(&mol);
            Ok((Receptor { has_hg, mol: Mutex::new((mol, false)) }, bytes))
        })?;
        Ok(receptor)
    }

    /// The binding pocket of the receptor PDBQT `pdbqt` at `probe_radius`,
    /// searched once per (content, radius) — counted by
    /// `receptor.pocket.searched` — from the molecule `receptor` the caller
    /// parsed from it, so the AD4 and Vina grid builds share one search.
    fn pocket(
        &self,
        pdbqt: &Blob,
        receptor: &Molecule,
        probe_radius: f64,
        tel: &Telemetry,
    ) -> Result<Pocket, ActivityError> {
        let key = Key::Pocket(pdbqt.digest(), probe_radius.to_bits());
        let (pocket, _) = self.get_or_try(key, tel, || {
            tel.count("receptor.pocket.searched", 1);
            let pocket = timed(tel, "receptor.pocket", || find_pocket(receptor, probe_radius))
                .ok_or_else(|| ActivityError("no binding pocket detected".into()))?;
            Ok((pocket, size_of::<Pocket>() as u64))
        })?;
        Ok(*pocket)
    }

    /// Activity 1 (`babel`): the staged SDF `sdf` as MOL2 text, converted
    /// and digested once per content.
    pub fn mol2(&self, sdf: &Blob, tel: &Telemetry) -> Result<Blob, ActivityError> {
        let (mol2, _) = self.get_or_try(Key::Mol2(sdf.digest()), tel, || {
            let mol = sdf::read_sdf(sdf).map_err(|e| ActivityError(format!("sdf: {e}")))?;
            let mol2 = digested(mol2::write_mol2(&mol), tel);
            let bytes = mol2.len() as u64;
            Ok((mol2, bytes))
        })?;
        Ok(Blob::clone(&mol2))
    }

    /// Activity 2 (`prepare_ligand4`) of the staged MOL2 `mol2`: typed,
    /// charged, hydrogen-merged and formatted once per content — counted by
    /// `ligand.prepared`, later calls by `ligand.prep.hit`.
    pub fn prepared_ligand(
        &self,
        mol2: &Blob,
        tel: &Telemetry,
    ) -> Result<Arc<PreparedLigand>, ActivityError> {
        let (prepared, computed) = self.get_or_try(Key::LigandPdbqt(mol2.digest()), tel, || {
            let mut mol = mol2::read_mol2(mol2).map_err(|e| ActivityError(format!("mol2: {e}")))?;
            assign_ad_types(&mut mol);
            assign_gasteiger(&mut mol, &Default::default());
            merge_nonpolar_hydrogens(&mut mol);
            let tree = build_torsion_tree(&mol);
            let torsdof = tree.torsdof();
            let pdbqt = digested(pdbqt::write_ligand_pdbqt(&PdbqtLigand { mol, tree }), tel);
            let bytes = pdbqt.len() as u64;
            Ok((PreparedLigand { pdbqt, torsdof }, bytes))
        })?;
        tel.count(if computed { "ligand.prepared" } else { "ligand.prep.hit" }, 1);
        Ok(prepared)
    }

    /// The staged ligand PDBQT `pdbqt`, parsed once per content for every
    /// activity that reads it.
    pub fn ligand(&self, pdbqt: &Blob, tel: &Telemetry) -> Result<Arc<PdbqtLigand>, ActivityError> {
        let (ligand, _) = self.get_or_try(Key::Ligand(pdbqt.digest()), tel, || {
            let lig = pdbqt::read_ligand_pdbqt(pdbqt)
                .map_err(|e| ActivityError(format!("ligand pdbqt: {e}")))?;
            let tree = &lig.tree;
            let moved: usize = tree.branches.iter().map(|b| size_of_val(&b.moved[..])).sum();
            let bytes = molecule_bytes(&lig.mol)
                + (size_of_val(&tree.root[..]) + size_of_val(&tree.branches[..]) + moved) as u64;
            Ok((lig, bytes))
        })?;
        Ok(ligand)
    }

    /// Bytes resident in the tier, as `gridcache.resident_bytes` samples
    /// them after every insert.
    pub fn resident_bytes(&self) -> u64 {
        self.0.state.lock().resident
    }

    /// Grid sets resident in the tier.
    pub fn grid_sets(&self) -> usize {
        self.filled(|k| matches!(k, Key::Grids(_)))
    }

    /// Parsed receptors resident in the tier.
    pub fn receptors(&self) -> usize {
        self.filled(|k| matches!(k, Key::Receptor(_)))
    }

    fn filled(&self, kind: impl Fn(&Key) -> bool) -> usize {
        self.0.state.lock().held.iter().filter(|(k, h)| h.bytes > 0 && kind(k)).count()
    }

    /// The value under `key`, computed by `fill` (which also says what it
    /// weighs) if the tier does not hold it; the flag is `true` for the one
    /// caller whose `fill` ran. A caller that finds the key's cell held by
    /// another is counted by `receptor.waits`, and its wait timed into the
    /// `receptor.wait` histogram (nanoseconds).
    fn get_or_try<T: Any + Send + Sync>(
        &self,
        key: Key,
        tel: &Telemetry,
        fill: impl FnOnce() -> Result<(T, u64), ActivityError>,
    ) -> Result<(Arc<T>, bool), ActivityError> {
        let slot = {
            let mut st = self.0.state.lock();
            st.clock += 1;
            let now = st.clock;
            let held = st.held.entry(key.clone()).or_insert_with(|| Held {
                slot: Arc::default(),
                bytes: 0,
                used: 0,
            });
            held.used = now;
            Arc::clone(&held.slot)
        };
        let mut cell = slot.try_lock().unwrap_or_else(|| {
            tel.count("receptor.waits", 1);
            let start = Instant::now();
            let cell = slot.lock();
            if let Some(h) = tel.histogram("receptor.wait") {
                h.record(start.elapsed().as_nanos() as u64);
            }
            cell
        });
        if let Some(value) = &*cell {
            let value = Arc::clone(value).downcast().expect("a key's variant fixes its value type");
            return Ok((value, false));
        }
        match fill() {
            Ok((value, bytes)) => {
                let value = Arc::new(value);
                *cell = Some(Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
                // charged before a waiter gets in: map files a waiter
                // renders over grids still at 0 bytes would be dropped
                self.charge(&key, &slot, bytes, tel);
                drop(cell);
                Ok((value, true))
            }
            Err(e) => {
                drop(cell);
                let mut st = self.0.state.lock();
                if st.held.get(&key).is_some_and(|h| Arc::ptr_eq(&h.slot, &slot)) {
                    st.held.remove(&key);
                }
                Err(e)
            }
        }
    }

    /// Account for a freshly filled slot, then evict least recently used
    /// entries until the tier is back under its budget (the new entry goes
    /// last, and goes too if it alone is over).
    fn charge(&self, key: &Key, slot: &Arc<Slot>, bytes: u64, tel: &Telemetry) {
        let bytes = bytes.max(1);
        let mut st = self.0.state.lock();
        // dropped by a failed fill this one waited behind, or with its grid
        // set: the value lives by its caller's reference only
        if !st.held.get(key).is_some_and(|held| Arc::ptr_eq(&held.slot, slot)) {
            return;
        }
        // map files rendered over a grid set the tier no longer holds (it
        // was evicted while they were rendered) would pin it uncharged
        if let Key::Maps(grids, _) = key {
            if st.held.get(&Key::Grids(*grids)).is_none_or(|held| held.bytes == 0) {
                st.held.remove(key);
                return;
            }
        }
        st.held.get_mut(key).expect("checked under this lock").bytes = bytes;
        st.resident += bytes;
        let mut evicted = 0;
        while st.resident > self.0.budget {
            // an unfilled slot (0 bytes) is a computation in flight
            let lru = st.held.iter().filter(|(_, h)| h.bytes > 0).min_by_key(|(_, h)| h.used);
            let Some(victim) = lru.map(|(k, _)| k.clone()) else { break };
            // a grid set's map files hold it: they go with it, filled or in
            // flight, so the tier keeps no grid set it does not charge
            let maps_of =
                |k: &Key| matches!((&victim, k), (Key::Grids(g), Key::Maps(m, _)) if g == m);
            let gone: Vec<Key> =
                st.held.keys().filter(|k| **k == victim || maps_of(k)).cloned().collect();
            for key in gone {
                let held = st.held.remove(&key).expect("found under this lock");
                st.resident -= held.bytes;
                evicted += u64::from(held.bytes > 0);
            }
        }
        let resident = st.resident;
        drop(st);
        if evicted > 0 {
            tel.count("gridcache.evicted", evicted);
        }
        tel.gauge("gridcache.resident_bytes", resident as f64);
    }
}

/// A grid set's AutoGrid output files, `(file name, text)` per map in
/// [`GridSet::maps`] order, digested when the set is made and shared by
/// every activation that stages them. Each text is a
/// [rendered](Blob::rendered) blob over the grid set: it exists only while
/// someone reads it.
pub type MapFiles = Arc<[(String, Blob)]>;

/// The cache key of the grid set built from a receptor PDBQT whose digest
/// is `pdbqt_digest`, under `engine` and `cfg`'s map-shaping knobs: the
/// [`digest`] of the knob header ([`grid_key_header`]) followed by the
/// content digest. It names the on-disk `<key>.grid` entry, so it must not
/// change from build to build.
pub fn grid_key(pdbqt_digest: u64, engine: EngineKind, cfg: &DockConfig) -> u64 {
    let mut key = grid_key_header(
        engine.program_name(),
        cfg.grid_spacing,
        cfg.box_edge,
        cfg.pocket_probe,
        &LIGAND_TYPE_SUPERSET,
    )
    .into_bytes();
    key.extend_from_slice(&pdbqt_digest.to_le_bytes());
    digest(&key)
}

/// Every AD type a generated ligand can contain — cached receptor grids
/// carry all of them so one AutoGrid run serves every ligand (exactly how
/// the real pipeline shares maps across a screening campaign).
const LIGAND_TYPE_SUPERSET: [molkit::AdType; 12] = [
    molkit::AdType::C,
    molkit::AdType::A,
    molkit::AdType::N,
    molkit::AdType::NA,
    molkit::AdType::OA,
    molkit::AdType::S,
    molkit::AdType::SA,
    molkit::AdType::HD,
    molkit::AdType::H,
    molkit::AdType::F,
    molkit::AdType::Cl,
    molkit::AdType::Br,
];

/// Monotonic temp-name counter so concurrent writers in one process never
/// collide on the same temp file (the pid separates processes).
static GRID_TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The on-disk entry of grid key `key` in `dir`.
fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.grid"))
}

/// The grid set persisted under `key` in `dir`, counted by
/// `gridcache.persist.hit` and `gridcache.persist.bytes`. A missing entry,
/// or a corrupt, torn or malformed one (a digest mismatch, a lattice its
/// map lines do not hold), is `None`: a rebuild, not a failed activation.
fn load_entry(dir: &Path, key: u64, tel: &Telemetry) -> Option<GridSet> {
    let text = std::fs::read_to_string(entry_path(dir, key)).ok()?;
    let grids = docking::gridio::deserialize_grid_set(&text).ok()?;
    tel.count("gridcache.persist.hit", 1);
    tel.count("gridcache.persist.bytes", text.len() as u64);
    Some(grids)
}

/// Atomically publish an entry on disk: write to a uniquely named temp
/// file, then rename over the final path (the `provenance::durable`
/// snapshot discipline). Racing writers produce identical bytes, so
/// whichever rename lands last is as good as the first; readers only ever
/// see a complete entry.
fn write_entry(dir: &Path, key: u64, text: &str) {
    if std::fs::create_dir_all(dir).is_err() {
        return; // persistence is best-effort; the build already succeeded
    }
    let seq = GRID_TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!("{key:016x}.grid.tmp.{}.{seq}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, entry_path(dir, key));
    }
    let _ = std::fs::remove_file(&tmp); // no-op after a successful rename
}

/// Grid sets: AutoGrid output is shared by every ligand docked against the
/// same receptor and, keyed by [`grid_key`], by every campaign docking the
/// same receptor content under the same knobs. A lookup reads two tiers:
///
/// 1. the memory tier, which beside each grid set keeps its `.map` files
///    once per receptor *name* (the header names the receptor, so the
///    files are keyed by key **and** name, never by name alone), as blobs
///    that render from the grid set when read;
/// 2. the on-disk directory, if the tier has one: `<key>.grid` entries,
///    shared across runs, campaigns and worker processes on one machine.
///
/// Entries are written to disk directly, never through an activation's
/// context: cache traffic must not appear as produced files in provenance
/// (a warm-cache run stays byte-identical to a cold one).
impl ReceptorCache {
    /// Cached grid lookup / computation. Grids are ligand-independent: the
    /// box is sized from the receptor pocket + `cfg.box_edge` and carries
    /// affinity maps for the whole ligand-type superset.
    ///
    /// Emits `gridcache.hit` / `gridcache.miss` counters (memory tier) plus
    /// `gridcache.bytes` (resident map bytes of freshly built sets) through
    /// `cfg.telemetry`. On a tier with a directory, a memory miss
    /// additionally emits `gridcache.persist.hit` (entry loaded from disk),
    /// or `gridcache.persist.miss` + `gridcache.persist.write` (built and
    /// persisted), and `gridcache.persist.bytes` (entry bytes read or
    /// written).
    ///
    /// The text is digested here; a staged receptor goes through
    /// [`ReceptorCache::grids`], which reuses its blob's digest.
    pub fn get_or_build(
        &self,
        _receptor_id: &str,
        receptor_pdbqt: &str,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<Arc<GridSet>, ActivityError> {
        self.grids(&digested(receptor_pdbqt, &cfg.telemetry), engine, cfg)
    }

    /// [`ReceptorCache::get_or_build`] for a staged receptor PDBQT.
    pub fn grids(
        &self,
        receptor_pdbqt: &Blob,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<Arc<GridSet>, ActivityError> {
        Ok(self.lookup(receptor_pdbqt, engine, cfg)?.1)
    }

    /// The `.map` files of the grid set [`ReceptorCache::grids`] resolves
    /// (same lookup, same counters, same build on a miss), rendered for
    /// `receptor_id`. The texts are formatted and digested once per (grid
    /// key, receptor name) — counted by `gridcache.maps.rendered` — and
    /// dropped: each file is a [rendered](Blob::rendered) blob over the grid
    /// set, which prints its text again only for a reader. Every later call
    /// returns the same blobs, so staging them costs one pointer write per
    /// map. The entry is charged for its names and per-map fields, and
    /// leaves the tier with its grid set.
    pub fn get_or_render(
        &self,
        receptor_id: &str,
        receptor_pdbqt: &Blob,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<MapFiles, ActivityError> {
        let (key, grids) = self.lookup(receptor_pdbqt, engine, cfg)?;
        let tel = &cfg.telemetry;
        let (maps, _) = self.get_or_try(Key::Maps(key, receptor_id.to_string()), tel, || {
            tel.count("gridcache.maps.rendered", 1);
            let receptor: Arc<str> = receptor_id.into();
            let maps: MapFiles = timed(tel, "gridcache.render", || {
                let mut files: Vec<(String, Blob)> = Vec::new();
                for (index, (label, map)) in grids.maps().enumerate() {
                    let (set, receptor) = (Arc::clone(&grids), Arc::clone(&receptor));
                    let blob = Blob::rendered(Arc::new(move || {
                        let (_, map) = set.maps().nth(index).expect("a map of the set");
                        docking::mapfile::write_map(map, &format!("{receptor}.gpf"), &receptor)
                    }));
                    tel.count("files.digest_bytes", blob.len() as u64);
                    // the maps of a set share their header, so maps of equal
                    // values (AutoGrid's C and A, N and NA, S and SA) print
                    // equal text: one blob names them, and a store interns
                    // them by pointer instead of rendering both to compare
                    let earlier = grids.maps().zip(&files).find(|((_, other), (_, held))| {
                        held.digest() == blob.digest()
                            && other
                                .values()
                                .iter()
                                .map(|v| v.to_bits())
                                .eq(map.values().iter().map(|v| v.to_bits()))
                    });
                    let blob = earlier.map_or(blob, |(_, (_, held))| held.clone());
                    files.push((format!("{receptor_id}.{label}.map"), blob));
                }
                files.into()
            });
            // a file's name and blob, and what its render function captures
            let per_map =
                size_of::<(String, Blob)>() + size_of::<(Arc<GridSet>, usize, Arc<str>)>();
            let per_map = per_map as u64;
            let bytes = maps.iter().map(|(name, _)| name.len() as u64 + per_map).sum::<u64>()
                + receptor.len() as u64;
            Ok((maps, bytes))
        })?;
        Ok(MapFiles::clone(&maps))
    }

    fn lookup(
        &self,
        receptor_pdbqt: &Blob,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<(u64, Arc<GridSet>), ActivityError> {
        let key = grid_key(receptor_pdbqt.digest(), engine, cfg);
        let tel = &cfg.telemetry;
        let (grids, computed) = self.get_or_try(Key::Grids(key), tel, || {
            tel.count("gridcache.miss", 1);
            let grids = match &self.0.dir {
                Some(dir) => match load_entry(dir, key, tel) {
                    Some(grids) => grids,
                    None => {
                        tel.count("gridcache.persist.miss", 1);
                        let grids = self.build(receptor_pdbqt, engine, cfg)?;
                        timed(tel, "gridcache.persist", || {
                            let text = docking::gridio::serialize_grid_set(&grids);
                            tel.count("gridcache.persist.write", 1);
                            tel.count("gridcache.persist.bytes", text.len() as u64);
                            write_entry(dir, key, &text);
                        });
                        grids
                    }
                },
                None => self.build(receptor_pdbqt, engine, cfg)?,
            };
            let bytes = grids.bytes();
            Ok((grids, bytes))
        })?;
        if !computed {
            tel.count("gridcache.hit", 1);
        }
        Ok((key, grids))
    }

    /// Build a grid set around the tier's pocket, counted by
    /// `gridcache.bytes`.
    fn build(
        &self,
        receptor_pdbqt: &Blob,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<GridSet, ActivityError> {
        let receptor = pdbqt::read_receptor_pdbqt(receptor_pdbqt)
            .map_err(|e| ActivityError(format!("receptor pdbqt: {e}")))?;
        let pocket = self.pocket(receptor_pdbqt, &receptor, cfg.pocket_probe, &cfg.telemetry)?;
        let spec =
            docking::grid::GridSpec::with_edge(pocket.center, cfg.box_edge, cfg.grid_spacing);
        let grids = timed(&cfg.telemetry, "gridcache.fill", || {
            docking::autogrid::build_grids(&receptor, spec, &LIGAND_TYPE_SUPERSET, engine.into())
        });
        cfg.telemetry.count("gridcache.bytes", grids.bytes());
        Ok(grids)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
    use crate::dataset::{make_receptor, Dataset, DatasetParams};
    use cumulus::RunConfig;
    use cumulus::{Backend, LocalBackend, RunReport, Workflow};
    use provenance::{export_provn_canonical_for, ProvenanceStore, Value};

    fn params(hg_fraction: f64) -> DatasetParams {
        let mut p = DatasetParams::default();
        p.receptor.min_residues = 30;
        p.receptor.max_residues = 35;
        p.receptor.hg_fraction = hg_fraction;
        p.ligand.min_heavy = 8;
        p.ligand.max_heavy = 10;
        p
    }

    /// A receptor's PDB text as activity 3 reads it from the store.
    fn pdb_text(id: &str, p: &DatasetParams) -> Blob {
        Blob::new(pdb::write_pdb(&make_receptor(id, p).structure))
    }

    fn fast_cfg(tel: &Telemetry, receptors: ReceptorCache) -> SciDockConfig {
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
                telemetry: tel.clone(),
                ..Default::default()
            },
            receptors,
            ..Default::default()
        }
    }

    /// One campaign: `ds` staged into a fresh store (pairs ligand-major on
    /// request, so receptors alternate, instead of receptor-major), run on
    /// one thread.
    fn campaign(
        ds: &Dataset,
        mode: EngineMode,
        cfg: &SciDockConfig,
        ligand_major: bool,
    ) -> (RunReport, Arc<FileStore>, Arc<ProvenanceStore>) {
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let mut input = stage_inputs(ds, &files, &cfg.expdir);
        if ligand_major {
            input.tuples.sort_by_key(|t| t[1].as_str().unwrap().to_string());
        }
        let wf = build_scidock(mode, cfg, Arc::clone(&files));
        let report = LocalBackend::new(RunConfig { workers: 1, ..RunConfig::default() })
            .run(&Workflow::new(wf, input).with_files(Arc::clone(&files)), &prov)
            .unwrap();
        (report, files, prov)
    }

    /// Activity 3 as it ran before the tier: the PDBQT text and heavy-atom
    /// count of one private parse, typing, charging and formatting.
    fn unshared(pdb_text: &str, name: &str) -> (String, usize) {
        let mut mol = pdb::read_pdb(pdb_text).unwrap();
        mol.name = name.into();
        assign_ad_types(&mut mol);
        assign_gasteiger(&mut mol, &Default::default());
        (pdbqt::write_receptor_pdbqt(&mol), mol.heavy_atom_count())
    }

    fn counter(tel: &Telemetry, name: &str) -> u64 {
        tel.snapshot().unwrap().counter(name).unwrap_or(0)
    }

    #[test]
    fn prepared_text_is_keyed_by_pdb_content_and_receptor_name() {
        let tel = Telemetry::attached();
        let tier = ReceptorCache::default();
        let clean = pdb_text("1HUC", &params(0.0));

        // the same bytes under two names: one parse, two texts (`NAME`)
        let a = tier.prepared(&clean, "1HUC", &tel).unwrap();
        let b = tier.prepared(&clean, "COPY", &tel).unwrap();
        assert_eq!(counter(&tel, "receptor.hg_screened"), 1);
        assert_eq!(counter(&tel, "receptor.prepared"), 2);
        assert!(a.pdbqt.starts_with("NAME  1HUC\n") && b.pdbqt.starts_with("NAME  COPY\n"));
        assert_eq!(a.pdbqt.split_once('\n').unwrap().1, b.pdbqt.split_once('\n').unwrap().1);
        assert_eq!(a.heavy_atoms, b.heavy_atoms);
        assert!(Arc::ptr_eq(&a, &tier.prepared(&clean, "1HUC", &tel).unwrap()));
        assert_eq!(counter(&tel, "receptor.prep.hit"), 1);

        // … and it is the text an unshared preparation writes
        assert_eq!((a.pdbqt.to_string(), a.heavy_atoms), unshared(&clean, "1HUC"));

        // the same name over other bytes is another receptor
        let poisoned = pdb_text("1HUC", &params(1.0));
        assert_ne!(clean, poisoned);
        assert!(tier.has_hg(&poisoned, &tel) && !tier.has_hg(&clean, &tel));
        assert_eq!(counter(&tel, "receptor.hg_screened"), 2);
        assert_eq!(tier.receptors(), 2);

        // a text that does not parse is an error for activity 3, `false` for
        // the rule, and is not remembered
        let broken = Blob::new("ATOM      1  N   ALA A   1      xx.xxx\n");
        assert!(tier.prepared(&broken, "1HUC", &tel).is_err());
        assert!(!tier.has_hg(&broken, &tel));
        assert_eq!(counter(&tel, "receptor.hg_screened"), 4, "parsed again each time");
        assert_eq!(tier.receptors(), 2);
        assert_eq!(
            telemetry::registry::unregistered(&tel.snapshot().unwrap()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn grid_keys_separate_engines_knobs_and_contents_and_are_pinned() {
        let cfg = DockConfig { grid_spacing: 0.375, box_edge: 22.5, ..Default::default() };
        let key = grid_key(digest(b"ATOM 1"), EngineKind::Ad4, &cfg);
        // pinned: a change here orphans every cache entry on disk
        assert_eq!(key, 0xdc0e_13a5_3138_cd46);
        assert_ne!(key, grid_key(digest(b"ATOM 2"), EngineKind::Ad4, &cfg));
        assert_ne!(key, grid_key(digest(b"ATOM 1"), EngineKind::Vina, &cfg));
        let coarser = DockConfig { grid_spacing: 0.5, ..cfg.clone() };
        assert_ne!(key, grid_key(digest(b"ATOM 1"), EngineKind::Ad4, &coarser));
    }

    #[test]
    fn campaigns_restaging_a_receptor_name_get_their_own_bytes() {
        // three campaigns through one handle stage different bytes under the
        // same path and receptor name
        let tel = Telemetry::attached();
        let mut cfg = fast_cfg(&tel, ReceptorCache::default());
        cfg.hg_rule = true;
        let staged = |p: DatasetParams| {
            let ds = Dataset::subset(&["1HUC"], &["042"], p);
            let (report, files, _) = campaign(&ds, EngineMode::Ad4Only, &cfg, false);
            let pdbqt = report.outputs[2].tuples.first().map(|t| {
                files.read(t[3].as_str().unwrap()).expect("the prepared receptor is staged")
            });
            (report, pdbqt)
        };
        let (first, first_pdbqt) = staged(params(0.0));
        let (poisoned, poisoned_pdbqt) = staged(params(1.0));
        let mut larger = params(0.0);
        larger.receptor.min_residues = 36;
        larger.receptor.max_residues = 40;
        let (second, second_pdbqt) = staged(larger);

        assert_eq!((first.blacklisted, first.final_output().len()), (0, 1));
        assert_eq!((poisoned.blacklisted, poisoned.final_output().len()), (1, 0));
        assert!(poisoned_pdbqt.is_none(), "the Hg-bearing receptor is never prepared");
        assert_eq!((second.blacklisted, second.final_output().len()), (0, 1));
        assert_ne!(first_pdbqt.unwrap(), second_pdbqt.unwrap());
        assert_eq!(counter(&tel, "receptor.hg_screened"), 3);
        assert_eq!(counter(&tel, "receptor.prepared"), 2);
    }

    #[test]
    fn prepreceptor_prepares_once_and_stages_by_reference() {
        let ds = Dataset::subset(&["1HUC"], &["042", "074", "0D6"], params(0.0));
        let tel = Telemetry::attached();
        let cfg = fast_cfg(&tel, ReceptorCache::default());
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let input = stage_inputs(&ds, &files, &cfg.expdir);
        let mut wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
        wf.activities.truncate(3); // … up to and including prepreceptor
        wf.deps.truncate(3);
        let report = LocalBackend::new(RunConfig { workers: 2, ..RunConfig::default() })
            .run(&Workflow::new(wf, input).with_files(Arc::clone(&files)), &prov)
            .unwrap();

        // three pairs, three paths, one allocation
        let staged: Vec<Blob> = report
            .final_output()
            .tuples
            .iter()
            .map(|t| files.read(t[3].as_str().unwrap()).unwrap())
            .collect();
        assert_eq!(staged.len(), 3);
        assert!(staged.iter().all(|text| Arc::ptr_eq(text.text(), staged[0].text())));
        assert_eq!(counter(&tel, "receptor.prepared"), 1);
        assert_eq!(counter(&tel, "receptor.prep.hit"), 2);

        // … recorded per pair exactly as an unshared preparation would be
        let (text, heavy_atoms) = unshared(&pdb_text("1HUC", &params(0.0)), "1HUC");
        assert_eq!(&*staged[0], text);
        // … digested when prepared, and never again while staged
        assert_eq!(staged[0].digest(), cumulus::digest(text.as_bytes()));
        let sizes =
            prov.query_rows("SELECT fsize FROM hfile WHERE fname = '1HUC.pdbqt'", &[]).unwrap();
        assert_eq!(sizes.len(), 3);
        let atoms = prov
            .query_rows("SELECT pvalue_num FROM hparameter WHERE pname = 'receptor_atoms'", &[])
            .unwrap();
        assert_eq!(atoms.len(), 3);
        for i in 0..3 {
            assert_eq!(sizes.cell(i, 0), &Value::Int(text.len() as i64));
            assert_eq!(atoms.cell(i, 0).as_f64(), Some(heavy_atoms as f64));
        }
    }

    #[test]
    fn racing_askers_of_a_cold_key_share_one_computation() {
        let tel = Telemetry::attached();
        let cfg = DockConfig {
            grid_spacing: 1.5,
            box_edge: 14.0,
            telemetry: tel.clone(),
            ..Default::default()
        };
        let pdb = pdb_text("1HUC", &params(0.0));
        let cache = ReceptorCache::default();
        let gate = Barrier::new(8);
        let got: Vec<(Arc<Prepared>, Arc<GridSet>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        let prepared = cache.prepared(&pdb, "1HUC", &tel).unwrap();
                        let grids = cache
                            .get_or_build("1HUC", &prepared.pdbqt, EngineKind::Ad4, &cfg)
                            .unwrap();
                        (prepared, grids)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|(p, g)| Arc::ptr_eq(p, &got[0].0) && Arc::ptr_eq(g, &got[0].1)));
        assert_eq!(counter(&tel, "receptor.hg_screened"), 1);
        assert_eq!(counter(&tel, "receptor.prepared"), 1);
        assert_eq!(counter(&tel, "receptor.prep.hit"), 7);
        assert_eq!(counter(&tel, "gridcache.miss"), 1);
        assert_eq!(counter(&tel, "gridcache.hit"), 7);
        assert_eq!(counter(&tel, "gridcache.bytes"), got[0].1.bytes(), "one build");
    }

    #[test]
    fn a_caller_that_finds_a_fill_in_progress_is_one_counted_wait() {
        let tel = Telemetry::attached();
        let tier = ReceptorCache::default();
        let (entered, fills) = (Barrier::new(2), std::sync::atomic::AtomicUsize::new(0));
        let ask = || {
            tier.get_or_try(Key::Receptor(7), &tel, || {
                fills.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                entered.wait();
                // hold the cell until the other caller has found it held
                while counter(&tel, "receptor.waits") == 0 {
                    std::thread::yield_now();
                }
                Ok((42u64, 8))
            })
        };
        let (first, second) = std::thread::scope(|s| {
            let filler = s.spawn(ask);
            entered.wait();
            let waiter = ask().unwrap();
            (filler.join().unwrap().unwrap(), waiter)
        });
        assert!(first.1 && !second.1, "the filler computed, the waiter did not");
        assert!(Arc::ptr_eq(&first.0, &second.0));
        assert_eq!(fills.into_inner(), 1);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("receptor.waits"), Some(1));
        assert_eq!(snap.histogram("receptor.wait").map(|h| h.count), Some(1));
        assert_eq!(telemetry::registry::unregistered(&snap), Vec::<String>::new());
    }

    /// A caller that waited for a fill gets its value only once the tier
    /// has charged it, so the map files it then renders over a grid set the
    /// filler just built stay in the tier.
    #[test]
    fn a_waiter_gets_a_filled_value_only_once_it_is_charged() {
        let tel = Telemetry::attached();
        let tier = ReceptorCache::default();
        let (entered, filled) = (Barrier::new(2), Barrier::new(2));
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                tier.get_or_try(Key::Grids(7), &tel, || {
                    entered.wait();
                    filled.wait();
                    Ok((42u64, 8))
                })
            });
            entered.wait();
            s.spawn(|| {
                let got = tier.get_or_try::<u64>(Key::Grids(7), &tel, || unreachable!());
                got_tx.send(got.is_ok()).unwrap();
            });
            while counter(&tel, "receptor.waits") == 0 {
                std::thread::yield_now();
            }
            // the tier's lock held, the filler cannot charge its value, so
            // the waiter must still be waiting when the fill returns
            let st = tier.0.state.lock();
            filled.wait();
            let early = got_rx.recv_timeout(std::time::Duration::from_millis(200));
            drop(st);
            assert!(early.is_err(), "the waiter got the value before it was charged");
            assert_eq!(got_rx.recv(), Ok(true));
        });
        tier.get_or_try(Key::Maps(7, "r".into()), &tel, || Ok((0u8, 4))).unwrap();
        assert_eq!(tier.filled(|k| matches!(k, Key::Maps(..))), 1, "map files kept");
    }

    #[test]
    fn tier_at_its_budget_evicts_lru_and_changes_no_result() {
        // two receptors alternating, pair by pair, through both engines
        let ds = Dataset::subset(&["1HUC", "2HHN"], &["042", "074", "0D6"], params(0.0));
        let run = |tier: &ReceptorCache| {
            let tel = Telemetry::attached();
            let mut cfg = fast_cfg(&tel, tier.clone());
            cfg.size_threshold_atoms = make_receptor("1HUC", &params(0.0)).heavy_atoms;
            let (report, _, prov) = campaign(&ds, EngineMode::Adaptive, &cfg, true);
            let provn = export_provn_canonical_for(&prov, report.workflow);
            let mut results = crate::analysis::results_from_relation(&report.outputs[8]);
            results.extend(crate::analysis::results_from_relation(&report.outputs[9]));
            assert_eq!(results.len(), 6);
            let mut results: Vec<String> = results.iter().map(|r| format!("{r:?}")).collect();
            results.sort();
            (results, provn, tel.snapshot().unwrap())
        };

        let roomy = ReceptorCache::default();
        let (want_results, want_provn, snap) = run(&roomy);
        assert_eq!(snap.counter("gridcache.evicted"), None);
        let roomy_misses = snap.counter("gridcache.miss");
        assert_eq!(roomy_misses, Some(3), "AD4 maps of both, Vina grids of the large one");
        let both = roomy.resident_bytes();
        assert_eq!(
            snap.gauge("gridcache.resident_bytes").unwrap().samples.last().unwrap().1,
            both as f64
        );

        // room for one receptor's entries, not for both
        let budget = both * 6 / 10;
        let tight = ReceptorCache::with_budget(budget);
        let (results, provn, snap) = run(&tight);
        assert!(snap.counter("gridcache.evicted").unwrap_or(0) > 0);
        let gauge = snap.gauge("gridcache.resident_bytes").unwrap();
        assert!(gauge.samples.iter().all(|&(_, bytes)| bytes <= budget as f64), "{gauge:?}");
        assert!(tight.resident_bytes() <= budget);
        assert_eq!(results, want_results);
        assert_eq!(provn, want_provn);
        // … because what was evicted and asked for again was rebuilt
        assert!(snap.counter("gridcache.miss") > roomy_misses);
    }

    #[test]
    fn a_map_set_goes_with_its_grid_set_and_renders_the_same_bytes_again() {
        let tel = Telemetry::attached();
        let cfg = DockConfig {
            grid_spacing: 1.5,
            box_edge: 14.0,
            telemetry: tel.clone(),
            ..Default::default()
        };
        let pdbqt = ReceptorCache::default()
            .prepared(&pdb_text("1HUC", &params(0.0)), "1HUC", &Telemetry::disabled())
            .unwrap()
            .pdbqt
            .clone();
        // one receptor's grid set and map set, less one byte
        let roomy = ReceptorCache::default();
        let quiet = DockConfig { telemetry: Telemetry::disabled(), ..cfg.clone() };
        roomy.get_or_render("1HUC", &pdbqt, EngineKind::Ad4, &quiet).unwrap();
        assert_eq!(roomy.grid_sets(), 1);
        let budget = roomy.resident_bytes() - size_of::<Pocket>() as u64 - 1;
        let tier = ReceptorCache::with_budget(budget);

        let mut texts = Vec::new();
        for round in 1..=2 {
            let grids = Arc::downgrade(&tier.grids(&pdbqt, EngineKind::Ad4, &cfg).unwrap());
            let maps = tier.get_or_render("1HUC", &pdbqt, EngineKind::Ad4, &cfg).unwrap();
            // charging the map set evicted the pocket, then the older grid
            // set and the map set with it: nothing in the tier holds the
            // grids once the caller lets go of the map files
            assert_eq!((tier.grid_sets(), tier.filled(|k| matches!(k, Key::Maps(..)))), (0, 0));
            assert!(tier.resident_bytes() <= budget);
            let read: Vec<String> = maps.iter().map(|(_, text)| text.to_string()).collect();
            drop(maps);
            assert!(grids.upgrade().is_none(), "round {round}: an evicted grid set lives on");
            texts.push(read);
        }
        // … and what was rendered again is the same bytes
        assert_eq!(texts[0], texts[1]);
        assert_eq!(texts[0].len(), 14);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("gridcache.miss"), Some(2));
        assert_eq!(snap.counter("gridcache.maps.rendered"), Some(2));
        assert_eq!(snap.counter("gridcache.evicted"), Some(2 * 3), "pocket, grids, maps, twice");
        let gauge = snap.gauge("gridcache.resident_bytes").unwrap();
        assert!(gauge.samples.iter().all(|&(_, bytes)| bytes <= budget as f64), "{gauge:?}");
    }

    #[test]
    fn equal_maps_of_a_set_are_one_blob() {
        let cfg = DockConfig { grid_spacing: 1.5, box_edge: 14.0, ..Default::default() };
        let tier = ReceptorCache::default();
        let tel = Telemetry::disabled();
        let pdbqt = tier.prepared(&pdb_text("1HUC", &params(0.0)), "1HUC", &tel).unwrap();
        let maps = tier.get_or_render("1HUC", &pdbqt.pdbqt, EngineKind::Ad4, &cfg).unwrap();
        let grids = tier.grids(&pdbqt.pdbqt, EngineKind::Ad4, &cfg).unwrap();
        let mut texts: Vec<String> = maps.iter().map(|(_, text)| text.to_string()).collect();
        texts.sort();
        texts.dedup();
        assert!(texts.len() < maps.len(), "AutoGrid's C and A maps print the same text");
        // one render function per distinct text holds the grid set, beside
        // the tier and this handle
        assert_eq!(Arc::strong_count(&grids), 2 + texts.len());
    }

    /// A ligand's SDF text as activity 1 reads it from the store.
    fn sdf_text(code: &str) -> Blob {
        Blob::new(sdf::write_sdf(&crate::dataset::make_ligand(code, &params(0.0)).structure))
    }

    /// Activities 1 and 2 as they ran before the tier: the MOL2 text, then
    /// the ligand PDBQT and `torsdof` of one private preparation.
    fn unshared_ligand(sdf_text: &str) -> (String, String, usize) {
        let mol2_text = mol2::write_mol2(&sdf::read_sdf(sdf_text).unwrap());
        let mut mol = mol2::read_mol2(&mol2_text).unwrap();
        assign_ad_types(&mut mol);
        assign_gasteiger(&mut mol, &Default::default());
        merge_nonpolar_hydrogens(&mut mol);
        let tree = build_torsion_tree(&mol);
        let torsdof = tree.torsdof();
        (mol2_text, pdbqt::write_ligand_pdbqt(&PdbqtLigand { mol, tree }), torsdof)
    }

    /// Activities 1 and 2, then the parse of activities 4, 5 and 8, through
    /// `tier`, as a workflow asks for them.
    fn prepare(
        tier: &ReceptorCache,
        sdf: &Blob,
        tel: &Telemetry,
    ) -> (Blob, Arc<PreparedLigand>, Arc<PdbqtLigand>) {
        let mol2 = tier.mol2(sdf, tel).unwrap();
        let prepared = tier.prepared_ligand(&mol2, tel).unwrap();
        let ligand = tier.ligand(&prepared.pdbqt, tel).unwrap();
        (mol2, prepared, ligand)
    }

    /// A receptor's PDBQT text, its parse, and the pocket the tier holds.
    fn pocket_of(tier: &ReceptorCache, id: &str, tel: &Telemetry) -> (Blob, Pocket) {
        let prepared = tier.prepared(&pdb_text(id, &params(0.0)), id, tel).unwrap();
        let mol = pdbqt::read_receptor_pdbqt(&prepared.pdbqt).unwrap();
        let pocket = tier.pocket(&prepared.pdbqt, &mol, 9.0, tel).unwrap();
        (prepared.pdbqt.clone(), pocket)
    }

    #[test]
    fn a_ligand_is_prepared_once_per_content_as_an_unshared_preparation_would() {
        let tel = Telemetry::attached();
        let tier = ReceptorCache::default();
        let sdf = sdf_text("042");
        let (mol2, prepared, ligand) = prepare(&tier, &sdf, &tel);
        let (want_mol2, want_pdbqt, want_torsdof) = unshared_ligand(&sdf);
        assert_eq!(
            (&*mol2, &*prepared.pdbqt, prepared.torsdof),
            (&*want_mol2, &*want_pdbqt, want_torsdof)
        );
        assert_eq!(*ligand, pdbqt::read_ligand_pdbqt(&want_pdbqt).unwrap());
        // digested when made, and never again while staged
        assert_eq!(prepared.pdbqt.digest(), digest(want_pdbqt.as_bytes()));
        let again = prepare(&tier, &sdf, &tel);
        assert!(Arc::ptr_eq(again.0.text(), mol2.text()));
        assert!(Arc::ptr_eq(&again.1, &prepared) && Arc::ptr_eq(&again.2, &ligand));
        assert_eq!(counter(&tel, "ligand.prepared"), 1);
        assert_eq!(counter(&tel, "ligand.prep.hit"), 1);
        // another content is another ligand
        let (other, ..) = prepare(&tier, &sdf_text("074"), &tel);
        assert_ne!(other, mol2);
        assert_eq!(counter(&tel, "ligand.prepared"), 2);
        assert_eq!(
            telemetry::registry::unregistered(&tel.snapshot().unwrap()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn both_grid_builds_of_a_receptor_share_one_pocket_search() {
        let tel = Telemetry::attached();
        let cfg = DockConfig {
            grid_spacing: 1.5,
            box_edge: 14.0,
            telemetry: tel.clone(),
            ..Default::default()
        };
        let cache = ReceptorCache::default();
        let prepared = cache.prepared(&pdb_text("1HUC", &params(0.0)), "1HUC", &tel).unwrap();
        let ad4 = cache.grids(&prepared.pdbqt, EngineKind::Ad4, &cfg).unwrap();
        let vina = cache.grids(&prepared.pdbqt, EngineKind::Vina, &cfg).unwrap();
        assert_eq!(counter(&tel, "gridcache.miss"), 2);
        assert_eq!(counter(&tel, "receptor.pocket.searched"), 1);
        // … the pocket the search finds, under both boxes
        let mol = pdbqt::read_receptor_pdbqt(&prepared.pdbqt).unwrap();
        let pocket = find_pocket(&mol, cfg.pocket_probe).unwrap();
        assert_eq!(ad4.spec.center, pocket.center);
        assert_eq!(vina.spec.center, pocket.center);
        // a receptor with no pocket fails its build each time it is asked
        let flat = Blob::new(pdbqt::write_receptor_pdbqt(&mol).replacen(
            "ATOM",
            "REMARK",
            mol.atoms.len() - 1,
        ));
        for _ in 0..2 {
            let err = cache.grids(&flat, EngineKind::Ad4, &cfg).unwrap_err();
            assert_eq!(err.0, "no binding pocket detected");
        }
        assert_eq!(counter(&tel, "receptor.pocket.searched"), 3);
    }

    #[test]
    fn ligand_and_pocket_entries_share_the_budget_and_go_least_recently_used_first() {
        let weigh = |sdf: &Blob| {
            let tier = ReceptorCache::default();
            prepare(&tier, sdf, &Telemetry::disabled());
            tier.resident_bytes()
        };
        // b no heavier than c, so filling b evicts nothing
        let a = sdf_text("042");
        let [b, c] = {
            let mut others = [sdf_text("074"), sdf_text("0D6")];
            others.sort_by_key(weigh);
            others
        };
        // room for two ligands and the pocket, not for three ligands
        let budget = weigh(&a) + weigh(&c) + size_of::<Pocket>() as u64;
        let tier = ReceptorCache::with_budget(budget);
        let tel = Telemetry::attached();
        // the pocket's receptor entries go first: not part of this budget
        let (rec_pdbqt, rec_mol, pocket) = {
            let roomy = ReceptorCache::default();
            let (text, pocket) = pocket_of(&roomy, "1HUC", &Telemetry::disabled());
            let mol = pdbqt::read_receptor_pdbqt(&text).unwrap();
            (text, mol, pocket)
        };
        let first = prepare(&tier, &a, &tel);
        let held = prepare(&tier, &b, &tel);
        assert_eq!(tier.pocket(&rec_pdbqt, &rec_mol, 9.0, &tel).unwrap(), pocket);
        prepare(&tier, &a, &tel); // a is now the most recently used ligand
        prepare(&tier, &c, &tel);

        // b's three entries went, oldest first, and nothing else
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("gridcache.evicted"), Some(3));
        let gauge = snap.gauge("gridcache.resident_bytes").unwrap();
        assert!(gauge.samples.iter().all(|&(_, bytes)| bytes <= budget as f64), "{gauge:?}");
        assert_eq!(tier.resident_bytes(), budget);
        let kinds = |kind: fn(&Key) -> bool| tier.filled(kind);
        assert_eq!(kinds(|k| matches!(k, Key::Mol2(_))), 2);
        assert_eq!(kinds(|k| matches!(k, Key::LigandPdbqt(_))), 2);
        assert_eq!(kinds(|k| matches!(k, Key::Ligand(_))), 2);
        assert_eq!(kinds(|k| matches!(k, Key::Pocket(..))), 1);
        let again = prepare(&tier, &a, &tel);
        assert!(Arc::ptr_eq(&again.1, &first.1), "a stayed");
        tier.pocket(&rec_pdbqt, &rec_mol, 9.0, &tel).unwrap();
        assert_eq!(counter(&tel, "receptor.pocket.searched"), 1, "the pocket stayed");

        // a re-prepared ligand is the first preparation's bytes, and what
        // was handed out before is untouched
        let re = prepare(&tier, &b, &tel);
        assert!(!Arc::ptr_eq(&re.1, &held.1));
        assert_eq!(
            (&*re.0, &*re.1.pdbqt, re.1.torsdof),
            (&*held.0, &*held.1.pdbqt, held.1.torsdof)
        );
        assert_eq!(re.1.pdbqt.digest(), held.1.pdbqt.digest());
        assert_eq!(*re.2, *held.2);
        assert_eq!(counter(&tel, "ligand.prepared"), 4, "a, b, c, then b again");
    }

    #[test]
    fn a_malformed_ligand_fails_its_activity_on_every_attempt() {
        let tel = Telemetry::attached();
        let tier = ReceptorCache::default();
        // the tier answers each ask with the error, and keeps nothing
        for _ in 0..3 {
            let err = tier.mol2(&Blob::new("x\n\n\nnot a counts line\n"), &tel).unwrap_err();
            assert!(err.0.starts_with("sdf: "), "{err:?}");
            let err = tier
                .prepared_ligand(&Blob::new("@<TRIPOS>ATOM\n1 C\n"), &tel)
                .map(drop)
                .unwrap_err();
            assert!(err.0.starts_with("mol2: "), "{err:?}");
            let err = tier.ligand(&Blob::new("ROOT\nBRANCH 1\n"), &tel).unwrap_err();
            assert!(err.0.starts_with("ligand pdbqt: "), "{err:?}");
        }
        assert_eq!((tier.resident_bytes(), counter(&tel, "ligand.prepared")), (0, 0));

        // … so in a run, activity 1 or 2 fails on every attempt of every pair
        // of the broken ligand, and the good ligand's pairs pass
        let ds = Dataset::subset(&["1HUC", "2HHN"], &["042", "074"], params(0.0));
        let cfg = fast_cfg(&tel, tier.clone());
        for (activity, broken) in [(0, "042.sdf"), (1, "042.mol2")] {
            let files = Arc::new(FileStore::new());
            let mut input = stage_inputs(&ds, &files, &cfg.expdir);
            if activity == 1 {
                // prepligand reads column 3 as MOL2: give it each ligand's
                for t in &mut input.tuples {
                    let sdf_path = t[3].as_str().unwrap().to_string();
                    let mol2 = tier.mol2(&files.read(&sdf_path).unwrap(), &tel).unwrap();
                    let path = sdf_path.replace(".sdf", ".mol2");
                    files.write(&path, mol2);
                    t[3] = path.into();
                }
            }
            let bad = format!("{}/input/{broken}", cfg.expdir);
            files.write(&bad, "042\n  molkit\n\n  3  2  0\n");
            let mut wf = build_scidock(EngineMode::Ad4Only, &cfg, Arc::clone(&files));
            wf.activities = vec![wf.activities.swap_remove(activity)];
            wf.deps = vec![vec![]];
            let report =
                LocalBackend::new(RunConfig { workers: 1, max_retries: 2, ..RunConfig::default() })
                    .run(
                        &Workflow::new(wf, input).with_files(Arc::clone(&files)),
                        &Arc::new(ProvenanceStore::new()),
                    )
                    .unwrap();
            assert_eq!(report.failed_attempts, 2 * 3, "two pairs, three attempts each");
            let done: Vec<&str> =
                report.final_output().tuples.iter().map(|t| t[1].as_str().unwrap()).collect();
            assert_eq!(done, ["074", "074"]);
        }
    }

    #[test]
    fn ligand_and_pocket_counters_reach_metrics() {
        let ds = Dataset::subset(&["1HUC", "2HHN"], &["042", "074"], params(0.0));
        let tel = Telemetry::attached();
        let dir = std::env::temp_dir().join(format!("scidock-cold-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = fast_cfg(&tel, ReceptorCache::on_disk(&dir));
        // both engines over one tier: four grid builds, two pocket searches
        campaign(&ds, EngineMode::Ad4Only, &cfg, false);
        campaign(&ds, EngineMode::VinaOnly, &cfg, false);
        let obs = cumulus::obs::ObsServer::start(
            "127.0.0.1:0",
            cumulus::obs::ObsState::new(tel.clone(), cumulus::EventLog::new()),
        )
        .unwrap();
        let (status, body) =
            cumulus::obs::http_get(obs.addr(), "/metrics", std::time::Duration::from_secs(5))
                .unwrap();
        obs.shutdown();
        assert_eq!(status, 200);
        let sample = |name: &str| {
            body.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
        };
        assert_eq!(sample("scidock_gridcache_miss_total"), Some(4.0));
        assert_eq!(sample("scidock_receptor_pocket_searched_total"), Some(2.0));
        // eight babel/prepligand activations per campaign, two ligands
        assert_eq!(sample("scidock_ligand_prepared_total"), Some(2.0));
        assert_eq!(sample("scidock_ligand_prep_hit_total"), Some(6.0));
        // the cold path's steps, one sample per search, fill, persisted
        // entry and rendered map set
        assert_eq!(sample("scidock_receptor_pocket_seconds_count"), Some(2.0));
        assert_eq!(sample("scidock_gridcache_fill_seconds_count"), Some(4.0));
        assert_eq!(sample("scidock_gridcache_persist_write_total"), Some(4.0));
        assert_eq!(sample("scidock_gridcache_persist_seconds_count"), Some(4.0));
        let rendered = sample("scidock_gridcache_maps_rendered_total");
        assert!(rendered.is_some_and(|n| n > 0.0));
        assert_eq!(sample("scidock_gridcache_render_seconds_count"), rendered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_drops_only_the_tiers_reference() {
        let tel = Telemetry::attached();
        let (one, two) = (pdb_text("1HUC", &params(0.0)), pdb_text("2HHN", &params(0.0)));
        // holds either receptor's parse + text, never both
        let weigh = |pdb: &Blob| {
            let tier = ReceptorCache::default();
            tier.prepared(pdb, "any", &Telemetry::disabled()).unwrap();
            tier.resident_bytes()
        };
        let tier = ReceptorCache::with_budget(weigh(&one).max(weigh(&two)));
        let held = tier.prepared(&one, "1HUC", &tel).unwrap();
        let text = held.pdbqt.to_string();
        tier.prepared(&two, "2HHN", &tel).unwrap();
        assert!(counter(&tel, "gridcache.evicted") > 0);
        assert_eq!(tier.receptors(), 1, "the first receptor's entries are gone from the tier");
        // … the reference handed out before is untouched, and asking again
        // recomputes the same bytes
        assert_eq!(&*held.pdbqt, text);
        let again = tier.prepared(&one, "1HUC", &tel).unwrap();
        assert!(!Arc::ptr_eq(&again, &held));
        assert_eq!(again.pdbqt, held.pdbqt);
        assert_eq!(counter(&tel, "receptor.prepared"), 3);
    }
}
