//! Everything that is a pure function of a receptor's bytes, computed once
//! per process: the Hg screen, `prepare_receptor4`, grid load/build and
//! `.map` rendering.
//!
//! A screening campaign is a cross product, so every receptor-side step is
//! the same computation repeated per ligand — and, on an always-on daemon,
//! per campaign. Two types keep it to once:
//!
//! * [`ReceptorCache`] is the **memory tier**: a bounded, shareable handle
//!   with an owner. Whoever outlives campaigns creates one and puts it in
//!   every [`SciDockConfig`](crate::SciDockConfig) it resolves (`scidockd`'s
//!   resolver, a `scidock-worker` process); a one-shot run keeps a private
//!   one. It is never a global.
//! * [`GridCache`] is a **view** for one campaign: the tier handle, an
//!   optional on-disk directory (tier 2) and the campaign's [`FileStore`]
//!   (tier 3).
//!
//! What is keyed by what — always content, never a path, and a name only
//! where the output text carries it:
//!
//! | entry | key |
//! |-------|-----|
//! | grid set | [`grid_set_digest`] (receptor PDBQT text + every map-shaping knob) |
//! | rendered `.map` files | grid digest × receptor name (the header names the receptor) |
//! | parsed receptor (Hg answer + molecule) | FNV-1a of the PDB text |
//! | prepared PDBQT + heavy-atom count | PDB digest × receptor name (the `NAME` record) |
//!
//! Lookups of one key are **single flight**: the key's cell is locked while
//! its value is computed, so racing activations wait for one load, build,
//! parse or rendering instead of each doing their own. A failed computation
//! is not memoised.
//!
//! The tier is **LRU by resident bytes** against `TIER_BUDGET_BYTES`.
//! Eviction only drops the tier's reference: activations and file stores
//! holding the `Arc`s are unaffected, and the next lookup falls through to
//! disk or a rebuild with bit-identical results.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use cumulus::workflow::{ActivityError, FileStore};
use docking::autogrid::GridSet;
use docking::engine::{DockConfig, EngineKind};
use docking::gridio::{fnv1a64, grid_set_digest};
use molkit::charges::assign_gasteiger;
use molkit::formats::{pdb, pdbqt};
use molkit::typer::assign_ad_types;
use molkit::{Element, Molecule};
use telemetry::Telemetry;

/// Resident bytes (grid values, rendered and prepared texts, the atoms and
/// bonds of parsed receptors) a tier keeps before evicting its least recently used entries. The
/// paper's 238 receptors are ≈ 0.6 GB at its grid settings, which an
/// always-on daemon must not pin; this holds about a hundred of them.
const TIER_BUDGET_BYTES: u64 = 256 << 20;

/// What an entry is and what identifies it (the module table): a content
/// digest, and the receptor name where the cached text carries it.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Grids(u64),
    Maps(u64, String),
    Receptor(u64),
    Pdbqt(u64, String),
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
    state: Mutex<State>,
}

/// The memory tier: every receptor-derived value this process has computed
/// and still holds, shared by each [`GridCache`] view and each workflow
/// built from a config that carries this handle. `Clone` shares the tier;
/// `Default` makes a fresh private one.
#[derive(Clone)]
pub struct ReceptorCache(Arc<Tier>);

impl Default for ReceptorCache {
    fn default() -> Self {
        ReceptorCache::with_budget(TIER_BUDGET_BYTES)
    }
}

impl fmt::Debug for ReceptorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.0.state.lock();
        f.debug_struct("ReceptorCache")
            .field("entries", &st.held.len())
            .field("resident_bytes", &st.resident)
            .field("budget_bytes", &self.0.budget)
            .finish()
    }
}

/// Activity 3's output for one (receptor content, receptor name).
pub struct Prepared {
    /// The receptor PDBQT text, staged by reference by every activation.
    pub pdbqt: Arc<str>,
    /// Heavy atoms, the activity-6 size filter's input.
    pub heavy_atoms: usize,
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
        ReceptorCache(Arc::new(Tier { budget, state: Mutex::default() }))
    }

    /// Does the receptor in `pdb_text` contain mercury? One parse per
    /// content (counted by `receptor.hg_screened`) answers every pair and
    /// feeds [`ReceptorCache::prepared`]. A text that does not parse is not
    /// remembered and answers `false`: activity 3 reports the error.
    pub fn has_hg(&self, pdb_text: &str, tel: &Telemetry) -> bool {
        self.receptor(fnv1a64(pdb_text.as_bytes()), pdb_text, tel).is_ok_and(|r| r.has_hg)
    }

    /// `prepare_receptor4` of `pdb_text` as receptor `name`: typed, charged
    /// and formatted once per (content, name) — counted by
    /// `receptor.prepared`, later calls by `receptor.prep.hit` — from the one
    /// parse [`ReceptorCache::has_hg`] shares.
    pub fn prepared(
        &self,
        pdb_text: &str,
        name: &str,
        tel: &Telemetry,
    ) -> Result<Arc<Prepared>, ActivityError> {
        let digest = fnv1a64(pdb_text.as_bytes());
        let (prepared, computed) =
            self.get_or_try(Key::Pdbqt(digest, name.to_string()), tel, || {
                let receptor = self.receptor(digest, pdb_text, tel)?;
                let mut guard = receptor.mol.lock();
                let (mol, ready) = &mut *guard;
                if !*ready {
                    assign_ad_types(mol);
                    assign_gasteiger(mol, &Default::default());
                    *ready = true;
                }
                mol.name = name.to_string();
                let pdbqt: Arc<str> = pdbqt::write_receptor_pdbqt(mol).into();
                let bytes = pdbqt.len() as u64;
                Ok((Prepared { pdbqt, heavy_atoms: mol.heavy_atom_count() }, bytes))
            })?;
        tel.count(if computed { "receptor.prepared" } else { "receptor.prep.hit" }, 1);
        Ok(prepared)
    }

    /// The one place a receptor PDB is parsed, for the rule and for
    /// activity 3 alike.
    fn receptor(
        &self,
        digest: u64,
        pdb_text: &str,
        tel: &Telemetry,
    ) -> Result<Arc<Receptor>, ActivityError> {
        let (receptor, _) = self.get_or_try(Key::Receptor(digest), tel, || {
            tel.count("receptor.hg_screened", 1);
            let mol = pdb::read_pdb(pdb_text).map_err(|e| ActivityError(format!("pdb: {e}")))?;
            let has_hg = mol.contains_element(Element::Hg);
            let names: usize =
                mol.atoms.iter().map(|a| a.name.capacity() + a.res_name.capacity()).sum();
            let bytes = size_of_val(&mol.atoms[..]) + size_of_val(&mol.bonds[..]) + names;
            Ok((Receptor { has_hg, mol: Mutex::new((mol, false)) }, bytes as u64))
        })?;
        Ok(receptor)
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
    /// caller whose `fill` ran.
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
        let mut cell = slot.lock();
        if let Some(value) = &*cell {
            let value = Arc::clone(value).downcast().expect("a key's variant fixes its value type");
            return Ok((value, false));
        }
        match fill() {
            Ok((value, bytes)) => {
                let value = Arc::new(value);
                *cell = Some(Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
                drop(cell);
                self.charge(&key, &slot, bytes, tel);
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
        match st.held.get_mut(key) {
            Some(held) if Arc::ptr_eq(&held.slot, slot) => held.bytes = bytes,
            // dropped by a failed fill this one waited behind: the value
            // lives by its caller's reference only
            _ => return,
        }
        st.resident += bytes;
        let mut evicted = 0;
        while st.resident > self.0.budget {
            // an unfilled slot (0 bytes) is a computation in flight
            let lru = st.held.iter().filter(|(_, h)| h.bytes > 0).min_by_key(|(_, h)| h.used);
            let Some(victim) = lru.map(|(k, _)| k.clone()) else { break };
            let held = st.held.remove(&victim).expect("found under this lock");
            st.resident -= held.bytes;
            evicted += 1;
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
/// [`GridSet::maps`] order, shared by every activation that stages them.
pub type MapFiles = Arc<[(String, Arc<str>)]>;

/// Content-addressed cache of receptor grids (AutoGrid output is shared by
/// every ligand docked against the same receptor — and, content-addressed,
/// by every *campaign* docking the same receptor under the same knobs).
///
/// Keys are [`grid_set_digest`] values over the receptor PDBQT text plus
/// every map-shaping knob, so renamed or re-staged receptors still share
/// one entry. A `GridCache` is one campaign's view of three read-through
/// tiers:
///
/// 1. process memory — a [`ReceptorCache`] handle, private to this view
///    unless one was passed to [`GridCache::view`]. Beside each grid set it
///    keeps the set's rendered `.map` files, once per receptor *name* (the
///    `.map` header names the receptor, so the texts are keyed by digest
///    **and** name, never by name alone): [`GridCache::get_or_render`]
///    formats them on first use and hands every later activation the same
///    `Arc<str>`s, which the file store then holds by reference,
/// 2. an optional on-disk directory (`<digest>.grid` entries, shared across
///    runs, campaigns, and worker processes on one machine; writes use
///    temp+rename like `provenance::durable` snapshots, so readers never see
///    a torn entry),
/// 3. the campaign's [`FileStore`] under `/gridcache/` — a view publishes
///    an entry there when it builds or disk-loads it (a memory hit publishes
///    nothing), and a read miss goes through the store's fetch hook.
///
/// Entries are written *directly* to tiers 2–3, never through the activation
/// context: cache traffic must not appear as produced files in provenance
/// (a warm-cache run stays byte-identical to a cold one).
#[derive(Default)]
pub struct GridCache {
    tier: ReceptorCache,
    persist: Option<GridCachePersist>,
}

struct GridCachePersist {
    dir: PathBuf,
    files: Arc<FileStore>,
}

impl GridCachePersist {
    fn entry_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{digest:016x}.grid"))
    }

    fn store_path(digest: u64) -> String {
        format!("/gridcache/{digest:016x}.grid")
    }
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

impl GridCache {
    /// A cache with a private memory tier whose entries persist in `dir`
    /// across runs and campaigns and are published to (and fetched from)
    /// `files` under `/gridcache/`.
    pub fn persistent(dir: impl Into<PathBuf>, files: Arc<FileStore>) -> GridCache {
        GridCache::view(ReceptorCache::default(), Some(dir.into()), files)
    }

    /// One campaign's view of an existing memory tier: entries the tier
    /// lacks are loaded from (and built into) `dir`, when given, and
    /// published to `files`.
    pub fn view(tier: ReceptorCache, dir: Option<PathBuf>, files: Arc<FileStore>) -> GridCache {
        GridCache { tier, persist: dir.map(|dir| GridCachePersist { dir, files }) }
    }

    /// Cached grid lookup / computation. Grids are ligand-independent: the
    /// box is sized from the receptor pocket + `cfg.box_edge` and carries
    /// affinity maps for the whole ligand-type superset.
    ///
    /// Emits `gridcache.hit` / `gridcache.miss` counters (memory tier,
    /// whoever owns it) plus `gridcache.bytes` (resident map bytes of freshly
    /// built sets) through `cfg.telemetry`, and builds maps with
    /// `cfg.threads` slab workers. With a persistent tier configured, a
    /// memory miss additionally emits `gridcache.persist.hit` (entry loaded
    /// from disk or the shared file store), or `gridcache.persist.miss` +
    /// `gridcache.persist.write` (built and persisted), and
    /// `gridcache.persist.bytes` (entry bytes moved through the tier).
    pub fn get_or_build(
        &self,
        _receptor_id: &str,
        receptor_pdbqt: &str,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<Arc<GridSet>, ActivityError> {
        Ok(self.grids(receptor_pdbqt, engine, cfg)?.1)
    }

    /// The `.map` files of the grid set [`GridCache::get_or_build`] resolves
    /// (same lookup, same counters, same build on a miss), rendered for
    /// `receptor_id`. The texts are formatted once per (content digest,
    /// receptor name) — counted by `gridcache.maps.rendered` — and every
    /// later call returns the same allocations, so staging them costs one
    /// pointer write per map.
    pub fn get_or_render(
        &self,
        receptor_id: &str,
        receptor_pdbqt: &str,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<MapFiles, ActivityError> {
        let (digest, grids) = self.grids(receptor_pdbqt, engine, cfg)?;
        let tel = &cfg.telemetry;
        let (maps, _) =
            self.tier.get_or_try(Key::Maps(digest, receptor_id.to_string()), tel, || {
                tel.count("gridcache.maps.rendered", 1);
                let maps: MapFiles = docking::mapfile::render_map_files(&grids, receptor_id).into();
                let bytes = maps.iter().map(|(name, text)| (name.len() + text.len()) as u64).sum();
                Ok((maps, bytes))
            })?;
        Ok(MapFiles::clone(&maps))
    }

    fn grids(
        &self,
        receptor_pdbqt: &str,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<(u64, Arc<GridSet>), ActivityError> {
        let digest = grid_set_digest(
            receptor_pdbqt,
            engine.program_name(),
            cfg.grid_spacing,
            cfg.box_edge,
            cfg.pocket_probe,
            &LIGAND_TYPE_SUPERSET,
        );
        let tel = &cfg.telemetry;
        let (grids, computed) = self.tier.get_or_try(Key::Grids(digest), tel, || {
            tel.count("gridcache.miss", 1);
            let grids = match &self.persist {
                Some(p) => match Self::load_persisted(p, digest, cfg) {
                    Some(grids) => grids,
                    None => {
                        tel.count("gridcache.persist.miss", 1);
                        let grids = Self::build(receptor_pdbqt, engine, cfg)?;
                        let text = docking::gridio::serialize_grid_set(&grids);
                        tel.count("gridcache.persist.write", 1);
                        tel.count("gridcache.persist.bytes", text.len() as u64);
                        Self::write_entry(p, digest, &text);
                        p.files.write(&GridCachePersist::store_path(digest), text);
                        grids
                    }
                },
                None => Self::build(receptor_pdbqt, engine, cfg)?,
            };
            let bytes = grids.bytes();
            Ok((grids, bytes))
        })?;
        if !computed {
            tel.count("gridcache.hit", 1);
        }
        Ok((digest, grids))
    }

    /// Try the persistent tiers (disk, then shared file store / `FileReq`
    /// fetch). A hit back-fills whichever tier was missing.
    fn load_persisted(p: &GridCachePersist, digest: u64, cfg: &DockConfig) -> Option<GridSet> {
        let disk = std::fs::read_to_string(p.entry_path(digest)).ok();
        let (text, from_disk): (Arc<str>, bool) = match disk {
            Some(t) => (t.into(), true),
            None => (p.files.read(&GridCachePersist::store_path(digest))?, false),
        };
        // a corrupt or torn entry (integrity digest mismatch) falls back to
        // a rebuild instead of failing the activation
        let grids = docking::gridio::deserialize_grid_set(&text).ok()?;
        cfg.telemetry.count("gridcache.persist.hit", 1);
        cfg.telemetry.count("gridcache.persist.bytes", text.len() as u64);
        if from_disk {
            if !p.files.exists(&GridCachePersist::store_path(digest)) {
                p.files.write(&GridCachePersist::store_path(digest), text);
            }
        } else {
            Self::write_entry(p, digest, &text);
        }
        Some(grids)
    }

    /// Atomically publish an entry on disk: write to a uniquely named temp
    /// file, then rename over the final path (the `provenance::durable`
    /// snapshot discipline). Racing writers produce identical bytes, so
    /// whichever rename lands last is as good as the first; readers only
    /// ever see a complete entry.
    fn write_entry(p: &GridCachePersist, digest: u64, text: &str) {
        if std::fs::create_dir_all(&p.dir).is_err() {
            return; // persistence is best-effort; the build already succeeded
        }
        let seq = GRID_TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = p.dir.join(format!("{digest:016x}.grid.tmp.{}.{seq}", std::process::id()));
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, p.entry_path(digest));
        }
        let _ = std::fs::remove_file(&tmp); // no-op after a successful rename
    }

    /// Build a grid set, counted by `gridcache.bytes`.
    fn build(
        receptor_pdbqt: &str,
        engine: EngineKind,
        cfg: &DockConfig,
    ) -> Result<GridSet, ActivityError> {
        let receptor = pdbqt::read_receptor_pdbqt(receptor_pdbqt)
            .map_err(|e| ActivityError(format!("receptor pdbqt: {e}")))?;
        let pocket = molkit::geometry::find_pocket(&receptor, cfg.pocket_probe)
            .ok_or_else(|| ActivityError("no binding pocket detected".into()))?;
        let spec =
            docking::grid::GridSpec::with_edge(pocket.center, cfg.box_edge, cfg.grid_spacing);
        let grids = match engine {
            EngineKind::Ad4 => docking::autogrid::build_ad4_grids_threads(
                &receptor,
                spec,
                &LIGAND_TYPE_SUPERSET,
                &docking::params::Ad4Params::new(),
                cfg.threads,
            ),
            EngineKind::Vina => docking::autogrid::build_vina_grids_threads(
                &receptor,
                spec,
                &LIGAND_TYPE_SUPERSET,
                &docking::params::VinaParams::default(),
                cfg.threads,
            ),
        };
        cfg.telemetry.count("gridcache.bytes", grids.bytes());
        Ok(grids)
    }

    /// Number of grid sets resident in this view's memory tier.
    pub fn len(&self) -> usize {
        self.tier.grid_sets()
    }

    /// Does the memory tier hold no grid set?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::activities::{build_scidock, stage_inputs, EngineMode, SciDockConfig};
    use crate::dataset::{make_receptor, Dataset, DatasetParams};
    use cumulus::localbackend::LocalConfig;
    use cumulus::{Backend, LocalBackend, RunOutcome, Workflow};
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

    fn pdb_text(id: &str, p: &DatasetParams) -> String {
        pdb::write_pdb(&make_receptor(id, p).structure)
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
    ) -> (RunOutcome, Arc<FileStore>, Arc<ProvenanceStore>) {
        let files = Arc::new(FileStore::new());
        let prov = Arc::new(ProvenanceStore::new());
        let mut input = stage_inputs(ds, &files, &cfg.expdir);
        if ligand_major {
            input.tuples.sort_by_key(|t| t[1].as_str().unwrap().to_string());
        }
        let wf = build_scidock(mode, cfg, Arc::clone(&files));
        let report = LocalBackend::new(LocalConfig::new().with_threads(1))
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
        let broken = "ATOM      1  N   ALA A   1      xx.xxx\n";
        assert!(tier.prepared(broken, "1HUC", &tel).is_err());
        assert!(!tier.has_hg(broken, &tel));
        assert_eq!(counter(&tel, "receptor.hg_screened"), 4, "parsed again each time");
        assert_eq!(tier.receptors(), 2);
        assert_eq!(
            telemetry::registry::unregistered(&tel.snapshot().unwrap()),
            Vec::<String>::new()
        );
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
        let report = LocalBackend::new(LocalConfig::new().with_threads(2))
            .run(&Workflow::new(wf, input).with_files(Arc::clone(&files)), &prov)
            .unwrap();

        // three pairs, three paths, one allocation
        let staged: Vec<Arc<str>> = report
            .final_output()
            .tuples
            .iter()
            .map(|t| files.read(t[3].as_str().unwrap()).unwrap())
            .collect();
        assert_eq!(staged.len(), 3);
        assert!(staged.iter().all(|text| Arc::ptr_eq(text, &staged[0])));
        assert_eq!(counter(&tel, "receptor.prepared"), 1);
        assert_eq!(counter(&tel, "receptor.prep.hit"), 2);

        // … recorded per pair exactly as an unshared preparation would be
        let (text, heavy_atoms) = unshared(&pdb_text("1HUC", &params(0.0)), "1HUC");
        assert_eq!(&*staged[0], text);
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
        let cache = GridCache::default();
        let gate = Barrier::new(8);
        let got: Vec<(Arc<Prepared>, Arc<GridSet>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        let prepared = cache.tier.prepared(&pdb, "1HUC", &tel).unwrap();
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
    fn eviction_drops_only_the_tiers_reference() {
        let tel = Telemetry::attached();
        let (one, two) = (pdb_text("1HUC", &params(0.0)), pdb_text("2HHN", &params(0.0)));
        // holds either receptor's parse + text, never both
        let weigh = |pdb: &str| {
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
