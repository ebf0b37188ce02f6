//! [`PagedDb`]: the paged table store — slotted-page heap files + B+tree
//! primary/secondary indexes over one shared [`PageCache`].
//!
//! Each table keeps:
//! - a heap file (chain of slotted pages) holding codec-encoded rows,
//! - a primary B+tree `rowid (u64 BE) → record id (page << 16 | slot)`,
//! - secondary B+trees `encoded column key ‖ rowid (BE) → rowid`.
//!
//! Updates rewrite in place when the new record fits its slot, otherwise
//! relocate (the primary tree re-points; secondary trees key by rowid and
//! don't care). Oversized records (> ~8 KB) spill into an overflow page
//! chain. Dead space from relocations is not compacted — the provenance
//! workload is append-mostly (one status rewrite per activation at worst).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::durable::codec::{Reader, Writer};
use crate::table::{Database, DbError, Schema};
use crate::value::{Value, ValueType};

use super::btree::BTree;
use super::keys;
use super::page::{self, PAGE_SIZE};
use super::pager::{CacheStats, MemPageStore, PageCache, PageId, PageStore};

/// Default page-cache capacity in frames (× 8 KiB pages = 16 MiB).
pub const DEFAULT_CACHE_PAGES: usize = 2048;

/// Slot value marking an overflow-chain record id.
const OVERFLOW_SLOT: u16 = u16::MAX;
/// Largest record stored inline in a slotted page.
const MAX_INLINE: usize = PAGE_SIZE - 192;
/// Payload bytes per overflow page (8-byte header: next pid + chunk len).
const OVERFLOW_CHUNK: usize = PAGE_SIZE - 8;

fn rid(pid: PageId, slot: u16) -> u64 {
    (pid as u64) << 16 | slot as u64
}

fn rid_parts(r: u64) -> (PageId, u16) {
    ((r >> 16) as PageId, (r & 0xFFFF) as u16)
}

/// Heap file: an append-mostly chain of slotted pages.
struct HeapFile {
    pages: Vec<PageId>,
}

impl HeapFile {
    fn new() -> HeapFile {
        HeapFile { pages: Vec::new() }
    }

    fn insert(&mut self, cache: &PageCache, bytes: &[u8]) -> u64 {
        if bytes.len() > MAX_INLINE {
            return self.insert_overflow(cache, bytes);
        }
        if let Some(&last) = self.pages.last() {
            if let Some(slot) = cache.with_page_mut(last, |p| page::insert(p, bytes)) {
                return rid(last, slot);
            }
        }
        let pid = cache.allocate();
        self.pages.push(pid);
        let slot = cache.with_page_mut(pid, |p| {
            page::init(p);
            page::insert(p, bytes).expect("fresh page holds an inline record")
        });
        rid(pid, slot)
    }

    fn insert_overflow(&self, cache: &PageCache, bytes: &[u8]) -> u64 {
        let chunks: Vec<&[u8]> = bytes.chunks(OVERFLOW_CHUNK).collect();
        let pids: Vec<PageId> = chunks.iter().map(|_| cache.allocate()).collect();
        for (i, (chunk, &pid)) in chunks.iter().zip(&pids).enumerate() {
            let next = pids.get(i + 1).copied().unwrap_or(0);
            cache.with_page_mut(pid, |p| {
                p[..4].copy_from_slice(&next.to_le_bytes());
                p[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                p[8..8 + chunk.len()].copy_from_slice(chunk);
            });
        }
        rid(pids[0], OVERFLOW_SLOT)
    }

    fn get(&self, cache: &PageCache, r: u64) -> Option<Vec<u8>> {
        let (pid, slot) = rid_parts(r);
        if slot == OVERFLOW_SLOT {
            let mut out = Vec::new();
            let mut cur = pid;
            while cur != 0 {
                cur = cache.with_page(cur, |p| {
                    let next = u32::from_le_bytes(p[..4].try_into().expect("4 bytes"));
                    let len = u32::from_le_bytes(p[4..8].try_into().expect("4 bytes")) as usize;
                    out.extend_from_slice(&p[8..8 + len]);
                    next
                });
            }
            return Some(out);
        }
        cache.with_page(pid, |p| page::get(p, slot).map(|b| b.to_vec()))
    }

    /// Rewrite the record at `r`; returns the (possibly relocated) rid.
    fn update(&mut self, cache: &PageCache, r: u64, bytes: &[u8]) -> u64 {
        let (pid, slot) = rid_parts(r);
        if slot != OVERFLOW_SLOT
            && bytes.len() <= MAX_INLINE
            && cache.with_page_mut(pid, |p| page::update_in_place(p, slot, bytes))
        {
            return r;
        }
        if slot != OVERFLOW_SLOT {
            cache.with_page_mut(pid, |p| page::delete(p, slot));
        }
        // old overflow chains are simply abandoned (append-mostly workload)
        self.insert(cache, bytes)
    }
}

fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut w = Writer::new();
    for v in row {
        w.value(v);
    }
    w.into_bytes()
}

fn decode_row(bytes: &[u8], arity: usize) -> Vec<Value> {
    let mut r = Reader::new(bytes);
    let mut row = Vec::with_capacity(arity);
    for _ in 0..arity {
        row.push(r.value().expect("stored row decodes"));
    }
    row
}

struct SecondaryIndex {
    meta: super::IndexMeta,
    cols: Vec<usize>,
    tree: BTree,
}

impl SecondaryIndex {
    fn entry_key(&self, row: &[Value], rowid: u64) -> Vec<u8> {
        keys::entry_key(self.cols.iter().map(|&c| &row[c]), rowid)
    }
}

struct PagedTable {
    schema: Schema,
    heap: HeapFile,
    primary: BTree,
    secondaries: Vec<SecondaryIndex>,
    next_rowid: u64,
    nrows: u64,
}

impl PagedTable {
    fn validate(&self, row: &[Value]) -> Result<(), DbError> {
        if row.len() != self.schema.arity() {
            return Err(DbError::ArityMismatch { expected: self.schema.arity(), got: row.len() });
        }
        for (v, c) in row.iter().zip(&self.schema.columns) {
            if let Some(t) = v.value_type() {
                let ok = t == c.ty || (t == ValueType::Int && c.ty == ValueType::Float);
                if !ok {
                    return Err(DbError::TypeMismatch { column: c.name.clone(), expected: c.ty });
                }
            }
        }
        Ok(())
    }
}

/// `name` as the table map spells it — borrowed when it is already lower
/// case, which every internal caller's is.
fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Mutable lookup over the table map alone, so callers keep the page cache
/// borrowed beside it.
fn table_mut<'a>(
    tables: &'a mut BTreeMap<String, PagedTable>,
    name: &str,
) -> Result<&'a mut PagedTable, DbError> {
    tables.get_mut(table_key(name).as_ref()).ok_or_else(|| DbError::NoSuchTable(name.to_string()))
}

/// The paged table store (see module docs).
pub struct PagedDb {
    cache: PageCache,
    tables: BTreeMap<String, PagedTable>,
}

impl PagedDb {
    /// New store over `store` with a cache of `cache_pages` frames.
    pub fn new(store: Box<dyn PageStore>, cache_pages: usize) -> PagedDb {
        PagedDb { cache: PageCache::new(store, cache_pages), tables: BTreeMap::new() }
    }

    /// Memory-backed store with the default cache size (tests, benches).
    pub fn in_memory() -> PagedDb {
        PagedDb::new(Box::new(MemPageStore::new()), DEFAULT_CACHE_PAGES)
    }

    fn table(&self, name: &str) -> Result<&PagedTable, DbError> {
        self.tables
            .get(table_key(name).as_ref())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        let key = table_key(name).into_owned();
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_string()));
        }
        let t = PagedTable {
            schema,
            heap: HeapFile::new(),
            primary: BTree::create(&self.cache),
            secondaries: Vec::new(),
            next_rowid: 0,
            nrows: 0,
        };
        self.tables.insert(key, t);
        Ok(())
    }

    /// Create a secondary index over `cols`, backfilling existing rows.
    pub fn create_index(&mut self, table: &str, name: &str, cols: &[&str]) -> Result<(), DbError> {
        let t = self.table(table)?;
        if t.secondaries.iter().any(|s| s.meta.name.eq_ignore_ascii_case(name)) {
            return Err(DbError::TableExists(format!("{table}.{name}")));
        }
        let mut col_idx = Vec::with_capacity(cols.len());
        for c in cols {
            col_idx.push(t.schema.index_of(c).ok_or_else(|| DbError::TypeMismatch {
                column: format!("{table}.{c}"),
                expected: ValueType::Text,
            })?);
        }
        let mut idx = SecondaryIndex {
            meta: super::IndexMeta {
                name: name.to_string(),
                columns: cols.iter().map(|c| c.to_string()).collect(),
            },
            cols: col_idx,
            tree: BTree::create(&self.cache),
        };
        // backfill from existing rows
        for (rowid, row) in self.scan_entries(table, 0, usize::MAX)? {
            let k = idx.entry_key(&row, rowid);
            idx.tree.insert(&self.cache, &k, rowid);
        }
        table_mut(&mut self.tables, table)?.secondaries.push(idx);
        Ok(())
    }

    /// Insert a row (validated like [`crate::table::Table::insert`]);
    /// returns its rowid.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<u64, DbError> {
        let cache = &self.cache;
        let t = table_mut(&mut self.tables, table)?;
        t.validate(&row)?;
        let rowid = t.next_rowid;
        t.next_rowid += 1;
        let r = t.heap.insert(cache, &encode_row(&row));
        t.primary.insert(cache, &rowid.to_be_bytes(), r);
        for s in &mut t.secondaries {
            let k = s.entry_key(&row, rowid);
            s.tree.insert(cache, &k, rowid);
        }
        t.nrows += 1;
        Ok(rowid)
    }

    /// Replace the row at `rowid`, maintaining all indexes.
    pub fn update(&mut self, table: &str, rowid: u64, row: Vec<Value>) -> Result<(), DbError> {
        let (old_rid, old) = self
            .fetch_located(table, rowid)?
            .ok_or_else(|| DbError::NoSuchTable(format!("{table} rowid {rowid}")))?;
        self.rewrite(table, rowid, old_rid, &old, row)
    }

    /// Replace the first row (insertion order) whose `col` equals `key`;
    /// `Ok(false)` when there is none. The row is located once — index
    /// lookup, primary descent, heap read — and that one resolution serves
    /// both the match and the rewrite.
    pub fn update_by_int(
        &mut self,
        table: &str,
        col: &str,
        key: i64,
        row: Vec<Value>,
    ) -> Result<bool, DbError> {
        let Some((rowid, old_rid, old)) = self.find_by_int(table, col, key)? else {
            return Ok(false);
        };
        self.rewrite(table, rowid, old_rid, &old, row)?;
        Ok(true)
    }

    /// Overwrite the row `old`, stored at `old_rid` under `rowid`, with `row`.
    fn rewrite(
        &mut self,
        table: &str,
        rowid: u64,
        old_rid: u64,
        old: &[Value],
        row: Vec<Value>,
    ) -> Result<(), DbError> {
        let cache = &self.cache;
        let t = table_mut(&mut self.tables, table)?;
        t.validate(&row)?;
        for s in &mut t.secondaries {
            let ko = s.entry_key(old, rowid);
            let kn = s.entry_key(&row, rowid);
            if ko != kn {
                s.tree.delete(cache, &ko);
                s.tree.insert(cache, &kn, rowid);
            }
        }
        let new_rid = t.heap.update(cache, old_rid, &encode_row(&row));
        if new_rid != old_rid {
            t.primary.insert(cache, &rowid.to_be_bytes(), new_rid);
        }
        Ok(())
    }

    /// `(rowid, record id, row)` of the first row (insertion order) whose
    /// `col` equals `key`.
    fn find_by_int(
        &self,
        table: &str,
        col: &str,
        key: i64,
    ) -> Result<Option<(u64, u64, Vec<Value>)>, DbError> {
        let t = self.table(table)?;
        let ci =
            t.schema.index_of(col).ok_or_else(|| DbError::NoSuchTable(format!("{table}.{col}")))?;
        let target = Value::Int(key);
        // indexed path: single-column index on `col`
        if let Some(s) = t.secondaries.iter().find(|s| s.cols == [ci]) {
            let (lo, hi) = keys::eq_range(std::slice::from_ref(&target));
            let mut entries = Vec::new();
            t.tree_collect(&s.tree, &self.cache, &lo, &hi, &mut entries);
            let mut rowids: Vec<u64> = entries.into_iter().map(|(_, v)| v).collect();
            rowids.sort_unstable();
            for rowid in rowids {
                if let Some((r, row)) = self.fetch_located(table, rowid)? {
                    if row[ci].sql_eq(&target) == Some(true) {
                        return Ok(Some((rowid, r, row)));
                    }
                }
            }
            return Ok(None);
        }
        // full scan in insertion order
        for (rowid, row) in self.scan_entries(table, 0, usize::MAX)? {
            if row[ci].sql_eq(&target) == Some(true) {
                let r = t.primary.get(&self.cache, &rowid.to_be_bytes()).expect("scanned rowid");
                return Ok(Some((rowid, r, row)));
            }
        }
        Ok(None)
    }

    fn fetch_internal(&self, table: &str, rowid: u64) -> Result<Option<Vec<Value>>, DbError> {
        Ok(self.fetch_located(table, rowid)?.map(|(_, row)| row))
    }

    /// The row at `rowid` and the record id it is stored under.
    fn fetch_located(&self, table: &str, rowid: u64) -> Result<Option<(u64, Vec<Value>)>, DbError> {
        let t = self.table(table)?;
        let Some(r) = t.primary.get(&self.cache, &rowid.to_be_bytes()) else {
            return Ok(None);
        };
        let bytes = t.heap.get(&self.cache, r).expect("primary rid resolves");
        Ok(Some((r, decode_row(&bytes, t.schema.arity()))))
    }

    /// `(rowid, row)` pairs with rowid ≥ `pos`, up to `max`, insertion order.
    pub fn scan_entries(
        &self,
        table: &str,
        pos: u64,
        max: usize,
    ) -> Result<Vec<(u64, Vec<Value>)>, DbError> {
        let t = self.table(table)?;
        let mut entries = Vec::new();
        t.primary.collect_range(
            &self.cache,
            Bound::Included(&pos.to_be_bytes()[..]),
            Bound::Unbounded,
            max,
            &mut entries,
        );
        let mut out = Vec::with_capacity(entries.len());
        for (k, r) in entries {
            let rowid = u64::from_be_bytes(k[..8].try_into().expect("rowid key"));
            let bytes = t.heap.get(&self.cache, r).expect("primary rid resolves");
            out.push((rowid, decode_row(&bytes, t.schema.arity())));
        }
        Ok(out)
    }

    /// Names of all tables, sorted (mirrors [`Database::table_names`]).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Page-cache counters (for the bench and diagnostics).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Write all dirty pages back to the page store (checkpoint hook).
    pub fn flush_pages(&self) {
        self.cache.flush();
    }

    /// Materialize the whole store as an in-memory [`Database`] (used by
    /// the durable engine's snapshot writer — checkpoints are rare).
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for name in self.table_names().into_iter().map(str::to_string).collect::<Vec<_>>() {
            let schema = self.table(&name).expect("listed").schema.clone();
            db.create_table(&name, schema).expect("fresh db");
            for (_, row) in self.scan_entries(&name, 0, usize::MAX).expect("listed") {
                db.insert(&name, row).expect("row was validated on the way in");
            }
        }
        db
    }

    /// Exhaustive structural check: every row reachable through the primary
    /// index, row counts consistent, and every secondary index holding
    /// exactly one correctly keyed entry per row. Test/diagnostic hook.
    pub fn verify_integrity(&self) -> Result<(), String> {
        for (name, t) in &self.tables {
            let rows = self.scan_entries(name, 0, usize::MAX).map_err(|e| e.to_string())?;
            if rows.len() as u64 != t.nrows {
                return Err(format!(
                    "{name}: scan found {} rows, expected {}",
                    rows.len(),
                    t.nrows
                ));
            }
            for s in &t.secondaries {
                let mut entries = Vec::new();
                s.tree.collect_range(
                    &self.cache,
                    Bound::Unbounded,
                    Bound::Unbounded,
                    usize::MAX,
                    &mut entries,
                );
                if entries.len() as u64 != t.nrows {
                    return Err(format!(
                        "{name}.{}: {} index entries, expected {}",
                        s.meta.name,
                        entries.len(),
                        t.nrows
                    ));
                }
                for (rowid, row) in &rows {
                    let k = s.entry_key(row, *rowid);
                    if s.tree.get(&self.cache, &k) != Some(*rowid) {
                        return Err(format!(
                            "{name}.{}: missing entry for rowid {rowid}",
                            s.meta.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl PagedTable {
    fn tree_collect(
        &self,
        tree: &BTree,
        cache: &PageCache,
        lo: &Bound<Vec<u8>>,
        hi: &Bound<Vec<u8>>,
        out: &mut Vec<(Vec<u8>, u64)>,
    ) {
        let lo = match lo {
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match hi {
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            Bound::Unbounded => Bound::Unbounded,
        };
        tree.collect_range(cache, lo, hi, usize::MAX, out);
    }
}

impl super::TableProvider for PagedDb {
    fn schema_of(&self, table: &str) -> Result<Schema, DbError> {
        Ok(self.table(table)?.schema.clone())
    }

    fn row_count(&self, table: &str) -> Result<u64, DbError> {
        Ok(self.table(table)?.nrows)
    }

    fn indexes_of(&self, table: &str) -> Vec<super::IndexMeta> {
        self.table(table)
            .map(|t| t.secondaries.iter().map(|s| s.meta.clone()).collect())
            .unwrap_or_default()
    }

    fn scan_batch(
        &self,
        table: &str,
        pos: &mut u64,
        max: usize,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), DbError> {
        let entries = self.scan_entries(table, *pos, max)?;
        if let Some((last, _)) = entries.last() {
            *pos = last + 1;
        }
        out.extend(entries.into_iter().map(|(_, row)| row));
        Ok(())
    }

    fn fetch(&self, table: &str, rowid: u64) -> Result<Option<Vec<Value>>, DbError> {
        self.fetch_internal(table, rowid)
    }

    fn fetch_batch(&self, table: &str, rowids: &[u64]) -> Result<Vec<Option<Vec<Value>>>, DbError> {
        let t = self.table(table)?;
        let (Some(&min), Some(&max)) = (rowids.iter().min(), rowids.iter().max()) else {
            return Ok(Vec::new());
        };
        // a dense batch rides one primary leaf walk instead of one descent
        // per rowid; sparse batches would drag in too many uninvolved
        // entries, so they take the per-row path
        if max - min + 1 > rowids.len() as u64 * 8 {
            return rowids.iter().map(|&r| self.fetch_internal(table, r)).collect();
        }
        let mut entries = Vec::with_capacity(rowids.len());
        t.primary.collect_range(
            &self.cache,
            Bound::Included(&min.to_be_bytes()[..]),
            Bound::Included(&max.to_be_bytes()[..]),
            usize::MAX,
            &mut entries,
        );
        let by_rowid: HashMap<u64, u64> = entries
            .into_iter()
            .map(|(k, r)| (u64::from_be_bytes(k[..8].try_into().expect("rowid key")), r))
            .collect();
        Ok(rowids
            .iter()
            .map(|rowid| {
                by_rowid.get(rowid).map(|&r| {
                    let bytes = t.heap.get(&self.cache, r).expect("primary rid resolves");
                    decode_row(&bytes, t.schema.arity())
                })
            })
            .collect())
    }

    fn index_rowids(
        &self,
        table: &str,
        index: &str,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<u64>, DbError> {
        let t = self.table(table)?;
        let s = t.secondaries.iter().find(|s| s.meta.name.eq_ignore_ascii_case(index)).ok_or_else(
            || DbError::NoSuchIndex { table: table.to_string(), index: index.to_string() },
        )?;
        let mut entries = Vec::new();
        s.tree.collect_range(&self.cache, lo, hi, usize::MAX, &mut entries);
        let mut rowids: Vec<u64> = entries.into_iter().map(|(_, v)| v).collect();
        rowids.sort_unstable();
        Ok(rowids)
    }
}

#[cfg(test)]
mod tests {
    use super::super::TableProvider;
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("score", ValueType::Float),
        ])
    }

    fn sample() -> PagedDb {
        let mut db = PagedDb::in_memory();
        db.create_table("t", schema()).unwrap();
        db.create_index("t", "ix_t_id", &["id"]).unwrap();
        db.create_index("t", "ix_t_name", &["name"]).unwrap();
        for i in 0..500i64 {
            db.insert(
                "t",
                vec![
                    Value::Int(i % 50),
                    Value::Text(format!("n{:03}", i % 7)),
                    Value::Float(i as f64 / 4.0),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn insert_scan_roundtrip_in_insertion_order() {
        let db = sample();
        let rows = db.scan_entries("t", 0, usize::MAX).unwrap();
        assert_eq!(rows.len(), 500);
        for (i, (rowid, row)) in rows.iter().enumerate() {
            assert_eq!(*rowid, i as u64);
            assert_eq!(row[0], Value::Int(i as i64 % 50));
        }
        db.verify_integrity().unwrap();
    }

    #[test]
    fn index_eq_lookup_matches_scan_filter() {
        let db = sample();
        let (lo, hi) = keys::eq_range(&[Value::Int(7)]);
        let lo = match &lo {
            Bound::Included(k) => Bound::Included(k.as_slice()),
            _ => unreachable!(),
        };
        let hi = match &hi {
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            Bound::Unbounded => Bound::Unbounded,
            _ => unreachable!(),
        };
        let rowids = db.index_rowids("t", "ix_t_id", lo, hi).unwrap();
        let expect: Vec<u64> = db
            .scan_entries("t", 0, usize::MAX)
            .unwrap()
            .into_iter()
            .filter(|(_, r)| r[0] == Value::Int(7))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(rowids, expect);
        assert!(!rowids.is_empty());
    }

    #[test]
    fn update_maintains_indexes_and_rowid() {
        let mut db = sample();
        db.update(
            "t",
            3,
            vec![Value::Int(999), Value::Text("relocated-and-much-longer".into()), Value::Null],
        )
        .unwrap();
        let row = db.fetch("t", 3).unwrap().unwrap();
        assert_eq!(row[0], Value::Int(999));
        db.verify_integrity().unwrap();
        // old key gone, new key present
        let (lo, hi) = keys::eq_range(&[Value::Int(999)]);
        let lo = match &lo {
            Bound::Included(k) => Bound::Included(k.as_slice()),
            _ => unreachable!(),
        };
        let hi = match &hi {
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            Bound::Unbounded => Bound::Unbounded,
            _ => unreachable!(),
        };
        assert_eq!(db.index_rowids("t", "ix_t_id", lo, hi).unwrap(), vec![3]);
    }

    #[test]
    fn oversized_rows_take_the_overflow_path() {
        let mut db = PagedDb::in_memory();
        db.create_table("big", Schema::new(&[("x", ValueType::Text)])).unwrap();
        let blob = "B".repeat(3 * PAGE_SIZE);
        db.insert("big", vec![Value::Text(blob.clone())]).unwrap();
        db.insert("big", vec![Value::Text("small".into())]).unwrap();
        let rows = db.scan_entries("big", 0, usize::MAX).unwrap();
        assert_eq!(rows[0].1[0], Value::Text(blob.clone()));
        assert_eq!(rows[1].1[0], Value::Text("small".into()));
        // oversized update relocates through the overflow path too
        let bigger = "C".repeat(4 * PAGE_SIZE);
        db.update("big", 1, vec![Value::Text(bigger.clone())]).unwrap();
        assert_eq!(db.fetch("big", 1).unwrap().unwrap()[0], Value::Text(bigger));
        db.verify_integrity().unwrap();
    }

    #[test]
    fn update_by_int_rewrites_the_first_insertion() {
        let mut db = sample();
        let new = |id: i64| vec![Value::Int(id), Value::Text("rewritten".into()), Value::Null];
        // id 7 appears at rowids 7, 57, 107, ... → the first is rewritten
        assert!(db.update_by_int("t", "id", 7, new(700)).unwrap());
        assert_eq!(db.fetch("t", 7).unwrap().unwrap(), new(700));
        assert_eq!(db.fetch("t", 57).unwrap().unwrap()[0], Value::Int(7));
        // no such key: nothing changes
        assert!(!db.update_by_int("t", "id", 12345, new(1)).unwrap());
        // unindexed column falls back to a scan (score 0.0 is rowid 0)
        assert!(db.update_by_int("t", "score", 0, new(800)).unwrap());
        assert_eq!(db.fetch("t", 0).unwrap().unwrap(), new(800));
        db.verify_integrity().unwrap();
    }

    /// The steering write pattern, at length: every rewrite deletes the old
    /// `status` / `wkfid‖status` / `endtime` keys — leaving holes in leaves
    /// that keep taking inserts — and reinserts under the new values.
    #[test]
    fn update_by_int_storms_keep_every_index_whole() {
        let mut db = PagedDb::in_memory();
        db.create_table(
            "act",
            Schema::new(&[
                ("taskid", ValueType::Int),
                ("wkfid", ValueType::Int),
                ("status", ValueType::Text),
                ("endtime", ValueType::Timestamp),
            ]),
        )
        .unwrap();
        db.create_index("act", "ix_taskid", &["taskid"]).unwrap();
        db.create_index("act", "ix_status", &["status"]).unwrap();
        db.create_index("act", "ix_wkfid_status", &["wkfid", "status"]).unwrap();
        db.create_index("act", "ix_endtime", &["endtime"]).unwrap();
        let row = |task: i64, status: &str, end: f64| {
            vec![
                Value::Int(task),
                Value::Int(task % 7),
                Value::Text(status.into()),
                Value::Timestamp(end),
            ]
        };
        let n = 4000i64;
        for task in 0..n {
            db.insert("act", row(task, "RUNNING", 0.0)).unwrap();
            // a window of in-flight rows trails the inserts, as under steering
            if task >= 8 {
                let done = task - 8;
                assert!(db.update_by_int("act", "taskid", done, row(done, "FAILED", 1.0)).unwrap());
            }
        }
        db.verify_integrity().unwrap();
        for (round, status) in ["RUNNING", "FINISHED", "RUNNING", "FINISHED"].iter().enumerate() {
            // scattered order, so deletes and reinserts land all over the trees
            for i in 0..n {
                let task = (i * 2_654_435_761) % n;
                let end = (round as i64 * n + i) as f64;
                assert!(db.update_by_int("act", "taskid", task, row(task, status, end)).unwrap());
            }
            db.verify_integrity().unwrap();
        }
        let (lo, hi) = keys::eq_range(&[Value::Text("FINISHED".into())]);
        let lo = match &lo {
            Bound::Included(k) => Bound::Included(k.as_slice()),
            _ => unreachable!(),
        };
        let hi = match &hi {
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            _ => unreachable!(),
        };
        assert_eq!(db.index_rowids("act", "ix_status", lo, hi).unwrap().len() as i64, n);
    }

    #[test]
    fn validation_mirrors_in_memory_table() {
        let mut db = sample();
        assert!(matches!(db.insert("t", vec![Value::Int(1)]), Err(DbError::ArityMismatch { .. })));
        assert!(matches!(
            db.insert("t", vec![Value::Text("x".into()), Value::Null, Value::Null]),
            Err(DbError::TypeMismatch { .. })
        ));
        // Int widens to Float; NULL fits anything
        db.insert("t", vec![Value::Int(1), Value::Null, Value::Int(5)]).unwrap();
        assert!(matches!(db.insert("nope", vec![]), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn to_database_round_trips() {
        let db = sample();
        let mem = db.to_database();
        assert_eq!(mem.table("t").unwrap().len(), 500);
        let rows = db.scan_entries("t", 0, usize::MAX).unwrap();
        for ((_, a), b) in rows.iter().zip(mem.table("t").unwrap().rows()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scan_batch_resumes_from_position() {
        let db = sample();
        let mut pos = 0u64;
        let mut all = Vec::new();
        loop {
            let before = all.len();
            db.scan_batch("t", &mut pos, 64, &mut all).unwrap();
            if all.len() == before {
                break;
            }
        }
        assert_eq!(all.len(), 500);
        assert_eq!(all[499][2], Value::Float(499.0 / 4.0));
    }
}
