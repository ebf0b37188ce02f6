//! Paged storage layer: slotted-page heap files, a pinning/LRU page cache,
//! and B+tree primary + secondary indexes — plus the [`TableProvider`]
//! abstraction the Volcano executor scans through.
//!
//! [`PagedDb`] is the table engine under every
//! [`ProvenanceStore`](crate::ProvenanceStore): rows live in slotted heap
//! pages behind a bounded [`PageCache`](pager::PageCache); a primary B+tree
//! maps `rowid → record` and secondary B+trees map encoded column keys (see
//! [`keys`]) back to rowids, so the store does not have to fit in RAM and
//! selective steering queries are not full scans.
//!
//! Contract of every provider (relied on by the executor for row-order
//! parity with the reference engine): rowids are dense-ish, monotonically
//! increasing insertion ids; sequential scans and index lookups both yield
//! rows in ascending-rowid (= insertion) order; updates keep their rowid.
//! Index lookups may return a *superset* of true matches (truncated keys) —
//! the executor re-applies every predicate.

pub mod btree;
pub mod keys;
pub mod page;
pub mod paged;
pub mod pager;

use std::ops::Bound;

use crate::table::{DbError, Schema};
use crate::value::Value;

pub use paged::PagedDb;

/// A secondary index visible to the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexMeta {
    /// Index name (unique per table).
    pub name: String,
    /// Indexed column names, in key order.
    pub columns: Vec<String>,
}

/// Storage abstraction the Volcano executor runs over.
///
/// Positions (`pos` in [`scan_batch`](TableProvider::scan_batch)) are plain
/// rowids, so a scan operator holds no borrow into the storage between
/// its pulls.
pub trait TableProvider {
    /// Schema of `table`.
    fn schema_of(&self, table: &str) -> Result<Schema, DbError>;
    /// Current row count of `table`.
    fn row_count(&self, table: &str) -> Result<u64, DbError>;
    /// Secondary indexes available on `table` (empty → planner full-scans).
    fn indexes_of(&self, table: &str) -> Vec<IndexMeta>;
    /// Append up to `max` rows with rowid ≥ `*pos` to `out`, in rowid order,
    /// advancing `*pos` past the last row returned.
    fn scan_batch(
        &self,
        table: &str,
        pos: &mut u64,
        max: usize,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), DbError>;
    /// Fetch one row by rowid (`None` if the rowid doesn't exist).
    fn fetch(&self, table: &str, rowid: u64) -> Result<Option<Vec<Value>>, DbError>;
    /// Fetch many rows at once: `result[i]` is the row for `rowids[i]`.
    /// Backends that can amortise index descents across a batch (the paged
    /// store walks its primary leaf chain once for dense, sorted batches)
    /// override this; the default is per-row [`fetch`](Self::fetch).
    fn fetch_batch(&self, table: &str, rowids: &[u64]) -> Result<Vec<Option<Vec<Value>>>, DbError> {
        rowids.iter().map(|&r| self.fetch(table, r)).collect()
    }
    /// Rowids of index entries with encoded keys in `(lo, hi)`, ascending.
    fn index_rowids(
        &self,
        table: &str,
        index: &str,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<u64>, DbError>;
}
