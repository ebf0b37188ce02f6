//! Snapshot (checkpoint) format: a full serialization of the provenance
//! tables plus the id counters and the WAL sequence number the snapshot
//! covers.
//!
//! ## Layout
//!
//! ```text
//! file     := "SCWFSNP1" u32:version body u32:crc32(body)
//! body     := u64:base_seq counters u32:ntables table*
//! counters := i64 ×7   (wkf, act, task, file, param, machine, output)
//! table    := str:name u32:ncols (str:col_name u8:type_tag)*
//!             u32:nrows row*
//! row      := value ×ncols
//! ```
//!
//! Snapshots are written to a temp file and renamed into place (see
//! [`crate::durable::io::DirEnv`]), so a crash mid-checkpoint leaves either
//! the old snapshot or the new one — never a torn file. The trailing CRC
//! catches bit rot and any rename-path surprises; a snapshot that fails its
//! CRC is a hard [`Corrupt`](crate::durable::DurableError::Corrupt) error
//! (unlike a torn WAL tail, a bad snapshot cannot be safely truncated).

use crate::codec::{crc32, from_bytes, CodecError, Decode, Encode, Reader, Writer};
use crate::storage::TableProvider;
use crate::table::{Database, Schema};
use crate::value::ValueType;

/// Magic bytes opening every snapshot file.
pub(crate) const SNAP_MAGIC: &[u8; 8] = b"SCWFSNP1";
/// Format version.
pub(crate) const SNAP_VERSION: u32 = 1;

/// The id counters of a `ProvenanceStore` — the non-table state that must
/// survive a restart so recovered stores keep allocating fresh ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Next `hworkflow` id.
    pub next_wkf: i64,
    /// Next `hactivity` id.
    pub next_act: i64,
    /// Next `hactivation` id.
    pub next_task: i64,
    /// Next `hfile` id.
    pub next_file: i64,
    /// Next `hparameter` id.
    pub next_param: i64,
    /// Next `hmachine` id.
    pub next_machine: i64,
    /// Next `houtput` id.
    pub next_output: i64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            next_wkf: 1,
            next_act: 1,
            next_task: 1,
            next_file: 1,
            next_param: 1,
            next_machine: 1,
            next_output: 1,
        }
    }
}

/// The seven counters, in declaration order.
impl Encode for Counters {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.next_wkf).put(&self.next_act).put(&self.next_task).put(&self.next_file);
        w.put(&self.next_param).put(&self.next_machine).put(&self.next_output);
    }
}

impl Decode for Counters {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Counters {
            next_wkf: r.get()?,
            next_act: r.get()?,
            next_task: r.get()?,
            next_file: r.get()?,
            next_param: r.get()?,
            next_machine: r.get()?,
            next_output: r.get()?,
        })
    }
}

impl Encode for ValueType {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            ValueType::Int => 0,
            ValueType::Float => 1,
            ValueType::Text => 2,
            ValueType::Timestamp => 3,
            ValueType::Bool => 4,
        });
    }
}

impl Decode for ValueType {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => ValueType::Int,
            1 => ValueType::Float,
            2 => ValueType::Text,
            3 => ValueType::Timestamp,
            4 => ValueType::Bool,
            other => return Err(CodecError(format!("bad type tag {other}"))),
        })
    }
}

/// Rows pulled from the provider per [`TableProvider::scan_batch`] call —
/// all of the store the encoder holds decoded at any one time.
const ENCODE_BATCH: usize = 1024;

/// A snapshot body — everything between the version and the CRC — as it
/// decodes.
#[derive(Debug, PartialEq)]
pub(crate) struct Snapshot {
    /// The tables.
    pub(crate) db: Database,
    /// The id counters.
    pub(crate) counters: Counters,
    /// The last WAL sequence number the snapshot covers.
    pub(crate) base_seq: u64,
}

/// Write a snapshot body: `base_seq`, `counters`, then the tables `names`
/// of `tables`. Rows stream from the provider into `w`, so the encoding is
/// the only full copy of the store the writer makes.
fn write_body(
    w: &mut Writer,
    tables: &dyn TableProvider,
    names: &[String],
    counters: &Counters,
    base_seq: u64,
) {
    w.put(&base_seq).put(counters).len(names.len());
    let mut batch = Vec::with_capacity(ENCODE_BATCH);
    for name in names {
        let schema = tables.schema_of(name).expect("listed table");
        w.put(name).len(schema.columns.len());
        for col in &schema.columns {
            w.put(&col.name).put(&col.ty);
        }
        let nrows = tables.row_count(name).expect("listed table");
        w.len(usize::try_from(nrows).unwrap_or(usize::MAX));
        let (mut pos, mut written) = (0u64, 0u64);
        loop {
            batch.clear();
            tables.scan_batch(name, &mut pos, ENCODE_BATCH, &mut batch).expect("listed table");
            if batch.is_empty() {
                break;
            }
            written += batch.len() as u64;
            for v in batch.iter().flatten() {
                w.put(v);
            }
        }
        // the count is written ahead of the rows: a disagreement would be a
        // snapshot that cannot be loaded back
        assert_eq!(written, nrows, "snapshot of {name}: scan and row count disagree");
    }
}

impl Encode for Snapshot {
    fn encode(&self, w: &mut Writer) {
        let names: Vec<String> = self.db.table_names().iter().map(|n| n.to_string()).collect();
        write_body(w, &self.db, &names, &self.counters, self.base_seq);
    }
}

impl Decode for Snapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (base_seq, counters) = (r.get()?, r.get()?);
        let mut db = Database::new();
        for _ in 0..r.count()? {
            let name: String = r.get()?;
            let cols: Vec<(String, ValueType)> = r.get()?;
            let schema =
                Schema::new(&cols.iter().map(|(n, t)| (n.as_str(), *t)).collect::<Vec<_>>());
            db.create_table(&name, schema)
                .map_err(|e| CodecError(format!("snapshot table {name}: {e}")))?;
            // a row takes at least a byte per column, and every store
            // table has a column
            for _ in 0..r.count()? {
                let row = cols.iter().map(|_| r.get()).collect::<Result<Vec<_>, _>>()?;
                db.insert(&name, row)
                    .map_err(|e| CodecError(format!("snapshot row in {name}: {e}")))?;
            }
        }
        Ok(Snapshot { db, counters, base_seq })
    }
}

/// Serialize a snapshot of the tables `names` (sorted) of `tables` +
/// `counters`, covering WAL frames up to and including `base_seq`.
///
/// # Panics
/// Panics if a table, column or row count, or a text, overflows its u32
/// prefix (4 Gi rows in one table) — like any failed checkpoint.
pub(crate) fn encode(
    tables: &dyn TableProvider,
    names: &[String],
    counters: &Counters,
    base_seq: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    // magic and version open the buffer; the body (everything after them)
    // is what the trailing CRC covers
    w.bytes(SNAP_MAGIC).put(&SNAP_VERSION);
    write_body(&mut w, tables, names, counters, base_seq);
    let mut out = w.finish().expect("snapshot counts fit their u32 prefixes");
    let crc = crc32(&out[12..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialize a snapshot, verifying magic, version, and CRC.
pub(crate) fn decode(bytes: &[u8]) -> Result<Snapshot, CodecError> {
    if bytes.len() < 16 {
        return Err(CodecError("snapshot shorter than header".into()));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(CodecError("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAP_VERSION {
        return Err(CodecError(format!("unsupported snapshot version {version}")));
    }
    let body = &bytes[12..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(CodecError("snapshot CRC mismatch".into()));
    }
    from_bytes(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::testing::{check_codec, Gen};
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(&[
                ("id", ValueType::Int),
                ("name", ValueType::Text),
                ("score", ValueType::Float),
                ("when", ValueType::Timestamp),
                ("ok", ValueType::Bool),
            ]),
        )
        .unwrap();
        db.insert(
            "t",
            vec![
                Value::Int(1),
                Value::Text("a".into()),
                Value::Float(0.5),
                Value::Timestamp(9.0),
                Value::Bool(true),
            ],
        )
        .unwrap();
        db.insert("t", vec![Value::Int(2), Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        db.create_table("empty", Schema::new(&[("x", ValueType::Int)])).unwrap();
        db
    }

    fn names(db: &Database) -> Vec<String> {
        db.table_names().iter().map(|n| n.to_string()).collect()
    }

    /// [`encode`] over every table of `db`.
    fn encode_db(db: &Database, counters: &Counters, base_seq: u64) -> Vec<u8> {
        encode(db, &names(db), counters, base_seq)
    }

    /// The encoder as it was before it streamed from a [`TableProvider`]
    /// (PR 14): walks a materialized [`Database`] into a body buffer, then
    /// copies the body between header and CRC. Kept as the byte-for-byte
    /// reference: existing `snapshot.bin` files must keep loading, and new
    /// ones must be what that encoder would have written.
    fn reference_encode(db: &Database, counters: &Counters, base_seq: u64) -> Vec<u8> {
        let mut body = Writer::new();
        body.put(&base_seq);
        for c in [
            counters.next_wkf,
            counters.next_act,
            counters.next_task,
            counters.next_file,
            counters.next_param,
            counters.next_machine,
            counters.next_output,
        ] {
            body.put(&c);
        }
        let names = db.table_names();
        body.len(names.len());
        for name in names {
            let t = db.table(name).expect("listed table");
            body.put(name);
            body.len(t.schema.columns.len());
            for col in &t.schema.columns {
                body.put(&col.name);
                body.u8(match col.ty {
                    ValueType::Int => 0,
                    ValueType::Float => 1,
                    ValueType::Text => 2,
                    ValueType::Timestamp => 3,
                    ValueType::Bool => 4,
                });
            }
            body.len(t.rows().len());
            for row in t.rows() {
                for v in row {
                    body.put(v);
                }
            }
        }
        let body = body.finish().unwrap();
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    #[test]
    fn bytes_match_the_reference_encoder_on_both_providers() {
        // more rows than one scan batch, so the streaming loop is crossed
        let mut db = sample_db();
        for i in 0..(2 * ENCODE_BATCH as i64 + 7) {
            db.insert("empty", vec![Value::Int(i)]).unwrap();
        }
        let counters = Counters { next_file: 31, ..Default::default() };
        let expect = reference_encode(&db, &counters, 9);
        assert_eq!(encode_db(&db, &counters, 9), expect);

        let mut paged = crate::storage::PagedDb::in_memory();
        for name in db.table_names() {
            let t = db.table(name).unwrap();
            paged.create_table(name, t.schema.clone()).unwrap();
            for row in t.rows() {
                paged.insert(name, row.clone()).unwrap();
            }
        }
        assert_eq!(encode(&paged, &names(&db), &counters, 9), expect);
    }

    #[test]
    fn roundtrip() {
        let db = sample_db();
        let counters = Counters { next_wkf: 4, next_task: 99, ..Default::default() };
        let bytes = encode_db(&db, &counters, 17);
        let Snapshot { db: db2, counters: c2, base_seq: seq } = decode(&bytes).unwrap();
        assert_eq!(seq, 17);
        assert_eq!(c2, counters);
        assert_eq!(db2.table_names(), db.table_names());
        let t = db2.table("t").unwrap();
        assert_eq!(t.schema, db.table("t").unwrap().schema);
        assert_eq!(t.rows(), db.table("t").unwrap().rows());
        assert!(db2.table("empty").unwrap().is_empty());
    }

    #[test]
    fn crc_detects_corruption() {
        let bytes = encode_db(&sample_db(), &Counters::default(), 0);
        for pos in [12, 20, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(decode(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn header_validation() {
        assert!(decode(b"").is_err());
        assert!(decode(b"NOTMAGIC\x01\x00\x00\x00\x00\x00\x00\x00").is_err());
        let mut bytes = encode_db(&sample_db(), &Counters::default(), 0);
        bytes[8] = 9; // version
        assert!(decode(&bytes).is_err());
    }

    /// A body of up to three tables of one to four typed columns, each
    /// cell a value of its column's type or NULL.
    fn any_snapshot(g: &mut Gen) -> Snapshot {
        use ValueType::*;
        let mut db = Database::new();
        for t in 0..g.below(4) {
            let types: Vec<ValueType> =
                (0..=g.below(4)).map(|_| [Int, Float, Text, Timestamp, Bool][g.below(5)]).collect();
            let cols: Vec<(String, ValueType)> =
                types.iter().enumerate().map(|(i, ty)| (format!("c{i}"), *ty)).collect();
            let name = format!("t{t}");
            let cols: Vec<(&str, ValueType)> =
                cols.iter().map(|(n, ty)| (n.as_str(), *ty)).collect();
            db.create_table(&name, Schema::new(&cols)).unwrap();
            for _ in 0..g.below(6) {
                let row = types
                    .iter()
                    .map(|ty| match (g.below(4), ty) {
                        (0, _) => Value::Null,
                        (_, Int) => Value::Int(g.i64()),
                        (_, Float) => Value::Float(g.f64()),
                        (_, Text) => Value::Text(g.text()),
                        (_, Timestamp) => Value::Timestamp(g.f64()),
                        (_, Bool) => Value::Bool(g.bool()),
                    })
                    .collect();
                db.insert(&name, row).unwrap();
            }
        }
        let mut c = || g.i64();
        let counters = Counters {
            next_wkf: c(),
            next_act: c(),
            next_task: c(),
            next_file: c(),
            next_param: c(),
            next_machine: c(),
            next_output: c(),
        };
        Snapshot { db, counters, base_seq: g.u64() }
    }

    #[test]
    fn snapshot_bodies_pass_the_codec_harness() {
        check_codec(any_snapshot, 64);
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let bytes = encode_db(&sample_db(), &Counters::default(), 3);
        for cut in [0, 8, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
