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

use std::collections::HashSet;

use crate::codec::{crc32, CodecError, Decode, Encode, Reader, Writer};
use crate::storage::{PagedDb, TableProvider};
use crate::table::Schema;
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

/// Write a snapshot body: `base_seq`, `counters`, then every table of
/// `db` in name order. Rows stream from the tables into `w`, so the
/// encoding is the only full copy of the store the writer makes.
fn write_body(w: &mut Writer, db: &PagedDb, counters: &Counters, base_seq: u64) {
    let names = db.table_names();
    w.put(&base_seq).put(counters).len(names.len());
    let mut batch = Vec::with_capacity(ENCODE_BATCH);
    for name in names {
        let schema = db.schema_of(name).expect("listed table");
        w.put(name).len(schema.columns.len());
        for col in &schema.columns {
            w.put(&col.name).put(&col.ty);
        }
        let nrows = db.row_count(name).expect("listed table");
        w.len(usize::try_from(nrows).unwrap_or(usize::MAX));
        let (mut pos, mut written) = (0u64, 0u64);
        loop {
            batch.clear();
            db.scan_batch(name, &mut pos, ENCODE_BATCH, &mut batch).expect("listed table");
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

/// Read a snapshot body into `db`, which holds none of its tables: each
/// table is created and its rows inserted as they decode, so `db`'s own
/// insert is what checks every row against its schema. Returns the body's
/// `base_seq` and counters.
fn read_body(r: &mut Reader<'_>, db: &mut PagedDb) -> Result<(u64, Counters), CodecError> {
    let (base_seq, counters) = (r.get()?, r.get()?);
    for _ in 0..r.count()? {
        let name: String = r.get()?;
        let cols: Vec<(String, ValueType)> = r.get()?;
        let mut seen = HashSet::new();
        if !cols.iter().all(|(n, _)| seen.insert(n.to_ascii_lowercase())) {
            return Err(CodecError(format!("snapshot table {name}: duplicate column")));
        }
        let schema = Schema::new(&cols.iter().map(|(n, t)| (n.as_str(), *t)).collect::<Vec<_>>());
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
    Ok((base_seq, counters))
}

/// Serialize a snapshot of every table of `db` + `counters`, covering WAL
/// frames up to and including `base_seq`.
///
/// # Panics
/// Panics if a table, column or row count, or a text, overflows its u32
/// prefix (4 Gi rows in one table) — like any failed checkpoint.
pub(crate) fn encode(db: &PagedDb, counters: &Counters, base_seq: u64) -> Vec<u8> {
    let mut w = Writer::new();
    // magic and version open the buffer; the body (everything after them)
    // is what the trailing CRC covers
    w.bytes(SNAP_MAGIC).put(&SNAP_VERSION);
    write_body(&mut w, db, counters, base_seq);
    let mut out = w.finish().expect("snapshot counts fit their u32 prefixes");
    let crc = crc32(&out[12..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialize a snapshot into `db` (see [`read_body`]) once its magic,
/// version and CRC check out. Returns its `base_seq` and counters.
pub(crate) fn decode_into(bytes: &[u8], db: &mut PagedDb) -> Result<(u64, Counters), CodecError> {
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
    let mut r = Reader::new(body);
    let found = read_body(&mut r, db)?;
    r.finish()?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::testing::{check_codec, Gen};
    use crate::value::Value;

    /// A table as plain data: name, schema, rows.
    type Plain = (String, Schema, Vec<Vec<Value>>);

    /// Every table of `db` as plain data, in name order.
    fn contents(db: &PagedDb) -> Vec<Plain> {
        db.table_names()
            .into_iter()
            .map(|name| {
                let rows = db.scan_entries(name, 0, usize::MAX).unwrap();
                let rows = rows.into_iter().map(|(_, row)| row).collect();
                (name.to_string(), db.schema_of(name).unwrap(), rows)
            })
            .collect()
    }

    fn paged(tables: &[Plain]) -> PagedDb {
        let mut db = PagedDb::in_memory();
        for (name, schema, rows) in tables {
            db.create_table(name, schema.clone()).unwrap();
            for row in rows {
                db.insert(name, row.clone()).unwrap();
            }
        }
        db
    }

    /// Two tables, in name order.
    fn sample() -> Vec<Plain> {
        let t = Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("score", ValueType::Float),
            ("when", ValueType::Timestamp),
            ("ok", ValueType::Bool),
        ]);
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Text("a".into()),
                Value::Float(0.5),
                Value::Timestamp(9.0),
                Value::Bool(true),
            ],
            vec![Value::Int(2), Value::Null, Value::Null, Value::Null, Value::Null],
        ];
        vec![
            ("empty".into(), Schema::new(&[("x", ValueType::Int)]), Vec::new()),
            ("t".into(), t, rows),
        ]
    }

    /// The encoder as it was before it streamed from the tables: walks
    /// materialized tables into a body buffer, then copies the body
    /// between header and CRC. Kept as the byte-for-byte reference:
    /// existing `snapshot.bin` files must keep loading, and new ones must be
    /// what that encoder would have written.
    fn reference_encode(tables: &[Plain], counters: &Counters, base_seq: u64) -> Vec<u8> {
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
        body.len(tables.len());
        for (name, schema, rows) in tables {
            body.put(name);
            body.len(schema.columns.len());
            for col in &schema.columns {
                body.put(&col.name);
                body.u8(match col.ty {
                    ValueType::Int => 0,
                    ValueType::Float => 1,
                    ValueType::Text => 2,
                    ValueType::Timestamp => 3,
                    ValueType::Bool => 4,
                });
            }
            body.len(rows.len());
            for row in rows {
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
    fn bytes_match_the_reference_encoder() {
        // more rows than one scan batch, so the streaming loop is crossed
        let mut tables = sample();
        tables[0].2 = (0..(2 * ENCODE_BATCH as i64 + 7)).map(|i| vec![Value::Int(i)]).collect();
        let counters = Counters { next_file: 31, ..Default::default() };
        assert_eq!(encode(&paged(&tables), &counters, 9), reference_encode(&tables, &counters, 9));
    }

    #[test]
    fn roundtrip() {
        let counters = Counters { next_wkf: 4, next_task: 99, ..Default::default() };
        let bytes = encode(&paged(&sample()), &counters, 17);
        let mut db = PagedDb::in_memory();
        assert_eq!(decode_into(&bytes, &mut db).unwrap(), (17, counters));
        assert_eq!(contents(&db), sample());
    }

    /// Decode `bytes` into a fresh store.
    fn decode(bytes: &[u8]) -> Result<(u64, Counters), CodecError> {
        decode_into(bytes, &mut PagedDb::in_memory())
    }

    #[test]
    fn crc_detects_corruption() {
        let bytes = encode(&paged(&sample()), &Counters::default(), 0);
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
        let mut bytes = encode(&paged(&sample()), &Counters::default(), 0);
        bytes[8] = 9; // version
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn a_table_naming_one_column_twice_is_refused() {
        let mut w = Writer::new();
        w.put(&0u64).put(&Counters::default()).len(1);
        w.put("t").put(&vec![("a".to_string(), ValueType::Int), ("A".into(), ValueType::Text)]);
        w.len(0);
        let err = read_body(&mut Reader::new(&w.finish().unwrap()), &mut PagedDb::in_memory());
        assert!(err.unwrap_err().0.contains("duplicate column"));
    }

    /// A snapshot body as it decodes, for the codec harness.
    struct Snapshot {
        db: PagedDb,
        counters: Counters,
        base_seq: u64,
    }

    impl Encode for Snapshot {
        fn encode(&self, w: &mut Writer) {
            write_body(w, &self.db, &self.counters, self.base_seq);
        }
    }

    impl Decode for Snapshot {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            let mut db = PagedDb::in_memory();
            let (base_seq, counters) = read_body(r, &mut db)?;
            Ok(Snapshot { db, counters, base_seq })
        }
    }

    impl PartialEq for Snapshot {
        fn eq(&self, other: &Snapshot) -> bool {
            (self.base_seq, self.counters) == (other.base_seq, other.counters)
                && contents(&self.db) == contents(&other.db)
        }
    }

    impl std::fmt::Debug for Snapshot {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Snapshot({}, {:?}, {:?})", self.base_seq, self.counters, contents(&self.db))
        }
    }

    /// A body of up to three tables of one to four typed columns, each
    /// cell a value of its column's type or NULL.
    fn any_snapshot(g: &mut Gen) -> Snapshot {
        use ValueType::*;
        let mut db = PagedDb::in_memory();
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
        let bytes = encode(&paged(&sample()), &Counters::default(), 3);
        for cut in [0, 8, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
