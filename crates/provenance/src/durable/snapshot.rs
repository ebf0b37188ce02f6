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

use crate::durable::codec::{crc32, CodecError, Reader, Writer};
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

fn type_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Text => 2,
        ValueType::Timestamp => 3,
        ValueType::Bool => 4,
    }
}

fn type_from_tag(t: u8) -> Result<ValueType, CodecError> {
    Ok(match t {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Text,
        3 => ValueType::Timestamp,
        4 => ValueType::Bool,
        other => return Err(CodecError(format!("bad type tag {other}"))),
    })
}

/// Rows pulled from the provider per [`TableProvider::scan_batch`] call —
/// all of the store the encoder holds decoded at any one time.
const ENCODE_BATCH: usize = 1024;

/// Serialize a snapshot of the tables `names` (sorted) of `tables` +
/// `counters`, covering WAL frames up to and including `base_seq`.
///
/// Rows stream from the provider into the one output buffer, so the
/// snapshot is the only full copy of the store the writer makes.
pub(crate) fn encode(
    tables: &dyn TableProvider,
    names: &[String],
    counters: &Counters,
    base_seq: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    // magic and version open the buffer; the body (everything after them)
    // is what the trailing CRC covers
    for &b in SNAP_MAGIC {
        w.u8(b);
    }
    w.u32(SNAP_VERSION);
    w.u64(base_seq);
    for c in [
        counters.next_wkf,
        counters.next_act,
        counters.next_task,
        counters.next_file,
        counters.next_param,
        counters.next_machine,
        counters.next_output,
    ] {
        w.i64(c);
    }
    w.u32(names.len() as u32);
    let mut batch = Vec::with_capacity(ENCODE_BATCH);
    for name in names {
        let schema = tables.schema_of(name).expect("listed table");
        w.str(name);
        w.u32(schema.columns.len() as u32);
        for col in &schema.columns {
            w.str(&col.name);
            w.u8(type_tag(col.ty));
        }
        let nrows = tables.row_count(name).expect("listed table");
        w.u32(nrows as u32);
        let (mut pos, mut written) = (0u64, 0u64);
        loop {
            batch.clear();
            tables.scan_batch(name, &mut pos, ENCODE_BATCH, &mut batch).expect("listed table");
            if batch.is_empty() {
                break;
            }
            written += batch.len() as u64;
            for v in batch.iter().flatten() {
                w.value(v);
            }
        }
        // the count is written ahead of the rows: a disagreement would be a
        // snapshot that cannot be loaded back
        assert_eq!(written, nrows, "snapshot of {name}: scan and row count disagree");
    }
    let mut out = w.into_bytes();
    let crc = crc32(&out[12..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialize a snapshot, verifying magic, version, and CRC.
pub(crate) fn decode(bytes: &[u8]) -> Result<(Database, Counters, u64), CodecError> {
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
    let base_seq = r.u64()?;
    let counters = Counters {
        next_wkf: r.i64()?,
        next_act: r.i64()?,
        next_task: r.i64()?,
        next_file: r.i64()?,
        next_param: r.i64()?,
        next_machine: r.i64()?,
        next_output: r.i64()?,
    };
    let mut db = Database::new();
    let ntables = r.u32()?;
    for _ in 0..ntables {
        let name = r.str()?;
        let ncols = r.u32()? as usize;
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = r.str()?;
            let ty = type_from_tag(r.u8()?)?;
            cols.push((cname, ty));
        }
        let schema = Schema::new(&cols.iter().map(|(n, t)| (n.as_str(), *t)).collect::<Vec<_>>());
        db.create_table(&name, schema)
            .map_err(|e| CodecError(format!("snapshot table {name}: {e}")))?;
        let nrows = r.u32()? as usize;
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(r.value()?);
            }
            db.insert(&name, row)
                .map_err(|e| CodecError(format!("snapshot row in {name}: {e}")))?;
        }
    }
    if r.remaining() != 0 {
        return Err(CodecError(format!("{} trailing snapshot bytes", r.remaining())));
    }
    Ok((db, counters, base_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        body.u64(base_seq);
        for c in [
            counters.next_wkf,
            counters.next_act,
            counters.next_task,
            counters.next_file,
            counters.next_param,
            counters.next_machine,
            counters.next_output,
        ] {
            body.i64(c);
        }
        let names = db.table_names();
        body.u32(names.len() as u32);
        for name in names {
            let t = db.table(name).expect("listed table");
            body.str(name);
            body.u32(t.schema.columns.len() as u32);
            for col in &t.schema.columns {
                body.str(&col.name);
                body.u8(type_tag(col.ty));
            }
            body.u32(t.rows().len() as u32);
            for row in t.rows() {
                for v in row {
                    body.value(v);
                }
            }
        }
        let body = body.into_bytes();
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
        let (db2, c2, seq) = decode(&bytes).unwrap();
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

    #[test]
    fn truncated_snapshot_rejected() {
        let bytes = encode_db(&sample_db(), &Counters::default(), 3);
        for cut in [0, 8, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
