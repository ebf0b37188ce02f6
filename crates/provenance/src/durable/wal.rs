//! Write-ahead log format: logical mutation records, length-prefixed and
//! CRC-checksummed. One frame holds one record — one [`WalOp`] — and a
//! record is what one [`crate::provwf::ProvenanceStore`] call commits: a
//! single mutation for the per-row methods, a whole finished activation
//! ([`WalOp::Group`]) for `commit_activation`. A frame is recovered whole or
//! not at all, so a record is the unit of atomicity.
//!
//! ## Frame layout
//!
//! ```text
//! file   := header frame*
//! header := "SCWFWAL1" u32:version            (12 bytes)
//! frame  := u32:payload_len u64:seq payload u32:crc32(seq_le ++ payload)
//! ```
//!
//! `seq` increases by exactly 1 per frame across the store's lifetime
//! (checkpoints do not reset it; the snapshot records the last sequence
//! it contains, and replay skips frames at or below it).
//!
//! ## Versions
//!
//! Version 2 added the [`WalOp::Group`] record (payload tag 8); every other
//! byte is as in version 1, and [`scan`] reads both. The bump exists for the
//! *older* binary: it takes a tag it does not know for a torn tail and would
//! truncate committed records away, whereas a version it does not know is a
//! hard error. A version-1 log is therefore never appended to — the store
//! checkpoints it on open, which rewrites the header (see
//! [`crate::durable::engine::DurableEngine::checkpoint`]).
//!
//! ## Torn-tail rule
//!
//! [`scan`] walks frames from the front and stops at the first frame that
//! is incomplete, fails its CRC, carries an implausible length, breaks the
//! seq chain, or does not decode — everything before it is the committed
//! prefix, everything from it on is a torn tail the recovery path
//! truncates away. A torn *header* can only happen before any frame was
//! ever durable, so it downgrades to "empty log".

use crate::durable::codec::{crc32, CodecError, Reader, Writer};
use crate::provwf::{ActivationRecord, ActivationStatus, ActivityId, MachineId, WorkflowId};
use crate::value::Value;

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"SCWFWAL1";
/// Format version written by this build (see "Versions" in the module docs).
pub(crate) const WAL_VERSION: u32 = 2;
/// Bytes of the file header (magic + version).
pub(crate) const WAL_HEADER_LEN: u64 = 12;
/// Upper bound on a frame payload — anything larger is treated as
/// corruption rather than allocated.
const MAX_PAYLOAD: u32 = 1 << 26;

/// One logged record. Every public mutator of `ProvenanceStore` reduces
/// to exactly one of these; the same `apply` path consumes them live and
/// during recovery, so replay is application-order deterministic.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// `begin_workflow`.
    BeginWorkflow { id: i64, tag: String, description: String, expdir: String },
    /// `register_activity`.
    RegisterActivity { id: i64, wkf: i64, tag: String, acttype: String },
    /// `register_machine`.
    RegisterMachine { id: i64, name: String, instance_type: String, cores: i64 },
    /// `record_activation` (insert of a new row with id `task`).
    RecordActivation { task: i64, rec: ActivationRecord },
    /// `update_activation` (in-place replacement of row `task`).
    UpdateActivation { task: i64, rec: ActivationRecord },
    /// `record_file`.
    RecordFile {
        id: i64,
        task: i64,
        activity: i64,
        workflow: i64,
        fname: String,
        fsize: i64,
        fdir: String,
    },
    /// `record_parameter`.
    RecordParameter {
        id: i64,
        task: i64,
        workflow: i64,
        name: String,
        num: Option<f64>,
        text: Option<String>,
    },
    /// `record_output_tuple` — consumes one `houtput` id per cell starting
    /// at `first_id` (or a single marker id for an empty tuple).
    RecordOutputTuple {
        first_id: i64,
        task: i64,
        activity: i64,
        workflow: i64,
        pair_key: String,
        tuple_idx: i64,
        tuple: Vec<Value>,
    },
    /// `commit_activation`: the mutations of one finished activation — its
    /// files, parameters and output tuples, then its `hactivation` row — in
    /// one frame. Flat: a group never holds a group.
    Group(Vec<WalOp>),
}

impl WalOp {
    /// How many mutations the record carries — what it counts toward the
    /// group-commit batch and the checkpoint policy, so that packing
    /// mutations into one frame changes neither cadence.
    pub(crate) fn mutations(&self) -> u64 {
        match self {
            WalOp::Group(ops) => ops.len() as u64,
            _ => 1,
        }
    }
}

fn status_tag(s: ActivationStatus) -> u8 {
    match s {
        ActivationStatus::Finished => 0,
        ActivationStatus::Failed => 1,
        ActivationStatus::Aborted => 2,
        ActivationStatus::Blacklisted => 3,
        ActivationStatus::Running => 4,
    }
}

fn status_from_tag(t: u8) -> Result<ActivationStatus, CodecError> {
    Ok(match t {
        0 => ActivationStatus::Finished,
        1 => ActivationStatus::Failed,
        2 => ActivationStatus::Aborted,
        3 => ActivationStatus::Blacklisted,
        4 => ActivationStatus::Running,
        other => return Err(CodecError(format!("bad status tag {other}"))),
    })
}

fn write_activation(w: &mut Writer, task: i64, rec: &ActivationRecord) {
    w.i64(task);
    w.i64(rec.activity.0);
    w.i64(rec.workflow.0);
    w.u8(status_tag(rec.status));
    w.f64(rec.start_time);
    w.f64(rec.end_time);
    w.opt(rec.machine, |w, m| w.i64(m.0));
    w.i64(rec.retries);
    w.str(&rec.pair_key);
}

fn read_activation(r: &mut Reader<'_>) -> Result<(i64, ActivationRecord), CodecError> {
    let task = r.i64()?;
    let rec = ActivationRecord {
        activity: ActivityId(r.i64()?),
        workflow: WorkflowId(r.i64()?),
        status: status_from_tag(r.u8()?)?,
        start_time: r.f64()?,
        end_time: r.f64()?,
        machine: r.opt(|r| r.i64())?.map(MachineId),
        retries: r.i64()?,
        pair_key: r.str()?,
    };
    Ok((task, rec))
}

/// Append an op's payload (no frame envelope) to `w`.
fn write_op(w: &mut Writer, op: &WalOp) {
    match op {
        WalOp::BeginWorkflow { id, tag, description, expdir } => {
            w.u8(0);
            w.i64(*id);
            w.str(tag);
            w.str(description);
            w.str(expdir);
        }
        WalOp::RegisterActivity { id, wkf, tag, acttype } => {
            w.u8(1);
            w.i64(*id);
            w.i64(*wkf);
            w.str(tag);
            w.str(acttype);
        }
        WalOp::RegisterMachine { id, name, instance_type, cores } => {
            w.u8(2);
            w.i64(*id);
            w.str(name);
            w.str(instance_type);
            w.i64(*cores);
        }
        WalOp::RecordActivation { task, rec } => {
            w.u8(3);
            write_activation(w, *task, rec);
        }
        WalOp::UpdateActivation { task, rec } => {
            w.u8(4);
            write_activation(w, *task, rec);
        }
        WalOp::RecordFile { id, task, activity, workflow, fname, fsize, fdir } => {
            w.u8(5);
            w.i64(*id);
            w.i64(*task);
            w.i64(*activity);
            w.i64(*workflow);
            w.str(fname);
            w.i64(*fsize);
            w.str(fdir);
        }
        WalOp::RecordParameter { id, task, workflow, name, num, text } => {
            w.u8(6);
            w.i64(*id);
            w.i64(*task);
            w.i64(*workflow);
            w.str(name);
            w.opt(*num, |w, v| w.f64(v));
            w.opt(text.as_deref(), |w, v| w.str(v));
        }
        WalOp::RecordOutputTuple {
            first_id,
            task,
            activity,
            workflow,
            pair_key,
            tuple_idx,
            tuple,
        } => {
            w.u8(7);
            w.i64(*first_id);
            w.i64(*task);
            w.i64(*activity);
            w.i64(*workflow);
            w.str(pair_key);
            w.i64(*tuple_idx);
            w.u32(tuple.len() as u32);
            for v in tuple {
                w.value(v);
            }
        }
        WalOp::Group(ops) => {
            w.u8(8);
            w.u32(ops.len() as u32);
            for op in ops {
                debug_assert!(!matches!(op, WalOp::Group(_)), "groups are flat");
                write_op(w, op);
            }
        }
    }
}

/// Encode an op's payload (no frame envelope).
#[cfg(test)]
pub(crate) fn encode_op(op: &WalOp) -> Vec<u8> {
    let mut w = Writer::new();
    write_op(&mut w, op);
    w.into_bytes()
}

/// Decode an op payload written by [`write_op`].
pub(crate) fn decode_op(payload: &[u8]) -> Result<WalOp, CodecError> {
    let mut r = Reader::new(payload);
    let op = read_op(&mut r, true)?;
    if r.remaining() != 0 {
        return Err(CodecError(format!("{} trailing bytes after op", r.remaining())));
    }
    Ok(op)
}

/// Read one op; `top` is false inside a group, where a group is malformed.
fn read_op(r: &mut Reader<'_>, top: bool) -> Result<WalOp, CodecError> {
    Ok(match r.u8()? {
        0 => WalOp::BeginWorkflow {
            id: r.i64()?,
            tag: r.str()?,
            description: r.str()?,
            expdir: r.str()?,
        },
        1 => WalOp::RegisterActivity {
            id: r.i64()?,
            wkf: r.i64()?,
            tag: r.str()?,
            acttype: r.str()?,
        },
        2 => WalOp::RegisterMachine {
            id: r.i64()?,
            name: r.str()?,
            instance_type: r.str()?,
            cores: r.i64()?,
        },
        3 => {
            let (task, rec) = read_activation(r)?;
            WalOp::RecordActivation { task, rec }
        }
        4 => {
            let (task, rec) = read_activation(r)?;
            WalOp::UpdateActivation { task, rec }
        }
        5 => WalOp::RecordFile {
            id: r.i64()?,
            task: r.i64()?,
            activity: r.i64()?,
            workflow: r.i64()?,
            fname: r.str()?,
            fsize: r.i64()?,
            fdir: r.str()?,
        },
        6 => WalOp::RecordParameter {
            id: r.i64()?,
            task: r.i64()?,
            workflow: r.i64()?,
            name: r.str()?,
            num: r.opt(|r| r.f64())?,
            text: r.opt(|r| r.str())?,
        },
        7 => {
            let first_id = r.i64()?;
            let task = r.i64()?;
            let activity = r.i64()?;
            let workflow = r.i64()?;
            let pair_key = r.str()?;
            let tuple_idx = r.i64()?;
            let n = r.u32()? as usize;
            if n > MAX_PAYLOAD as usize {
                return Err(CodecError(format!("implausible tuple arity {n}")));
            }
            let mut tuple = Vec::with_capacity(n);
            for _ in 0..n {
                tuple.push(r.value()?);
            }
            WalOp::RecordOutputTuple {
                first_id,
                task,
                activity,
                workflow,
                pair_key,
                tuple_idx,
                tuple,
            }
        }
        8 if top => {
            let n = r.u32()? as usize;
            // every op is at least its tag byte
            if n > r.remaining() {
                return Err(CodecError(format!("implausible group size {n}")));
            }
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(read_op(r, false)?);
            }
            WalOp::Group(ops)
        }
        t => return Err(CodecError(format!("bad op tag {t}"))),
    })
}

/// The 12-byte file header.
pub(crate) fn wal_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(WAL_HEADER_LEN as usize);
    h.extend_from_slice(WAL_MAGIC);
    h.extend_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Wrap one op in a frame (length prefix + seq + crc). The frame is built
/// in one buffer: `seq` and the payload lie next to each other in it, which
/// is exactly the checksummed range.
pub(crate) fn encode_frame(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(0); // payload length, known once the payload is written
    w.u64(seq);
    write_op(&mut w, op);
    let mut out = w.into_bytes();
    let payload_len = (out.len() - 12) as u32;
    out[..4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub(crate) enum WalScan {
    /// File absent/empty or shorter than the header: reinitialize. Safe
    /// because the header is synced before any frame is ever appended, so
    /// a sub-header file cannot contain committed frames.
    Reinit,
    /// Header present but wrong magic/version: refuse to guess.
    BadHeader(String),
    /// Header valid; `ops` is the committed prefix and `valid_len` the
    /// byte length it occupies (truncate the file there if `torn`).
    Frames {
        /// The header's format version (1 or 2).
        version: u32,
        /// `(seq, op)` in commit order.
        ops: Vec<(u64, WalOp)>,
        /// Byte length of the valid prefix (header included).
        valid_len: u64,
        /// Whether bytes past `valid_len` exist (a torn tail).
        torn: bool,
    },
}

/// Scan WAL bytes applying the torn-tail rule (see module docs).
pub(crate) fn scan(bytes: &[u8]) -> WalScan {
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        return WalScan::Reinit;
    }
    if &bytes[..8] != WAL_MAGIC {
        return WalScan::BadHeader("bad magic".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(1..=WAL_VERSION).contains(&version) {
        return WalScan::BadHeader(format!("unsupported WAL version {version}"));
    }
    let mut ops = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut prev_seq: Option<u64> = None;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 16 {
            break; // incomplete frame envelope
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD || rest.len() < 16 + len as usize {
            break; // implausible or incomplete
        }
        let seq = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let payload = &rest[12..12 + len as usize];
        let stored_crc =
            u32::from_le_bytes(rest[12 + len as usize..16 + len as usize].try_into().expect("4"));
        // seq ‖ payload, contiguous in the frame
        if crc32(&rest[4..12 + len as usize]) != stored_crc {
            break; // torn or corrupt frame
        }
        if let Some(p) = prev_seq {
            if seq != p + 1 {
                break; // broken seq chain: treat as tail corruption
            }
        }
        let Ok(op) = decode_op(payload) else {
            break; // checksummed but undecodable: stop, don't guess
        };
        prev_seq = Some(seq);
        ops.push((seq, op));
        pos += 16 + len as usize;
    }
    WalScan::Frames { version, ops, valid_len: pos as u64, torn: pos < bytes.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::BeginWorkflow {
                id: 1,
                tag: "SciDock".into(),
                description: "docking".into(),
                expdir: "/e".into(),
            },
            WalOp::RegisterActivity { id: 1, wkf: 1, tag: "vina".into(), acttype: "Map".into() },
            WalOp::RegisterMachine {
                id: 1,
                name: "vm-1".into(),
                instance_type: "m3.xlarge".into(),
                cores: 4,
            },
            WalOp::RecordActivation {
                task: 1,
                rec: ActivationRecord {
                    activity: ActivityId(1),
                    workflow: WorkflowId(1),
                    status: ActivationStatus::Running,
                    start_time: 0.5,
                    end_time: 0.5,
                    machine: Some(MachineId(1)),
                    retries: 0,
                    pair_key: "R:L".into(),
                },
            },
            WalOp::RecordFile {
                id: 1,
                task: 1,
                activity: 1,
                workflow: 1,
                fname: "out.dlg".into(),
                fsize: 1234,
                fdir: "/e/vina/0/".into(),
            },
            WalOp::RecordParameter {
                id: 1,
                task: 1,
                workflow: 1,
                name: "feb".into(),
                num: Some(-7.25),
                text: None,
            },
            WalOp::RecordOutputTuple {
                first_id: 1,
                task: 1,
                activity: 1,
                workflow: 1,
                pair_key: "R:L".into(),
                tuple_idx: 0,
                tuple: vec![Value::Int(5), Value::Text("x".into()), Value::Null],
            },
            WalOp::Group(vec![
                WalOp::RecordFile {
                    id: 2,
                    task: 2,
                    activity: 1,
                    workflow: 1,
                    fname: "b.dlg".into(),
                    fsize: 9,
                    fdir: "/e/vina/1/".into(),
                },
                WalOp::RecordOutputTuple {
                    first_id: 4,
                    task: 2,
                    activity: 1,
                    workflow: 1,
                    pair_key: "R:M".into(),
                    tuple_idx: 0,
                    tuple: vec![],
                },
                WalOp::RecordActivation { task: 2, rec: finished("R:M") },
            ]),
        ]
    }

    fn finished(pair_key: &str) -> ActivationRecord {
        ActivationRecord {
            activity: ActivityId(1),
            workflow: WorkflowId(1),
            status: ActivationStatus::Finished,
            start_time: 0.5,
            end_time: 2.0,
            machine: None,
            retries: 1,
            pair_key: pair_key.into(),
        }
    }

    #[test]
    fn op_payload_roundtrip() {
        for op in sample_ops() {
            let payload = encode_op(&op);
            assert_eq!(decode_op(&payload).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn a_group_counts_its_mutations_and_does_not_nest() {
        let ops = sample_ops();
        assert!(ops[..7].iter().all(|op| op.mutations() == 1));
        assert_eq!(ops[7].mutations(), 3);
        // a group inside a group is malformed: tag 8, one member, tag 8, none
        assert!(decode_op(&[8, 1, 0, 0, 0, 8, 0, 0, 0, 0]).is_err());
        // a member count the payload cannot hold is refused before allocating
        assert!(decode_op(&[8, 0xff, 0xff, 0xff, 0x7f]).is_err());
    }

    /// The frame of `update_activation(task 1, FINISHED)` at seq 7, as the
    /// version-1 encoder (PR 14, which built the CRC input in a second
    /// buffer) wrote it: frame bytes did not change with the encoder.
    #[test]
    fn frame_bytes_match_the_version_1_encoder() {
        let expect: [u8; 74] = [
            0x3a, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x01,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x52, 0x3a, 0x4c,
            0x87, 0x42, 0x1d, 0x46,
        ];
        let op = WalOp::UpdateActivation { task: 1, rec: finished("R:L") };
        assert_eq!(encode_frame(7, &op), expect);
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let mut payload = encode_op(&sample_ops()[0]);
        payload.push(0);
        assert!(decode_op(&payload).is_err());
    }

    #[test]
    fn scan_roundtrips_full_file() {
        let mut bytes = wal_header();
        for (k, op) in sample_ops().into_iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(k as u64 + 1, &op));
        }
        match scan(&bytes) {
            WalScan::Frames { ops, valid_len, torn, .. } => {
                assert_eq!(ops.len(), 8);
                assert_eq!(valid_len, bytes.len() as u64);
                assert!(!torn);
                assert_eq!(ops[0].0, 1);
                assert_eq!(ops.last().unwrap().0, 8);
            }
            other => panic!("unexpected scan result {other:?}"),
        }
    }

    #[test]
    fn scan_stops_at_every_torn_prefix() {
        let ops = sample_ops();
        let mut bytes = wal_header();
        let mut boundaries = vec![bytes.len()];
        for (k, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(k as u64 + 1, op));
            boundaries.push(bytes.len());
        }
        // cut at every byte: recovered ops must be the longest whole-frame
        // prefix that fits
        for cut in WAL_HEADER_LEN as usize..bytes.len() {
            let WalScan::Frames { ops: got, valid_len, torn, .. } = scan(&bytes[..cut]) else {
                panic!("header was intact");
            };
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.len(), whole, "cut at {cut}");
            assert_eq!(valid_len as usize, boundaries[whole]);
            assert_eq!(torn, cut != boundaries[whole]);
        }
    }

    #[test]
    fn scan_rejects_corrupted_byte() {
        let ops = sample_ops();
        let mut bytes = wal_header();
        for (k, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(k as u64 + 1, op));
        }
        // flip one byte inside the 3rd frame's payload: scan keeps frames
        // 1..=2 only
        let f1 =
            wal_header().len() + encode_frame(1, &ops[0]).len() + encode_frame(2, &ops[1]).len();
        let mut corrupt = bytes.clone();
        corrupt[f1 + 13] ^= 0xff;
        match scan(&corrupt) {
            WalScan::Frames { ops: got, torn, .. } => {
                assert_eq!(got.len(), 2);
                assert!(torn);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scan_detects_seq_gap() {
        let ops = sample_ops();
        let mut bytes = wal_header();
        bytes.extend_from_slice(&encode_frame(1, &ops[0]));
        bytes.extend_from_slice(&encode_frame(3, &ops[1])); // gap: 2 missing
        match scan(&bytes) {
            WalScan::Frames { ops: got, torn, .. } => {
                assert_eq!(got.len(), 1);
                assert!(torn);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn header_validation() {
        assert!(matches!(scan(b""), WalScan::Reinit));
        assert!(matches!(scan(b"SCWFWA"), WalScan::Reinit));
        assert!(matches!(scan(b"NOTMAGIC\x01\x00\x00\x00"), WalScan::BadHeader(_)));
        for unknown in [0, WAL_VERSION as u8 + 1, 9] {
            let mut h = wal_header();
            h[8] = unknown;
            assert!(matches!(scan(&h), WalScan::BadHeader(_)), "version {unknown}");
        }
        // the previous version is still read
        let mut v1 = wal_header();
        v1[8] = 1;
        assert!(matches!(scan(&v1), WalScan::Frames { version: 1, .. }));
        // bare valid header: zero frames
        match scan(&wal_header()) {
            WalScan::Frames { version, ops, valid_len, torn } => {
                assert_eq!(version, WAL_VERSION);
                assert!(ops.is_empty());
                assert_eq!(valid_len, WAL_HEADER_LEN);
                assert!(!torn);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
