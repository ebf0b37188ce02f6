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

use crate::codec::{crc32, from_bytes, CodecError, Decode, Encode, Reader, Writer};
use crate::provwf::{ActivationRecord, ActivationStatus, ActivityId, MachineId, WorkflowId};
use crate::value::Value;

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"SCWFWAL1";
/// Format version written by this build (see "Versions" in the module docs).
pub(crate) const WAL_VERSION: u32 = 2;
/// Bytes of the file header (magic + version).
pub(crate) const WAL_HEADER_LEN: u64 = 12;
/// Upper bound on a frame payload, on both sides: [`frame`] refuses a
/// larger record, and [`scan`] takes a larger length for corruption rather
/// than allocating it.
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

impl Encode for ActivationStatus {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            ActivationStatus::Finished => 0,
            ActivationStatus::Failed => 1,
            ActivationStatus::Aborted => 2,
            ActivationStatus::Blacklisted => 3,
            ActivationStatus::Running => 4,
        });
    }
}

impl Decode for ActivationStatus {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => ActivationStatus::Finished,
            1 => ActivationStatus::Failed,
            2 => ActivationStatus::Aborted,
            3 => ActivationStatus::Blacklisted,
            4 => ActivationStatus::Running,
            other => return Err(CodecError(format!("bad status tag {other}"))),
        })
    }
}

/// An `hactivation` row after its task id.
impl Encode for ActivationRecord {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.activity.0).put(&self.workflow.0).put(&self.status);
        w.put(&self.start_time).put(&self.end_time).put(&self.machine.map(|m| m.0));
        w.put(&self.retries).put(&self.pair_key);
    }
}

impl Decode for ActivationRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ActivationRecord {
            activity: ActivityId(r.get()?),
            workflow: WorkflowId(r.get()?),
            status: r.get()?,
            start_time: r.get()?,
            end_time: r.get()?,
            machine: r.get::<Option<i64>>()?.map(MachineId),
            retries: r.get()?,
            pair_key: r.get()?,
        })
    }
}

/// An op's payload (no frame envelope): tag byte, then the fields in
/// declaration order. A group holding a group is refused.
impl Encode for WalOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalOp::BeginWorkflow { id, tag, description, expdir } => {
                w.u8(0).put(id).put(tag).put(description).put(expdir)
            }
            WalOp::RegisterActivity { id, wkf, tag, acttype } => {
                w.u8(1).put(id).put(wkf).put(tag).put(acttype)
            }
            WalOp::RegisterMachine { id, name, instance_type, cores } => {
                w.u8(2).put(id).put(name).put(instance_type).put(cores)
            }
            WalOp::RecordActivation { task, rec } => w.u8(3).put(task).put(rec),
            WalOp::UpdateActivation { task, rec } => w.u8(4).put(task).put(rec),
            WalOp::RecordFile { id, task, activity, workflow, fname, fsize, fdir } => {
                w.u8(5).put(id).put(task).put(activity).put(workflow);
                w.put(fname).put(fsize).put(fdir)
            }
            WalOp::RecordParameter { id, task, workflow, name, num, text } => {
                w.u8(6).put(id).put(task).put(workflow).put(name).put(num).put(text)
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
                w.u8(7).put(first_id).put(task).put(activity).put(workflow);
                w.put(pair_key).put(tuple_idx).put(tuple)
            }
            WalOp::Group(ops) => {
                if ops.iter().any(|op| matches!(op, WalOp::Group(_))) {
                    w.fail("a WAL group holds a group".into());
                }
                w.u8(8).put(ops)
            }
        };
    }
}

impl Decode for WalOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_op(r, true)
    }
}

/// Read one op; `top` is false inside a group, where a group is malformed
/// (and refused by its tag, before any recursion).
fn read_op(r: &mut Reader<'_>, top: bool) -> Result<WalOp, CodecError> {
    Ok(match r.u8()? {
        0 => WalOp::BeginWorkflow {
            id: r.get()?,
            tag: r.get()?,
            description: r.get()?,
            expdir: r.get()?,
        },
        1 => WalOp::RegisterActivity {
            id: r.get()?,
            wkf: r.get()?,
            tag: r.get()?,
            acttype: r.get()?,
        },
        2 => WalOp::RegisterMachine {
            id: r.get()?,
            name: r.get()?,
            instance_type: r.get()?,
            cores: r.get()?,
        },
        3 => WalOp::RecordActivation { task: r.get()?, rec: r.get()? },
        4 => WalOp::UpdateActivation { task: r.get()?, rec: r.get()? },
        5 => WalOp::RecordFile {
            id: r.get()?,
            task: r.get()?,
            activity: r.get()?,
            workflow: r.get()?,
            fname: r.get()?,
            fsize: r.get()?,
            fdir: r.get()?,
        },
        6 => WalOp::RecordParameter {
            id: r.get()?,
            task: r.get()?,
            workflow: r.get()?,
            name: r.get()?,
            num: r.get()?,
            text: r.get()?,
        },
        7 => WalOp::RecordOutputTuple {
            first_id: r.get()?,
            task: r.get()?,
            activity: r.get()?,
            workflow: r.get()?,
            pair_key: r.get()?,
            tuple_idx: r.get()?,
            tuple: r.get()?,
        },
        8 if top => {
            let n = r.count()?;
            WalOp::Group((0..n).map(|_| read_op(r, false)).collect::<Result<_, _>>()?)
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
///
/// A payload above [`MAX_PAYLOAD`] is refused before any byte reaches the
/// log: [`scan`] would take it for a torn tail and drop it, and every
/// record after it, on recovery.
pub(crate) fn frame(seq: u64, op: &WalOp) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    // the payload length is known once the payload is written
    w.put(&0u32).put(&seq).put(op);
    let mut out = w.finish()?;
    let len = out.len() - 12;
    let prefix = u32::try_from(len).ok().filter(|&n| n <= MAX_PAYLOAD).ok_or_else(|| {
        CodecError(format!("a WAL record of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"))
    })?;
    out[..4].copy_from_slice(&prefix.to_le_bytes());
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
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
        let Ok(op) = from_bytes::<WalOp>(payload) else {
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
    use crate::codec::testing::{check_codec, Gen};
    use crate::codec::to_bytes;

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

    /// [`frame`] for the records these tests build, which all fit.
    fn encode_frame(seq: u64, op: &WalOp) -> Vec<u8> {
        frame(seq, op).expect("a test record fits a frame")
    }

    fn any_record(g: &mut Gen) -> ActivationRecord {
        use ActivationStatus::*;
        ActivationRecord {
            activity: ActivityId(g.i64()),
            workflow: WorkflowId(g.i64()),
            status: [Finished, Failed, Aborted, Blacklisted, Running][g.below(5)],
            start_time: g.f64(),
            end_time: g.f64(),
            machine: g.option(|g| MachineId(g.i64())),
            retries: g.i64(),
            pair_key: g.text(),
        }
    }

    /// An op with payload tag `tag` (8 = a group of any other ops).
    fn any_op(g: &mut Gen, tag: usize) -> WalOp {
        match tag {
            0 => WalOp::BeginWorkflow {
                id: g.i64(),
                tag: g.text(),
                description: g.text(),
                expdir: g.text(),
            },
            1 => WalOp::RegisterActivity {
                id: g.i64(),
                wkf: g.i64(),
                tag: g.text(),
                acttype: g.text(),
            },
            2 => WalOp::RegisterMachine {
                id: g.i64(),
                name: g.text(),
                instance_type: g.text(),
                cores: g.i64(),
            },
            3 => WalOp::RecordActivation { task: g.i64(), rec: any_record(g) },
            4 => WalOp::UpdateActivation { task: g.i64(), rec: any_record(g) },
            5 => WalOp::RecordFile {
                id: g.i64(),
                task: g.i64(),
                activity: g.i64(),
                workflow: g.i64(),
                fname: g.text(),
                fsize: g.i64(),
                fdir: g.text(),
            },
            6 => WalOp::RecordParameter {
                id: g.i64(),
                task: g.i64(),
                workflow: g.i64(),
                name: g.text(),
                num: g.option(Gen::f64),
                text: g.option(Gen::text),
            },
            7 => WalOp::RecordOutputTuple {
                first_id: g.i64(),
                task: g.i64(),
                activity: g.i64(),
                workflow: g.i64(),
                pair_key: g.text(),
                tuple_idx: g.i64(),
                tuple: g.vec(5, Gen::cell),
            },
            _ => WalOp::Group(g.vec(4, |g| {
                let tag = g.below(8);
                any_op(g, tag)
            })),
        }
    }

    #[test]
    fn every_op_passes_the_codec_harness() {
        let mut n = 0;
        check_codec(
            |g| {
                n += 1;
                any_op(g, n % 9)
            },
            180,
        );
        for op in sample_ops() {
            assert_eq!(from_bytes::<WalOp>(&to_bytes(&op).unwrap()).unwrap(), op);
        }
    }

    #[test]
    fn a_group_counts_its_mutations_and_does_not_nest() {
        let ops = sample_ops();
        assert!(ops[..7].iter().all(|op| op.mutations() == 1));
        assert_eq!(ops[7].mutations(), 3);
        // a group inside a group is malformed: the encoder refuses it …
        let nested = WalOp::Group(vec![ops[0].clone(), WalOp::Group(vec![])]);
        assert!(frame(1, &nested).unwrap_err().0.contains("holds a group"));
        // … and so does the decoder: tag 8, one member, tag 8, none
        assert!(from_bytes::<WalOp>(&[8, 1, 0, 0, 0, 8, 0, 0, 0, 0]).is_err());
        // a member count the payload cannot hold is refused before allocating
        assert!(from_bytes::<WalOp>(&[8, 0xff, 0xff, 0xff, 0x7f]).is_err());
    }

    #[test]
    fn a_payload_over_the_cap_is_refused_before_it_is_framed() {
        // tag, id, task, workflow, name "p", no num, then the text's option
        // tag and length: 36 bytes around the text
        let param = |len: usize| WalOp::RecordParameter {
            id: 1,
            task: 1,
            workflow: 1,
            name: "p".into(),
            num: None,
            text: Some("x".repeat(len)),
        };
        let at_cap = MAX_PAYLOAD as usize - 36;
        let mut bytes = wal_header();
        bytes.extend_from_slice(&encode_frame(1, &param(at_cap)));
        let WalScan::Frames { ops, torn: false, .. } = scan(&bytes) else {
            panic!("a frame at the cap is recovered");
        };
        assert_eq!(ops.len(), 1);
        let err = frame(2, &param(at_cap + 1)).unwrap_err();
        assert!(err.0.contains("exceeds the 67108864-byte cap"), "{err}");
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
        let mut payload = to_bytes(&sample_ops()[0]).unwrap();
        payload.push(0);
        assert!(from_bytes::<WalOp>(&payload).is_err());
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
