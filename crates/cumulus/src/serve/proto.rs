//! The `SDC1` client protocol: length-prefixed binary frames between a
//! docking client and a [`crate::serve`] daemon.
//!
//! Wire layout mirrors the worker protocol
//! ([`crate::distbackend::proto`]), and bodies go through the same codec,
//! [`provenance::codec`]:
//!
//! ```text
//! [u32 LE body length][body]
//! body := [u32 magic "SDC1"][u8 frame tag][fields...]
//! ```
//!
//! Unlike `SDW2` (where only the handshake frames are magic-tagged),
//! *every* `SDC1` frame opens with the magic: client connections are
//! short-lived and the daemon must be able to reject a stray scraper or a
//! worker that dialed the wrong port on any frame, not just the first.
//! Bodies are capped at 64 MiB, same as the worker protocol.
//!
//! Client → daemon: `Submit`, `Status`, `Results`, `Cancel`, `Query`.
//! Daemon → client: `Accept`, `Reject` (admission control's explicit
//! backpressure, carrying a retry-after hint), `StatusReply`,
//! `ResultsReply`, `QueryReply`, `Error`.

use std::io::{Read, Write};

use provenance::codec::{self, CodecError, Decode, Encode, Reader, Writer};

use crate::algebra::Tuple;
use crate::distbackend::proto::{invalid, read_body, write_body};

/// `"SDC1"` — SciDock Campaign protocol, version 1.
pub(crate) const MAGIC: u32 = 0x5344_4331;

/// Lifecycle state of a campaign as reported in a `StatusReply` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted, waiting for a concurrency slot.
    Pending,
    /// Activations are dispatching over the shared fleet.
    Running,
    /// Every activation completed; results are queryable.
    Finished,
    /// Cancelled by the client before completion.
    Cancelled,
    /// The workflow definition failed validation at start time.
    Failed,
}

impl CampaignState {
    /// Stable lowercase name used on the wire and in `/campaigns` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            CampaignState::Pending => "pending",
            CampaignState::Running => "running",
            CampaignState::Finished => "finished",
            CampaignState::Cancelled => "cancelled",
            CampaignState::Failed => "failed",
        }
    }
}

impl Encode for CampaignState {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            CampaignState::Pending => 0,
            CampaignState::Running => 1,
            CampaignState::Finished => 2,
            CampaignState::Cancelled => 3,
            CampaignState::Failed => 4,
        });
    }
}

impl Decode for CampaignState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => CampaignState::Pending,
            1 => CampaignState::Running,
            2 => CampaignState::Finished,
            3 => CampaignState::Cancelled,
            4 => CampaignState::Failed,
            t => return Err(CodecError(format!("bad campaign state tag {t}"))),
        })
    }
}

/// One `SDC1` frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    // -------------------------------------------------- client → daemon
    /// Submit a campaign: a workload spec (resolved daemon-side), on behalf
    /// of a tenant, with a scheduling priority (higher = sooner).
    Submit { tenant: String, priority: u8, spec: String },
    /// Ask for a campaign's lifecycle state and progress.
    Status { id: u64 },
    /// Fetch the final output relation of a finished campaign.
    Results { id: u64 },
    /// Cancel a pending or running campaign.
    Cancel { id: u64 },
    /// Run a read-only SQL query against the shared provenance store
    /// (campaign-scoped via `wkfid`, or cross-campaign without it).
    Query { sql: String },

    // -------------------------------------------------- daemon → client
    /// The campaign was admitted under this id.
    Accept { id: u64 },
    /// Admission control refused the submission; retry no sooner than
    /// `retry_after_ms` (0 = the refusal is permanent, e.g. a bad spec).
    Reject { reason: String, retry_after_ms: u64 },
    /// Answer to [`Msg::Status`].
    StatusReply {
        /// Campaign id.
        id: u64,
        /// Owning tenant.
        tenant: String,
        /// Lifecycle state.
        state: CampaignState,
        /// Completed activations.
        done: u64,
        /// Activations submitted to the dispatcher so far (grows as tuples
        /// stream downstream; equals `done` once finished).
        total: u64,
    },
    /// Answer to [`Msg::Results`]: the final activity's output relation.
    ResultsReply { columns: Vec<String>, tuples: Vec<Tuple> },
    /// Answer to [`Msg::Query`]: a provenance result set.
    QueryReply { columns: Vec<String>, rows: Vec<Tuple> },
    /// Answer to [`Msg::Cancel`]: whether the campaign was still live.
    CancelReply { cancelled: bool },
    /// The request could not be served (unknown id, malformed SQL, …).
    Error { msg: String },
}

/// The magic, a tag byte, then the fields in declaration order.
impl Encode for Msg {
    fn encode(&self, w: &mut Writer) {
        w.put(&MAGIC);
        match self {
            Msg::Submit { tenant, priority, spec } => w.u8(0).put(tenant).put(priority).put(spec),
            Msg::Status { id } => w.u8(1).put(id),
            Msg::Results { id } => w.u8(2).put(id),
            Msg::Cancel { id } => w.u8(3).put(id),
            Msg::Query { sql } => w.u8(4).put(sql),
            Msg::Accept { id } => w.u8(16).put(id),
            Msg::Reject { reason, retry_after_ms } => w.u8(17).put(reason).put(retry_after_ms),
            Msg::StatusReply { id, tenant, state, done, total } => {
                w.u8(18).put(id).put(tenant).put(state).put(done).put(total)
            }
            Msg::ResultsReply { columns, tuples } => w.u8(19).put(columns).put(tuples),
            Msg::QueryReply { columns, rows } => w.u8(20).put(columns).put(rows),
            Msg::CancelReply { cancelled } => w.u8(21).put(cancelled),
            Msg::Error { msg } => w.u8(22).put(msg),
        };
    }
}

impl Decode for Msg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let magic: u32 = r.get()?;
        if magic != MAGIC {
            return Err(CodecError(format!("bad SDC1 magic {magic:#x}")));
        }
        Ok(match r.u8()? {
            0 => Msg::Submit { tenant: r.get()?, priority: r.get()?, spec: r.get()? },
            1 => Msg::Status { id: r.get()? },
            2 => Msg::Results { id: r.get()? },
            3 => Msg::Cancel { id: r.get()? },
            4 => Msg::Query { sql: r.get()? },
            16 => Msg::Accept { id: r.get()? },
            17 => Msg::Reject { reason: r.get()?, retry_after_ms: r.get()? },
            18 => Msg::StatusReply {
                id: r.get()?,
                tenant: r.get()?,
                state: r.get()?,
                done: r.get()?,
                total: r.get()?,
            },
            19 => Msg::ResultsReply { columns: r.get()?, tuples: r.get()? },
            20 => Msg::QueryReply { columns: r.get()?, rows: r.get()? },
            21 => Msg::CancelReply { cancelled: r.get()? },
            22 => Msg::Error { msg: r.get()? },
            t => return Err(CodecError(format!("unknown SDC1 frame tag {t}"))),
        })
    }
}

pub(crate) fn encode(msg: &Msg) -> Result<Vec<u8>, String> {
    codec::to_bytes(msg).map_err(|e| e.0)
}

pub(crate) fn decode(buf: &[u8]) -> Result<Msg, String> {
    codec::from_bytes(buf).map_err(|e| e.0)
}

/// Write one length-prefixed frame and flush it. An oversized frame is
/// refused with `InvalidData` before any byte hits the stream, keeping the
/// connection framed (the framing is the worker protocol's).
pub(crate) fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> std::io::Result<()> {
    write_body(w, &encode(msg).map_err(invalid)?)
}

/// Read one length-prefixed frame.
pub(crate) fn read_msg<R: Read>(r: &mut R) -> std::io::Result<Msg> {
    decode(&read_body(r)?).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use provenance::codec::testing::{check_codec, Gen};
    use provenance::Value;

    fn roundtrip(m: Msg) {
        let mut wire = Vec::new();
        write_msg(&mut wire, &m).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_msg(&mut cursor).unwrap(), m);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Msg::Submit {
            tenant: "alice".into(),
            priority: 7,
            spec: "unit:spin:4:0".into(),
        });
        roundtrip(Msg::Status { id: 42 });
        roundtrip(Msg::Results { id: 42 });
        roundtrip(Msg::Cancel { id: 9 });
        roundtrip(Msg::Query { sql: "SELECT * FROM hworkflow".into() });
        roundtrip(Msg::Accept { id: 1 });
        roundtrip(Msg::Reject { reason: "queue full".into(), retry_after_ms: 250 });
        for state in [
            CampaignState::Pending,
            CampaignState::Running,
            CampaignState::Finished,
            CampaignState::Cancelled,
            CampaignState::Failed,
        ] {
            roundtrip(Msg::StatusReply { id: 3, tenant: "bob".into(), state, done: 5, total: 8 });
        }
        roundtrip(Msg::ResultsReply {
            columns: vec!["x".into(), "feb".into()],
            tuples: vec![
                vec![Value::Int(1), Value::Float(-7.5)],
                vec![Value::Null, Value::Bool(true)],
            ],
        });
        roundtrip(Msg::QueryReply {
            columns: vec!["tag".into()],
            rows: vec![vec![Value::from("dock")]],
        });
        roundtrip(Msg::CancelReply { cancelled: true });
        roundtrip(Msg::Error { msg: "unknown campaign 77".into() });
    }

    /// One message of every tag, byte for byte as the wire carries it: three
    /// in full, and all of them through the XXH64 of their concatenation.
    #[test]
    fn sdc1_frames_are_pinned() {
        let msgs = [
            Msg::Submit { tenant: "alice".into(), priority: 7, spec: "unit:spin:4:0".into() },
            Msg::Status { id: 42 },
            Msg::Results { id: 43 },
            Msg::Cancel { id: 9 },
            Msg::Query { sql: "SELECT * FROM hworkflow".into() },
            Msg::Accept { id: 1 },
            Msg::Reject { reason: "queue full".into(), retry_after_ms: 250 },
            Msg::StatusReply {
                id: 3,
                tenant: "bob".into(),
                state: CampaignState::Cancelled,
                done: 5,
                total: 8,
            },
            Msg::ResultsReply {
                columns: vec!["x".into(), "feb".into()],
                tuples: vec![
                    vec![Value::Int(1), Value::Float(-7.5)],
                    vec![Value::Null, Value::Bool(true)],
                ],
            },
            Msg::QueryReply {
                columns: vec!["tag".into()],
                rows: vec![vec![Value::from("dock")], vec![Value::Timestamp(0.5)]],
            },
            Msg::CancelReply { cancelled: true },
            Msg::Error { msg: "unknown campaign 77".into() },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        assert_eq!(wire.len(), 362);
        assert_eq!(crate::workflow::digest(&wire), 0xd1c3_07a7_ef37_5fce);
        let submit: [u8; 32] = [
            49, 67, 68, 83, 0, 5, 0, 0, 0, 97, 108, 105, 99, 101, 7, 13, 0, 0, 0, 117, 110, 105,
            116, 58, 115, 112, 105, 110, 58, 52, 58, 48,
        ];
        assert_eq!(encode(&msgs[0]).unwrap(), submit);
        let status_reply: [u8; 37] = [
            49, 67, 68, 83, 18, 3, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 98, 111, 98, 3, 5, 0, 0, 0, 0,
            0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(encode(&msgs[7]).unwrap(), status_reply);
        let results_reply: [u8; 54] = [
            49, 67, 68, 83, 19, 2, 0, 0, 0, 1, 0, 0, 0, 120, 3, 0, 0, 0, 102, 101, 98, 2, 0, 0, 0,
            2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 30, 192, 2, 0, 0, 0, 0, 5,
            1,
        ];
        assert_eq!(encode(&msgs[8]).unwrap(), results_reply);
    }

    #[test]
    fn rejects_bad_magic_and_trailing_bytes() {
        let mut body = encode(&Msg::Status { id: 1 }).unwrap();
        body[0] ^= 0xFF;
        assert!(decode(&body).unwrap_err().contains("magic"));

        let mut body = encode(&Msg::Status { id: 1 }).unwrap();
        body.push(0);
        assert!(decode(&body).unwrap_err().contains("trailing"));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        let err = read_msg(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn oversized_write_is_refused_without_touching_the_stream() {
        use crate::distbackend::proto::{frame_too_big, MAX_FRAME};
        let big = Msg::Error { msg: "e".repeat(MAX_FRAME + 1) };
        let mut wire = Vec::new();
        let err = write_msg(&mut wire, &big).unwrap_err();
        assert!(frame_too_big(&err), "the shared framer's refusal, recognisably: {err}");
        assert!(wire.is_empty(), "no bytes may hit the wire for a refused frame");
        // the connection stays framed: the next reply on it round-trips
        write_msg(&mut wire, &Msg::Accept { id: 7 }).unwrap();
        assert_eq!(read_msg(&mut std::io::Cursor::new(wire)).unwrap(), Msg::Accept { id: 7 });
    }

    /// A message with the `n`-th of the twelve tags and random fields.
    fn any_msg(g: &mut Gen, n: usize) -> Msg {
        use CampaignState::*;
        match n {
            0 => Msg::Submit { tenant: g.text(), priority: g.u8(), spec: g.text() },
            1 => Msg::Status { id: g.u64() },
            2 => Msg::Results { id: g.u64() },
            3 => Msg::Cancel { id: g.u64() },
            4 => Msg::Query { sql: g.text() },
            5 => Msg::Accept { id: g.u64() },
            6 => Msg::Reject { reason: g.text(), retry_after_ms: g.u64() },
            7 => Msg::StatusReply {
                id: g.u64(),
                tenant: g.text(),
                state: [Pending, Running, Finished, Cancelled, Failed][g.below(5)],
                done: g.u64(),
                total: g.u64(),
            },
            8 => Msg::ResultsReply {
                columns: g.vec(3, Gen::text),
                tuples: g.vec(3, |g| g.vec(3, Gen::cell)),
            },
            9 => Msg::QueryReply {
                columns: g.vec(3, Gen::text),
                rows: g.vec(3, |g| g.vec(3, Gen::cell)),
            },
            10 => Msg::CancelReply { cancelled: g.bool() },
            _ => Msg::Error { msg: g.text() },
        }
    }

    #[test]
    fn every_message_passes_the_codec_harness() {
        let mut n = 0;
        check_codec(
            |g| {
                n += 1;
                any_msg(g, n % 12)
            },
            240,
        );
        // CancelReply's flag is a strict bool
        let mut body = encode(&Msg::CancelReply { cancelled: true }).unwrap();
        body[5] = 2;
        assert!(decode(&body).unwrap_err().contains("bad bool tag 2"));
    }
}
