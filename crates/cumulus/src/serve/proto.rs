//! The `SDC1` client protocol: length-prefixed binary frames between a
//! docking client and a [`crate::serve`] daemon.
//!
//! Wire layout mirrors the worker protocol
//! ([`crate::distbackend::proto`] — the codec primitives are shared):
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

use crate::algebra::Tuple;
use crate::distbackend::proto::{read_body, write_body, Buf, Cur};

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

    fn tag(self) -> u8 {
        match self {
            CampaignState::Pending => 0,
            CampaignState::Running => 1,
            CampaignState::Finished => 2,
            CampaignState::Cancelled => 3,
            CampaignState::Failed => 4,
        }
    }

    fn from_tag(t: u8) -> Result<CampaignState, String> {
        Ok(match t {
            0 => CampaignState::Pending,
            1 => CampaignState::Running,
            2 => CampaignState::Finished,
            3 => CampaignState::Cancelled,
            4 => CampaignState::Failed,
            t => return Err(format!("bad campaign state tag {t}")),
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

fn columns(b: &mut Buf, cols: &[String]) {
    b.len32(cols.len(), "columns");
    for c in cols {
        b.str(c);
    }
}

fn columns_dec(c: &mut Cur<'_>) -> Result<Vec<String>, String> {
    let n = c.u32()? as usize;
    let mut cols = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        cols.push(c.str()?);
    }
    Ok(cols)
}

pub(crate) fn encode(msg: &Msg) -> Result<Vec<u8>, String> {
    let mut b = Buf::new();
    b.u32(MAGIC);
    match msg {
        Msg::Submit { tenant, priority, spec } => {
            b.u8(0);
            b.str(tenant);
            b.u8(*priority);
            b.str(spec);
        }
        Msg::Status { id } => {
            b.u8(1);
            b.u64(*id);
        }
        Msg::Results { id } => {
            b.u8(2);
            b.u64(*id);
        }
        Msg::Cancel { id } => {
            b.u8(3);
            b.u64(*id);
        }
        Msg::Query { sql } => {
            b.u8(4);
            b.str(sql);
        }
        Msg::Accept { id } => {
            b.u8(16);
            b.u64(*id);
        }
        Msg::Reject { reason, retry_after_ms } => {
            b.u8(17);
            b.str(reason);
            b.u64(*retry_after_ms);
        }
        Msg::StatusReply { id, tenant, state, done, total } => {
            b.u8(18);
            b.u64(*id);
            b.str(tenant);
            b.u8(state.tag());
            b.u64(*done);
            b.u64(*total);
        }
        Msg::ResultsReply { columns: cols, tuples } => {
            b.u8(19);
            columns(&mut b, cols);
            b.tuples(tuples);
        }
        Msg::QueryReply { columns: cols, rows } => {
            b.u8(20);
            columns(&mut b, cols);
            b.tuples(rows);
        }
        Msg::CancelReply { cancelled } => {
            b.u8(21);
            b.u8(u8::from(*cancelled));
        }
        Msg::Error { msg } => {
            b.u8(22);
            b.str(msg);
        }
    }
    b.finish()
}

pub(crate) fn decode(buf: &[u8]) -> Result<Msg, String> {
    let mut c = Cur::new(buf);
    let magic = c.u32()?;
    if magic != MAGIC {
        return Err(format!("bad SDC1 magic {magic:#x}"));
    }
    let msg = match c.u8()? {
        0 => Msg::Submit { tenant: c.str()?, priority: c.u8()?, spec: c.str()? },
        1 => Msg::Status { id: c.u64()? },
        2 => Msg::Results { id: c.u64()? },
        3 => Msg::Cancel { id: c.u64()? },
        4 => Msg::Query { sql: c.str()? },
        16 => Msg::Accept { id: c.u64()? },
        17 => Msg::Reject { reason: c.str()?, retry_after_ms: c.u64()? },
        18 => Msg::StatusReply {
            id: c.u64()?,
            tenant: c.str()?,
            state: CampaignState::from_tag(c.u8()?)?,
            done: c.u64()?,
            total: c.u64()?,
        },
        19 => Msg::ResultsReply { columns: columns_dec(&mut c)?, tuples: c.tuples()? },
        20 => Msg::QueryReply { columns: columns_dec(&mut c)?, rows: c.tuples()? },
        21 => Msg::CancelReply {
            cancelled: match c.u8()? {
                0 => false,
                1 => true,
                t => return Err(format!("bad bool tag {t}")),
            },
        },
        22 => Msg::Error { msg: c.str()? },
        t => return Err(format!("unknown SDC1 frame tag {t}")),
    };
    if !c.at_end() {
        return Err("trailing bytes after SDC1 frame".to_string());
    }
    Ok(msg)
}

/// Write one length-prefixed frame and flush it. An oversized frame is
/// refused with `InvalidData` before any byte hits the stream, keeping the
/// connection framed (the framing is the worker protocol's).
pub(crate) fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> std::io::Result<()> {
    let body = encode(msg).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    write_body(w, &body)
}

/// Read one length-prefixed frame.
pub(crate) fn read_msg<R: Read>(r: &mut R) -> std::io::Result<Msg> {
    decode(&read_body(r)?).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn random_bytes_never_panic_the_decoder() {
        // deterministic pseudo-random garbage: decode must error, not panic
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2000 {
            let mut buf = Vec::with_capacity(48);
            for _ in 0..48 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                buf.push((x & 0xFF) as u8);
            }
            let _ = decode(&buf);
        }
    }
}
