//! The unified error type shared by every execution backend.
//!
//! Every backend reports through [`CumulusError`], so callers match one
//! enum regardless of where the workflow ran.

use std::fmt;

/// Errors from running a workflow through any backend.
///
/// Marked `#[non_exhaustive]`: new failure classes (e.g. future remote
/// backends) may add variants without a breaking release, so downstream
/// matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CumulusError {
    /// Structural validation of the workflow (or its configuration) failed.
    Invalid(String),
    /// Every worker died or disconnected while activations were still
    /// pending, so the run cannot make progress.
    WorkerLost(String),
    /// A peer spoke the wire protocol wrong: bad magic, an unexpected frame
    /// for the connection state, or an undecodable payload.
    Protocol(String),
    /// The provenance store rejected or lost a write the run depends on.
    Provenance(String),
    /// A deadline expired: worker connect/handshake, heartbeat liveness, or
    /// a per-activation execution timeout.
    Timeout(String),
    /// Socket- or process-level I/O failure (bind, spawn, read, write).
    Io(String),
}

impl fmt::Display for CumulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CumulusError::Invalid(m) => write!(f, "invalid workflow: {m}"),
            CumulusError::WorkerLost(m) => write!(f, "worker lost: {m}"),
            CumulusError::Protocol(m) => write!(f, "protocol error: {m}"),
            CumulusError::Provenance(m) => write!(f, "provenance error: {m}"),
            CumulusError::Timeout(m) => write!(f, "timed out: {m}"),
            CumulusError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for CumulusError {}

impl From<std::io::Error> for CumulusError {
    fn from(e: std::io::Error) -> CumulusError {
        CumulusError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_prefixed_and_error_impl_works() {
        let cases: Vec<(CumulusError, &str)> = vec![
            (CumulusError::Invalid("cycle".into()), "invalid workflow: cycle"),
            (CumulusError::WorkerLost("all 2 dead".into()), "worker lost: all 2 dead"),
            (CumulusError::Protocol("bad magic".into()), "protocol error: bad magic"),
            (CumulusError::Provenance("wal".into()), "provenance error: wal"),
            (CumulusError::Timeout("connect".into()), "timed out: connect"),
            (CumulusError::Io("refused".into()), "i/o error: refused"),
        ];
        for (e, s) in cases {
            assert_eq!(e.to_string(), s);
            let _: &dyn std::error::Error = &e;
        }
    }

    #[test]
    fn converts_from_io_errors() {
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused");
        assert!(matches!(CumulusError::from(io), CumulusError::Io(_)));
    }
}
