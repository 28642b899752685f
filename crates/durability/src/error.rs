//! Error type shared by the WAL, snapshot, and recovery paths.

use crate::kill::KillSite;
use mpcbf_core::{CodecError, FilterError};

/// Anything that can go wrong while logging, snapshotting, or
/// recovering a durable filter.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the durability layer was doing.
        context: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// An injected crash fired at this site (drills only; a production
    /// switch is never armed).
    Killed(KillSite),
    /// A snapshot image failed to decode.
    Image(CodecError),
    /// The wrapped filter refused the operation (e.g. word overflow).
    /// The op is already logged; replay re-refuses it deterministically.
    Filter(FilterError),
    /// The newest usable snapshot is an intact image written in another
    /// mode (`"fixed"`, `"elastic"` or `"single-filter"`). Recovery
    /// refuses and touches nothing: skipping the snapshot would rebuild
    /// from the WAL tail alone, and the next checkpoint would purge it.
    ModeMismatch {
        /// Sequence number of the refused snapshot.
        snapshot_seq: u64,
        /// The mode that wrote it.
        stored: &'static str,
    },
    /// An earlier append to this shard's WAL failed, so the log refuses
    /// every later one: a record appended behind the failed frame would
    /// be cut off by recovery. Reopening the directory recovers it.
    LogBroken {
        /// The shard whose log failed.
        shard: usize,
    },
}

impl DurableError {
    pub(crate) fn io(context: &'static str, source: std::io::Error) -> Self {
        DurableError::Io { context, source }
    }

    /// True when the error is an injected crash.
    pub fn is_kill(&self) -> bool {
        matches!(self, DurableError::Killed(_))
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { context, source } => write!(f, "{context}: {source}"),
            DurableError::Killed(site) => write!(f, "injected crash at {site}"),
            DurableError::Image(e) => write!(f, "snapshot image: {e}"),
            DurableError::Filter(e) => write!(f, "filter refused: {e:?}"),
            DurableError::ModeMismatch {
                snapshot_seq,
                stored,
            } => write!(
                f,
                "snapshot {snapshot_seq} was written in {stored} mode; reopen the directory in {stored} mode"
            ),
            DurableError::LogBroken { shard } => write!(
                f,
                "shard {shard} wal refused: an earlier append failed; reopen the directory"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Image(e)
    }
}

impl From<FilterError> for DurableError {
    fn from(e: FilterError) -> Self {
        DurableError::Filter(e)
    }
}
