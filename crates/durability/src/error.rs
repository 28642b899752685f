//! Error type shared by the WAL, snapshot, and recovery paths.

use crate::kill::KillSite;
use mpcbf_core::FilterError;

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
    /// The wrapped filter refused the operation (e.g. word overflow).
    /// The op is already logged; replay re-refuses it deterministically.
    Filter(FilterError),
    /// The newest usable snapshot is an intact image written in another
    /// mode (`"fixed"`, `"elastic"`, or `"single-filter"` for the bare
    /// filter image of the removed single-filter wrapper). Recovery
    /// refuses and touches nothing: skipping the snapshot would rebuild
    /// from the WAL tail alone, and the next checkpoint would purge it.
    ModeMismatch {
        /// Sequence number of the refused snapshot.
        snapshot_seq: u64,
        /// The mode that wrote it.
        stored: &'static str,
    },
    /// A directory without a usable snapshot holds WALs, at least one
    /// with a record in it, written by a pool of another shard count than
    /// the one recovering it. Recovery
    /// refuses and touches nothing: with fewer shards the logs past the
    /// pool's last shard would never replay, and with more the replayed
    /// keys would route to other shards than the ones that acknowledged
    /// them (and an elastic log's scale-ups would not follow its keys).
    ShardCountMismatch {
        /// Shard logs in the directory: the shard count it was written
        /// with.
        logs: usize,
        /// Shards of the recovering pool.
        shards: usize,
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
            DurableError::Filter(e) => write!(f, "filter refused: {e:?}"),
            DurableError::ModeMismatch {
                snapshot_seq,
                stored: "single-filter",
            } => write!(
                f,
                "snapshot {snapshot_seq} was written by the removed single-filter wrapper; \
                 no mode of this version opens the directory"
            ),
            DurableError::ModeMismatch {
                snapshot_seq,
                stored,
            } => write!(
                f,
                "snapshot {snapshot_seq} was written in {stored} mode; reopen the directory in {stored} mode"
            ),
            DurableError::ShardCountMismatch { logs, shards } => write!(
                f,
                "the directory was written with {logs} shards (it holds their WALs and no \
                 snapshot); reopen it with {logs} shards, not {shards}"
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
            _ => None,
        }
    }
}

impl From<FilterError> for DurableError {
    fn from(e: FilterError) -> Self {
        DurableError::Filter(e)
    }
}
