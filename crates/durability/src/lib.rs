//! # mpcbf-durability
//!
//! Write-ahead log, snapshots, and crash recovery for the MPCBF filter
//! family. A process restart — clean or violent — must never silently
//! lose counter state or introduce false negatives; this crate supplies
//! the WAL + snapshot + replay discipline that guarantees it:
//!
//! * [`record`] — CRC-framed WAL records `{seq, op-kind, key-digest,
//!   payload, crc32}`; batches are one all-or-nothing frame.
//! * [`wal`] — segmented log with [`FsyncPolicy`] (`Always` / `EveryN` /
//!   `Interval`) and a repairing recovery scan that truncates torn
//!   tails at the first bad CRC.
//! * [`snapshot`] — full filter images through the codec encode path,
//!   published atomically via rename.
//! * [`DurableSharded`] — the one durable wrapper, for both sharded
//!   pools: the fixed-size [`mpcbf_concurrent::ShardedMpcbf`] and the
//!   elastic [`mpcbf_concurrent::ElasticShardedMpcbf`], which plug in through
//!   [`ShardPool`]: one WAL per shard (`wal-s{NNNN}`) behind its own
//!   lock, one log-then-apply step that any thread runs on a shared
//!   `&self` (after a failed append a shard's log refuses every later
//!   one with [`DurableError::LogBroken`]; `mpcbf serve` writes through
//!   it from its connection threads), one checkpoint publisher
//!   ([`publish_checkpoint`]) and one parallel recovery loop. A directory keeps its mode for life:
//!   recovery refuses another mode's intact snapshot with
//!   [`DurableError::ModeMismatch`]. A one-shard pool is the durable
//!   single filter.
//! * [`kill`] — seeded in-process crash injection for the drill matrix
//!   (crash mid-append, mid-fsync, mid-snapshot-rename, …).
//!
//! ```
//! use mpcbf_concurrent::ShardedMpcbf;
//! use mpcbf_core::MpcbfConfig;
//! use mpcbf_durability::{DurabilityOptions, DurableSharded};
//!
//! let dir = std::env::temp_dir().join(format!("mpcbf-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = MpcbfConfig::builder()
//!     .memory_bits(100_000)
//!     .expected_items(1_000)
//!     .hashes(3)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let pool = || -> ShardedMpcbf { ShardedMpcbf::new(config.clone(), 1) };
//!
//! // Log-then-apply: every acknowledged op is on disk first.
//! let durable = DurableSharded::create(pool(), DurabilityOptions::new(&dir)).unwrap();
//! durable.insert_bytes(b"alice").unwrap();
//! durable.snapshot().unwrap();
//! durable.insert_bytes(b"bob").unwrap();
//! drop(durable); // simulated crash
//!
//! // Recovery: snapshot + WAL replay, then a structural verify.
//! let (recovered, report) = DurableSharded::open_or_recover(DurabilityOptions::new(&dir), pool).unwrap();
//! assert!(recovered.contains_bytes(b"alice"));
//! assert!(recovered.contains_bytes(b"bob"));
//! assert!(report.scrub_clean);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! The elastic pool recovers the same way, its scale-ups replayed from
//! the log:
//!
//! ```
//! use mpcbf_concurrent::ElasticShardedMpcbf;
//! use mpcbf_core::{CapacityPolicy, MpcbfConfig};
//! use mpcbf_durability::{DurabilityOptions, DurableSharded};
//!
//! let dir = std::env::temp_dir().join(format!("mpcbf-doc-sharded-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = MpcbfConfig::builder()
//!     .memory_bits(100_000)
//!     .expected_items(1_000)
//!     .hashes(3)
//!     .build()
//!     .unwrap();
//! // A manual pool: every scale-up is logged before it is applied.
//! let pool = || -> ElasticShardedMpcbf {
//!     ElasticShardedMpcbf::manual(config.clone(), 4, CapacityPolicy::default()).unwrap()
//! };
//! let durable = DurableSharded::create(pool(), DurabilityOptions::new(&dir)).unwrap();
//! durable.insert_bytes(b"alice").unwrap();
//! drop(durable); // simulated crash
//!
//! let (recovered, _) = DurableSharded::open_or_recover(DurabilityOptions::new(&dir), pool).unwrap();
//! assert!(recovered.contains_bytes(b"alice"));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod kill;
pub mod record;
pub mod report;
pub mod sharded;
pub mod snapshot;
pub mod wal;

pub use error::DurableError;
pub use kill::{KillSite, KillSwitch};
pub use record::{decode_frame, encode_frame, FrameError, WalOp, WalRecord};
pub use report::RecoveryReport;
pub use sharded::{
    decode_envelope, encode_envelope, publish_checkpoint, DurabilityOptions, DurableSharded,
    ShardPool,
};
pub use snapshot::{write_file_atomic, LoadedSnapshot, SnapshotStore};
pub use wal::{FsyncPolicy, TornTail, Wal, WalScan};
