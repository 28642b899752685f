//! Thread-safe MPCBF variants.
//!
//! The paper targets line-rate packet processing (IPDPS venue; §I motivates
//! parallel CBF banks on routers), and MPCBF's layout is unusually friendly
//! to concurrency: *all state an operation mutates lives inside the `g`
//! words it hashes to*, so synchronisation can be per-word instead of
//! per-filter. Two designs are provided:
//!
//! * [`sharded::ShardedMpcbf`] — the key space is partitioned into a
//!   power-of-two pool of *independent sub-filters*, each guarded by one
//!   [`parking_lot::Mutex`]. The shard index comes from digest bits
//!   disjoint from the probe bits (see `sharded`'s module docs), so every
//!   element lives entirely in one shard: a scalar operation takes exactly
//!   one lock and a batch operation takes each lock at most once.
//! * [`atomic::AtomicMpcbf`] — lock-free for 64-bit words: each word is an
//!   `AtomicU64` and every update is a single-word CAS loop around the
//!   [`HcbfWord`] codec (possible precisely because an HCBF word is a
//!   self-contained value type).
//!
//! Both expose the batch-first pipeline (`contains_batch` /
//! `insert_batch` / `remove_batch`, plus allocation-free `*_batch_bytes_with`
//! twins that reuse caller-held scratch): hash every key up front into a
//! [`PlanBuffer`](mpcbf_core::PlanBuffer), then probe or update through the
//! same planned bodies the scalar operations run — with per-key results in
//! input order and state bit-identical to the equivalent scalar loop.
//!
//! ## Consistency model
//!
//! Per-word updates are atomic; an element spanning `g > 1` words is
//! updated word-by-word, so a concurrent query can observe a *partially
//! inserted* element (and miss it) or a *partially deleted* one (and still
//! report it). Completed inserts are never missed, and the structure is
//! always a valid HCBF — the same relaxation hardware CBF banks accept.
//! Sharded batch updates hold the shard lock for the whole per-shard run,
//! so within one shard a batch is observed atomically.
//!
//! ## Metering
//!
//! Each planned operation body exists once and returns its
//! [`OpCost`](mpcbf_core::OpCost), as the sequential filters' `*_cost`
//! calls do; the plain entry points discard it. To meter served traffic,
//! call the batch `*_batch_metered(keys, scratch, sink)` entry points: they
//! return the batch's summed cost and report it to an
//! [`OpSink`](mpcbf_core::OpSink) as one `(kind, ops, cost, wall nanos)`
//! sample, like `CountingFilter::*_batch_metered`. [`AtomicMpcbf`] costs
//! equal the sequential filter's exactly; [`ShardedMpcbf`] adds the
//! shard-selector bits to each operation's hash bits.
//!
//! [`HcbfWord`]: mpcbf_core::HcbfWord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod bulk;
pub mod elastic;
mod planned;
pub mod sharded;

pub use atomic::AtomicMpcbf;
pub use bulk::{build_parallel, build_resilient_parallel, default_threads, ShardedBulkBuilder};
pub use elastic::{ElasticShardedMpcbf, ElasticStats};
pub use sharded::{ShardBatch, ShardedMpcbf};
