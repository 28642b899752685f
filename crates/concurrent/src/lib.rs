//! Thread-safe MPCBF.
//!
//! The paper targets line-rate packet processing (IPDPS venue; §I motivates
//! parallel CBF banks on routers), and MPCBF's layout is unusually friendly
//! to concurrency: *all state an operation mutates lives inside the `g`
//! words it hashes to* — one word for MPCBF-1 — so a compare-and-swap on
//! each word is all the synchronisation the filter needs. One design is
//! provided, [`sharded::ShardedMpcbf`]:
//!
//! * the key space is partitioned into a power-of-two pool of
//!   *independent sub-filters*, routed by digest bits disjoint from the
//!   probe bits (see `sharded`'s module docs), so every element lives
//!   entirely in one shard — the unit of routing, write-ahead log and
//!   checkpoint;
//! * every shard is an array of `AtomicU64` words, each one self-contained
//!   [`HcbfWord`] value: a query loads its words, an update is one CAS
//!   loop per word group around the [`HcbfWord`] codec. No lock is taken.
//!
//! It exposes the batch-first pipeline (`contains_batch` / `insert_batch`
//! / `remove_batch`, plus allocation-free `*_batch_bytes_with` twins that
//! reuse caller-held scratch): hash every key up front into a
//! [`PlanBuffer`](mpcbf_core::PlanBuffer), then probe or update in input
//! order through the same planned bodies the scalar operations run — with
//! per-key results in input order and state bit-identical to the
//! equivalent scalar loop.
//!
//! [`ElasticShardedMpcbf`] is the autoscaling pool: per-shard generation
//! stacks, each behind a lock.
//!
//! ## Consistency model
//!
//! Every word update is one atomic CAS, so every word readers see is a
//! valid HCBF word, and [`ShardedMpcbf::verify`] is sound beside writers.
//! An element spanning `g > 1` words is updated group by group, so a
//! concurrent query can observe a *partially inserted* element (and miss
//! it) or a *partially deleted* one (and still report it). A completed
//! insert is never missed — the same relaxation hardware CBF banks
//! accept. A batch is applied key by key: readers can observe it half
//! done, within one shard as across shards; it is complete when the call
//! returns. A refused update rolls back its applied groups; if another
//! writer races that rollback on the same key, the key's state is
//! indeterminate and the update reports
//! [`FilterError::CorruptionDetected`](mpcbf_core::FilterError), never a
//! panic.
//!
//! ## Metering
//!
//! Each planned operation body exists once and returns its
//! [`OpCost`](mpcbf_core::OpCost), as the sequential filters' `*_cost`
//! calls do; the plain entry points discard it. To meter served traffic,
//! call the batch `*_batch_metered(keys, scratch, sink)` entry points: they
//! return the batch's summed cost and report it to an
//! [`OpSink`](mpcbf_core::OpSink) as one `(kind, ops, cost, wall nanos)`
//! sample, like `CountingFilter::*_batch_metered`. A [`ShardedMpcbf`] cost
//! is the sequential filter's accounting over one shard's sub-filter,
//! plus the shard-selector bits in each operation's hash bits.
//!
//! [`HcbfWord`]: mpcbf_core::HcbfWord

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod elastic;
mod planned;
pub mod sharded;

pub use bulk::{
    build_parallel, build_resilient_parallel, default_threads, ingest, DigestBuilder, KeyFeed,
    ShardedBulkBuilder, INGEST_CHUNK,
};
pub use elastic::{ElasticShardedMpcbf, ElasticStats};
pub use sharded::{ShardBatch, ShardedMpcbf};
