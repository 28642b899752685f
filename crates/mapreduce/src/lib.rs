//! A miniature MapReduce engine with Bloom-filter-pushdown joins (§V).
//!
//! The paper's final experiment embeds MPCBF in Hadoop to accelerate
//! **reduce-side joins**: a filter built from the smaller input is
//! broadcast to every map task (via DistributedCache), and mappers drop
//! records whose join key fails the membership test — shrinking the
//! shuffle, which dominates join cost. Table IV reports, per filter:
//! the join false-positive rate, the number of map outputs, and the total
//! execution time.
//!
//! Hadoop itself is a cluster system we neither need nor can ship, so this
//! crate implements the same *programming model* in-process, faithfully
//! enough that Table IV's quantities are measured rather than modelled:
//!
//! * [`engine`] — input splits, parallel map tasks (scoped threads),
//!   hash partitioning, a sort-based shuffle, parallel reduce
//!   tasks, and per-phase counters/timings (the Hadoop counter set);
//! * [`cache`] — the DistributedCache analog: a byte-accounted broadcast
//!   of read-only side data (here: the filter) to all map tasks;
//! * [`join`] — reduce-side join with tagged values and an optional
//!   filter pushdown, plus the ground-truth accounting (join FPR, map
//!   outputs saved) Table IV needs.
//!
//! Absolute seconds differ from the paper's 3-node cluster, but the
//! relative ordering — CBF < MPCBF-1 < MPCBF-2 in filtering power, and
//! fewer map outputs ⇒ faster joins — is reproduced by measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod join;

pub use cache::Broadcast;
pub use engine::{run_job, Emitter, JobConfig, JobStats};
pub use join::{reduce_side_join, JoinConfig, JoinStats, KeyFilter};
