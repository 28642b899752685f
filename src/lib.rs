//! # mpcbf — Multiple-Partitioned Counting Bloom Filters
//!
//! Facade crate for the MPCBF workspace, a production-quality Rust
//! reproduction of *"A Multi-Partitioning Approach to Building Fast and
//! Accurate Counting Bloom Filters"* (Huang et al., IEEE IPDPS 2013).
//!
//! This crate re-exports the workspace members under stable module names so
//! downstream users need a single dependency:
//!
//! * [`core`] — the filters: Bloom, CBF, BF-1, PCBF-1/g, HCBF, MPCBF-1/g.
//! * [`hash`] — hash substrate (Murmur3, xxHash64, FNV, double hashing,
//!   hash-bit accounting).
//! * [`bitvec`] — packed counter vectors, bit vectors, generic words.
//! * [`analysis`] — the paper's analytical models (false-positive-rate
//!   formulas, overflow bounds, optimal-k search).
//! * [`variants`] — related-work comparators (d-left CBF, VI-CBF).
//! * [`concurrent`] — thread-safe MPCBF variants.
//! * [`durability`] — write-ahead log, snapshots, and crash recovery
//!   (`DurableFilter`, `DurableSharded`, kill-point drills).
//! * [`telemetry`] — latency histograms, counters/gauges, Prometheus-text
//!   and JSON exporters fed by the metered batch operations.
//! * [`workloads`] — synthetic-string, flow-trace and patent workloads.
//! * [`mapreduce`] — mini MapReduce engine with filter-pushdown joins.
//! * [`server`] — filter-as-a-service: a durable multi-core TCP server
//!   over the sharded filter, plus the blocking [`server::Client`].
//!
//! ## Quickstart
//!
//! ```
//! use mpcbf::prelude::*;
//!
//! // 1 MiB of memory, expecting ~100k elements, one memory access per op.
//! let config = MpcbfConfig::builder()
//!     .memory_bits(8 << 20)
//!     .expected_items(100_000)
//!     .hashes(3)
//!     .build()
//!     .unwrap();
//! let mut filter = Mpcbf1::new(config);
//!
//! filter.insert(&"alice").unwrap();
//! filter.insert(&"bob").unwrap();
//! assert!(filter.contains(&"alice"));
//! filter.remove(&"bob").unwrap();
//! assert!(!filter.contains(&"bob"));
//! ```

pub use mpcbf_analysis as analysis;
pub use mpcbf_bitvec as bitvec;
pub use mpcbf_concurrent as concurrent;
pub use mpcbf_core as core;
pub use mpcbf_durability as durability;
pub use mpcbf_hash as hash;
pub use mpcbf_mapreduce as mapreduce;
pub use mpcbf_server as server;
pub use mpcbf_telemetry as telemetry;
pub use mpcbf_variants as variants;
pub use mpcbf_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mpcbf_core::prelude::*;
    pub use mpcbf_hash::{Hasher128, Key, Murmur3};
}
