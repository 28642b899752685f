//! Multi-threaded partition build: scoped threads over disjoint word
//! ranges.
//!
//! The staging pipeline in [`mpcbf_core::bulk`] ends with one
//! independent [`RegionJob`] per word region — each owns its entries and
//! the mutable word slice it sweeps, so regions parallelise with no
//! locks and no shared cache lines. This module provides the executors:
//!
//! * [`build_parallel`] / [`build_resilient_parallel`] — finish a
//!   [`BulkBuilder`] / [`ResilientBulkBuilder`] by spreading its region
//!   jobs over scoped threads;
//! * [`ShardedBulkBuilder`] — a builder for [`ShardedMpcbf`] that stages
//!   each shard's keys into that shard's own staging hierarchy and word
//!   array (no shard locks touched until install), finishing shards in
//!   parallel.
//!
//! With `threads <= 1` (or one region) the executors run inline, so the
//! parallel entry points are safe defaults on any core count.

use mpcbf_bitvec::AlignedVec;
use mpcbf_core::bulk::{
    BulkBuilder, BulkStage, BulkStats, RegionJob, ResilientBulkBuilder, SweepScratch,
};
use mpcbf_core::{HcbfWord, Mpcbf, MpcbfConfig, ResilientMpcbf};
use mpcbf_hash::{Hasher128, Murmur3};

use crate::sharded::{split_digest, ShardedMpcbf};
use std::marker::PhantomData;

/// Runs a slice of region jobs on up to `threads` scoped threads
/// (inline when one thread suffices).
fn run_jobs(jobs: &mut [RegionJob<'_>], threads: usize) {
    if threads <= 1 || jobs.len() <= 1 {
        let mut scratch = SweepScratch::new();
        for job in jobs {
            job.run_with(&mut scratch);
        }
        return;
    }
    let per = jobs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for chunk in jobs.chunks_mut(per) {
            scope.spawn(move || {
                let mut scratch = SweepScratch::new();
                for job in chunk {
                    job.run_with(&mut scratch);
                }
            });
        }
    });
}

/// Threads to use when the caller does not care: the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Finishes a bulk build by sweeping its regions on up to `threads`
/// scoped threads. Bit-for-bit identical to [`BulkBuilder::finish`]
/// (region sweeps are independent — see the staging module docs).
pub fn build_parallel<H: Hasher128>(builder: BulkBuilder<H>, threads: usize) -> Mpcbf<u64, H> {
    builder.finish_with(|jobs| run_jobs(jobs, threads))
}

/// [`build_parallel`] for the resilient builder.
pub fn build_resilient_parallel<H: Hasher128>(
    builder: ResilientBulkBuilder<H>,
    threads: usize,
) -> ResilientMpcbf<H> {
    builder.finish_with(|jobs| run_jobs(jobs, threads))
}

/// Streaming bulk builder for [`ShardedMpcbf`]: each shard gets its own
/// staging hierarchy and word array, keys route by the same top-16
/// digest bits as the live insert path, and finish builds shards on
/// scoped threads, then hands the arrays to the filter as its shards —
/// the builder's words are the only copy ever allocated.
pub struct ShardedBulkBuilder<H: Hasher128 = Murmur3> {
    config: MpcbfConfig,
    shard_mask: u64,
    stages: Vec<BulkStage>,
    words: Vec<AlignedVec<HcbfWord<u64>>>,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> ShardedBulkBuilder<H> {
    /// A builder producing a filter with `shards` requested shards (the
    /// same rounding as [`ShardedMpcbf::new`] applies).
    ///
    /// # Panics
    /// Panics if the configuration derives a non-64-bit word.
    pub fn new(config: MpcbfConfig, shards: usize) -> Self {
        let shape = config.shape();
        assert_eq!(shape.w, 64, "bulk build requires 64-bit words");
        let (count, per) = ShardedMpcbf::<u64, H>::geometry(&config, shards);
        let expected_per_shard = config.expected_items().div_ceil(count as u64);
        ShardedBulkBuilder {
            stages: (0..count)
                .map(|_| {
                    BulkStage::with_expected(per, shape.k, shape.g, shape.b1, expected_per_shard)
                })
                .collect(),
            words: (0..count)
                .map(|_| AlignedVec::filled_huge(per as usize, HcbfWord::new()))
                .collect(),
            shard_mask: count as u64 - 1,
            config,
            _hasher: PhantomData,
        }
    }

    /// Stages one key into its home shard.
    pub fn push(&mut self, key: &[u8]) {
        let digest = H::hash128(self.config.seed(), key);
        let (shard, probe_digest) = split_digest(digest, self.shard_mask);
        self.stages[shard].push_digest(self.words[shard].as_mut_slice(), probe_digest);
    }

    /// Summed staging counters across shards.
    pub fn stats(&self) -> BulkStats {
        let mut total = BulkStats::default();
        for stage in &self.stages {
            let s = stage.stats();
            total.keys += s.keys;
            total.l1_spills += s.l1_spills;
            total.l2_spills += s.l2_spills;
            total.flushes += s.flushes;
        }
        total
    }

    /// Completes the build on the calling thread.
    pub fn finish(self) -> ShardedMpcbf<u64, H> {
        self.finish_parallel(1)
    }

    /// Completes the build with shards drained on up to `threads`
    /// scoped threads; the word arrays become the filter's shards.
    pub fn finish_parallel(mut self, threads: usize) -> ShardedMpcbf<u64, H> {
        let mut shards: Vec<(&mut BulkStage, &mut AlignedVec<HcbfWord<u64>>)> =
            self.stages.iter_mut().zip(self.words.iter_mut()).collect();
        if threads <= 1 || shards.len() <= 1 {
            for (stage, words) in shards {
                stage.finish_into(words.as_mut_slice());
            }
        } else {
            let per = shards.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for chunk in shards.chunks_mut(per) {
                    scope.spawn(move || {
                        for (stage, words) in chunk {
                            stage.finish_into(words.as_mut_slice());
                        }
                    });
                }
            });
        }
        let refused = self.stages.iter().map(BulkStage::refused).sum();
        ShardedMpcbf::from_shard_words(self.config, self.words, refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::Filter;

    fn config(memory: u64, items: u64, seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(memory)
            .expected_items(items)
            .hashes(3)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn keys(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("cc-{i}").into_bytes()).collect()
    }

    #[test]
    fn parallel_build_matches_sequential_insert() {
        let c = config(1 << 20, 40_000, 21);
        let keys = keys(40_000);
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut builder: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            builder.push(k);
        }
        let built = build_parallel(builder, 4);
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
    }

    #[test]
    fn sharded_bulk_matches_live_inserts() {
        let c = config(1 << 18, 10_000, 23);
        let keys = keys(10_000);
        let live: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 8);
        for k in &keys {
            let _ = live.insert_bytes(k);
        }
        let mut builder: ShardedBulkBuilder = ShardedBulkBuilder::new(c, 8);
        for k in &keys {
            builder.push(k);
        }
        let built = builder.finish_parallel(4);
        assert_eq!(built.shard_count(), live.shard_count());
        for s in 0..live.shard_count() {
            assert_eq!(
                built.shard_raw_words(s),
                live.shard_raw_words(s),
                "shard {s}"
            );
        }
        assert_eq!(built.overflows(), live.overflows());
    }
}
