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
//!   array, finishing shards in parallel; the arrays become the filter's
//!   atomic shards in place.
//!
//! Every executor gives each thread one [`SweepScratch`], reused across
//! the regions that thread sweeps.
//!
//! [`ingest`] feeds either builder: the calling thread hashes keys into
//! chunks of [`INGEST_CHUNK`] digests while one scoped helper thread
//! stages them, in stream order, so the output is the same at any
//! thread count (see *Pipelined ingest* in [`mpcbf_core::bulk`]).
//!
//! With `threads <= 1` (or one region) the executors and the ingest run
//! inline, so the parallel entry points are safe defaults on any core
//! count.

use mpcbf_core::bulk::{
    BulkBuilder, BulkStage, BulkStats, RegionJob, ResilientBulkBuilder, SweepScratch,
};
use mpcbf_core::{Mpcbf, MpcbfConfig, ResilientMpcbf};
use mpcbf_hash::{Hasher128, Murmur3};

use crate::sharded::{split_digest, ShardedMpcbf};
use std::marker::PhantomData;
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Digests per ingest chunk: 8 Ki `u128`s, 128 KiB.
pub const INGEST_CHUNK: usize = 8_192;

/// Chunk buffers a pipelined ingest owns, the one being hashed into
/// included: at most this many chunks (512 KiB) are in flight.
const INGEST_IN_FLIGHT: usize = 4;

/// Keys a build must expect (its configuration's expected items) before
/// [`ingest`] pipelines it: 64 chunks, 512 Ki keys. The helper thread
/// has a fixed cost, about 0.2 MiB of stack, allocator arena and code
/// pages: 3% of a 100 k-key build's 7.5 MiB peak, where hashing beside
/// staging would save about 2 ms.
const PIPELINE_MIN_KEYS: u64 = 64 * INGEST_CHUNK as u64;

/// A bulk builder that stages keys as chunks of pre-hashed digests.
pub trait DigestBuilder: Send {
    /// The hash keys are digested with.
    type Hasher: Hasher128;
    /// The configuration being built: its seed digests the keys.
    fn config(&self) -> MpcbfConfig;
    /// Stages `digests` in order, exactly as pushing their keys one by
    /// one would.
    fn push_digests(&mut self, digests: &[u128]);
}

impl<H: Hasher128> DigestBuilder for BulkBuilder<H> {
    type Hasher = H;
    fn config(&self) -> MpcbfConfig {
        BulkBuilder::config(self)
    }
    fn push_digests(&mut self, digests: &[u128]) {
        BulkBuilder::push_digests(self, digests);
    }
}

impl<H: Hasher128> DigestBuilder for ShardedBulkBuilder<H> {
    type Hasher = H;
    fn config(&self) -> MpcbfConfig {
        self.config
    }
    fn push_digests(&mut self, digests: &[u128]) {
        ShardedBulkBuilder::push_digests(self, digests);
    }
}

/// Where a [`KeyFeed`] hands its full chunks.
enum Stager<'a> {
    /// Staged on the hashing thread.
    Inline(&'a mut dyn FnMut(&[u128])),
    /// Sent to the staging thread; emptied buffers come back on `free`.
    Piped {
        full: SyncSender<Vec<u128>>,
        free: Receiver<Vec<u128>>,
    },
}

/// The hashing end of an [`ingest`]: digests each pushed key into the
/// current chunk and hands every full chunk to the stager.
pub struct KeyFeed<'a, H: Hasher128> {
    seed: u64,
    chunk: Vec<u128>,
    stager: Stager<'a>,
    _hasher: PhantomData<H>,
}

impl<'a, H: Hasher128> KeyFeed<'a, H> {
    /// Hashes `key` into the current chunk, handing the chunk on when it
    /// is full.
    #[inline]
    pub fn push(&mut self, key: &[u8]) {
        self.chunk.push(H::hash128(self.seed, key));
        if self.chunk.len() == INGEST_CHUNK {
            self.emit();
        }
    }

    /// Runs `produce` on a feed into `stager`, then hands on the last,
    /// partial chunk.
    fn drive<R>(seed: u64, stager: Stager<'a>, produce: impl FnOnce(&mut Self) -> R) -> R {
        let mut feed = KeyFeed {
            seed,
            chunk: Vec::with_capacity(INGEST_CHUNK),
            stager,
            _hasher: PhantomData,
        };
        let out = produce(&mut feed);
        if !feed.chunk.is_empty() {
            feed.emit();
        }
        out
    }

    /// Hands the current chunk to the stager and starts an empty one.
    fn emit(&mut self) {
        match &mut self.stager {
            Stager::Inline(stage) => {
                stage(&self.chunk);
                self.chunk.clear();
            }
            Stager::Piped { full, free } => {
                let next = free.recv().expect("the staging thread stopped early");
                let chunk = std::mem::replace(&mut self.chunk, next);
                full.send(chunk).expect("the staging thread stopped early");
            }
        }
    }
}

/// Streams the keys `produce` pushes into `builder` and returns what
/// `produce` returns.
///
/// With `threads >= 2`, for a build that expects at least 512 Ki keys,
/// the ingest is a two-stage pipeline: the calling thread runs
/// `produce`, hashing keys into chunks of [`INGEST_CHUNK`] digests,
/// while one scoped helper thread stages the chunks in stream order.
/// The two are joined by a bounded channel of recycled buffers, so at
/// most four chunks are in flight. Otherwise the same chunk loop stages
/// inline. Either way `builder` sees the same digests in the same order,
/// so the built filter is identical at any thread count.
pub fn ingest<B: DigestBuilder, R>(
    builder: &mut B,
    threads: usize,
    produce: impl FnOnce(&mut KeyFeed<'_, B::Hasher>) -> R,
) -> R {
    let pipelined = threads > 1 && builder.config().expected_items() >= PIPELINE_MIN_KEYS;
    run_ingest(builder, pipelined, produce)
}

/// [`ingest`] with the choice of a staging thread made.
fn run_ingest<B: DigestBuilder, R>(
    builder: &mut B,
    pipelined: bool,
    produce: impl FnOnce(&mut KeyFeed<'_, B::Hasher>) -> R,
) -> R {
    let seed = builder.config().seed();
    if !pipelined {
        let mut stage = |digests: &[u128]| builder.push_digests(digests);
        return KeyFeed::drive(seed, Stager::Inline(&mut stage), produce);
    }
    let (full, chunks) = mpsc::sync_channel::<Vec<u128>>(INGEST_IN_FLIGHT);
    let (recycle, free) = mpsc::channel();
    for _ in 1..INGEST_IN_FLIGHT {
        recycle
            .send(Vec::with_capacity(INGEST_CHUNK))
            .expect("the receiver is alive");
    }
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for mut chunk in chunks {
                builder.push_digests(&chunk);
                chunk.clear();
                // The feed stops taking buffers once its last chunk is
                // sent.
                let _ = recycle.send(chunk);
            }
        });
        // The feed is dropped on return (or unwind), which closes the
        // channel and ends the helper.
        KeyFeed::drive(seed, Stager::Piped { full, free }, produce)
    })
}

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
/// staging hierarchy and word array (one [`BulkStage`]), keys route by
/// the same top-16 digest bits as the live insert path, and finish
/// builds shards on scoped threads, then hands the stages' arrays to
/// the filter as its shards — the builder's words are the only copy
/// ever allocated, and each shard's are first touched by its own
/// sweeps.
pub struct ShardedBulkBuilder<H: Hasher128 = Murmur3> {
    config: MpcbfConfig,
    shard_mask: u64,
    stages: Vec<BulkStage>,
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
            shard_mask: count as u64 - 1,
            config,
            _hasher: PhantomData,
        }
    }

    /// Stages one key into its home shard.
    pub fn push(&mut self, key: &[u8]) {
        self.push_digests(&[H::hash128(self.config.seed(), key)]);
    }

    /// Stages a chunk of pre-hashed keys (each digest is
    /// `H::hash128(seed, key)`), each into its home shard in arrival
    /// order.
    pub fn push_digests(&mut self, digests: &[u128]) {
        for &digest in digests {
            let (shard, probe_digest) = split_digest(digest, self.shard_mask);
            self.stages[shard].push_digest(probe_digest);
        }
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
        // One sweep scratch per thread, shared by its shards' regions.
        let finish = |stages: &mut [BulkStage]| {
            let mut scratch = SweepScratch::new();
            for stage in stages {
                stage.finish_with(|jobs| jobs.iter_mut().for_each(|j| j.run_with(&mut scratch)));
            }
        };
        if threads <= 1 || self.stages.len() <= 1 {
            finish(&mut self.stages);
        } else {
            let per = self.stages.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for chunk in self.stages.chunks_mut(per) {
                    scope.spawn(move || finish(chunk));
                }
            });
        }
        let refused = self.stages.iter().map(BulkStage::refused).sum();
        let words = self.stages.into_iter().map(BulkStage::into_words);
        ShardedMpcbf::from_shard_words(self.config, words.collect(), refused)
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

    /// An overfull shape: over a quarter of the keys are refused, so
    /// which keys a word admits depends on their order. The key count
    /// spans several ingest chunks and ends in a partial one.
    fn overfull() -> (MpcbfConfig, Vec<Vec<u8>>) {
        (
            config(1 << 16, 2_000, 29),
            keys(5 * INGEST_CHUNK as u64 + 77),
        )
    }

    #[test]
    fn pipelined_ingest_equals_the_scalar_insert_loop() {
        let (c, keys) = overfull();
        let mut scalar: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = scalar.insert_bytes(k);
        }
        assert!(scalar.overflows() > keys.len() as u64 / 4, "refusals occur");
        for (threads, pipelined) in [(1, false), (2, true), (4, true)] {
            let mut builder: BulkBuilder = BulkBuilder::new(c);
            run_ingest(&mut builder, pipelined, |feed| {
                keys.iter().for_each(|k| feed.push(k))
            });
            let built = build_parallel(builder, threads);
            assert_eq!(built.raw_words(), scalar.raw_words(), "{threads} threads");
            assert_eq!(built.items(), scalar.items(), "{threads} threads");
            assert_eq!(built.overflows(), scalar.overflows(), "{threads} threads");
        }
    }

    #[test]
    fn pipelined_sharded_ingest_equals_the_scalar_insert_loop() {
        let (c, keys) = overfull();
        let scalar: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 8);
        let admitted = keys
            .iter()
            .filter(|k| scalar.insert_bytes(k).is_ok())
            .count();
        assert!(scalar.overflows() > keys.len() as u64 / 4, "refusals occur");
        for (threads, pipelined) in [(1, false), (2, true), (4, true)] {
            let mut builder: ShardedBulkBuilder = ShardedBulkBuilder::new(c, 8);
            run_ingest(&mut builder, pipelined, |feed| {
                keys.iter().for_each(|k| feed.push(k))
            });
            let built = builder.finish_parallel(threads);
            for s in 0..scalar.shard_count() {
                assert_eq!(
                    built.shard_raw_words(s),
                    scalar.shard_raw_words(s),
                    "{threads} threads, shard {s}"
                );
            }
            assert_eq!(built.overflows(), scalar.overflows(), "{threads} threads");
            assert_eq!(
                keys.len() as u64 - built.overflows(),
                admitted as u64,
                "{threads} threads"
            );
        }
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
