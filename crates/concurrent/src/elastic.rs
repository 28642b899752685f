//! Sharded elastic MPCBF: per-shard generation stacks and scale decisions.
//!
//! [`ElasticShardedMpcbf`] partitions the key space across a power-of-two
//! pool of independent [`ElasticMpcbf`] stacks, each guarded by one
//! [`parking_lot::Mutex`]. Keys route by the top [`SHARD_BITS`] bits of a
//! 128-bit digest keyed by the *wrapper* seed — the same disjoint-field
//! idiom as [`ShardedMpcbf`](crate::sharded::ShardedMpcbf) — while each
//! shard's generations hash with their own derived seeds, so routing
//! reveals nothing about in-shard placement.
//!
//! Capacity management is **per shard**: a hot shard scales up and
//! compacts on its own schedule while cold shards stay at their base
//! size, which is exactly what skewed traffic needs (uniform scaling
//! would pay the worst shard's memory everywhere). A scalar operation
//! takes one lock; [`ElasticShardedMpcbf::with_shard`] exposes the locked
//! stack directly so a serving layer can drive manual-mode scale and
//! compaction events under its own write-ahead log.

use mpcbf_core::codec::{self, CodecError, Sink};
use mpcbf_core::config::MpcbfConfig;
use mpcbf_core::elastic::ElasticMpcbf;
use mpcbf_core::policy::CapacityPolicy;
use mpcbf_core::{CountingFilter, Filter, FilterError};
use mpcbf_hash::{Hasher128, Murmur3};
use parking_lot::Mutex;

use crate::sharded::SHARD_BITS;

/// Salt folded into per-shard base seeds so every shard's generation
/// stack hashes independently of its siblings and of the router.
const ELASTIC_SHARD_SALT: u64 = 0x454c_5348_4152_4421; // "ELSHARD!"

/// splitmix64 finalizer, decorrelating shard indices into seed material.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Aggregate capacity snapshot across every shard's generation stack.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElasticStats {
    /// Net elements stored across all shards.
    pub items: u64,
    /// Live generations summed over shards.
    pub generations: u64,
    /// Lifetime scale-up events summed over shards.
    pub scale_events: u64,
    /// Lifetime completed compactions summed over shards.
    pub compactions: u64,
    /// Lifetime keys migrated by compaction summed over shards.
    pub migrated_keys: u64,
    /// Sum of per-shard analytic FPR envelopes. A key is only ever
    /// queried against its home shard, so the *served* FPR bound is the
    /// worst single shard ([`ElasticStats::max_shard_fpr`]); the sum is
    /// the conservative whole-pool figure exported as a gauge.
    pub fpr_envelope: f64,
    /// Largest per-shard analytic FPR envelope — the bound a query
    /// actually experiences.
    pub max_shard_fpr: f64,
    /// Shards with a compaction currently in flight.
    pub compacting_shards: u64,
    /// Worst per-shard active-generation pressure.
    pub max_pressure: f64,
}

/// A thread-safe elastic MPCBF: per-shard generation stacks with
/// independent scale decisions.
pub struct ElasticShardedMpcbf<H: Hasher128 = Murmur3> {
    shards: Vec<Mutex<ElasticMpcbf<H>>>,
    shard_mask: u64,
    seed: u64,
}

impl<H: Hasher128> ElasticShardedMpcbf<H> {
    /// Creates an autoscaling pool: `config`'s memory and expected-items
    /// budgets are split evenly across the shards (rounded up to a power
    /// of two, capped at `2^SHARD_BITS`), and each shard scales itself
    /// inline with the default [`CapacityPolicy`].
    pub fn new(config: MpcbfConfig, shards: usize) -> Self {
        Self::build(config, shards, CapacityPolicy::default(), true)
            .expect("default CapacityPolicy is valid")
    }

    /// Creates a *manually driven* pool: shards park scale plans and the
    /// caller drives `apply_scale`/`begin_compaction`/`step_compaction`
    /// through [`ElasticShardedMpcbf::with_shard`] — the mode a durable
    /// server uses so every structural event is WAL-logged first.
    pub fn manual(
        config: MpcbfConfig,
        shards: usize,
        policy: CapacityPolicy,
    ) -> Result<Self, &'static str> {
        Self::build(config, shards, policy, false)
    }

    fn build(
        config: MpcbfConfig,
        shards: usize,
        policy: CapacityPolicy,
        auto: bool,
    ) -> Result<Self, &'static str> {
        let count = shards.next_power_of_two().clamp(1, 1usize << SHARD_BITS);
        let shape = config.shape();
        let word = u64::from(shape.w);
        let per_shard_bits = ((shape.l * word).div_ceil(count as u64)).max(2 * word);
        let per_shard_items = config.expected_items().div_ceil(count as u64).max(1);
        let seed = config.seed();
        let mut pool = Vec::with_capacity(count);
        for shard in 0..count as u64 {
            let shard_config = MpcbfConfig::builder()
                .memory_bits(per_shard_bits)
                .expected_items(per_shard_items)
                .hashes(shape.k)
                .accesses(shape.g)
                .word_bits(shape.w)
                .seed(seed ^ mix64(ELASTIC_SHARD_SALT.wrapping_add(shard)))
                .build()
                .or_else(|_| {
                    MpcbfConfig::builder()
                        .memory_bits(per_shard_bits)
                        .expected_items(per_shard_items)
                        .hashes(shape.k)
                        .accesses(shape.g)
                        .word_bits(shape.w)
                        .n_max(shape.n_max)
                        .seed(seed ^ mix64(ELASTIC_SHARD_SALT.wrapping_add(shard)))
                        .build()
                })
                .map_err(|_| "per-shard configuration cannot shape a generation")?;
            let elastic = if auto {
                ElasticMpcbf::with_policy(shard_config, policy)?
            } else {
                ElasticMpcbf::manual(shard_config, policy)?
            };
            pool.push(Mutex::new(elastic));
        }
        Ok(ElasticShardedMpcbf {
            shards: pool,
            shard_mask: count as u64 - 1,
            seed,
        })
    }

    /// Rebuilds the pool from decoded shard stacks (codec path).
    fn from_shards(shards: Vec<ElasticMpcbf<H>>, seed: u64) -> Self {
        let mask = shards.len() as u64 - 1;
        ElasticShardedMpcbf {
            shards: shards.into_iter().map(Mutex::new).collect(),
            shard_mask: mask,
            seed,
        }
    }

    /// Number of shards in the pool.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The wrapper's routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard that owns `key`: the top [`SHARD_BITS`] digest bits,
    /// masked to the pool size.
    pub fn home_shard(&self, key: &[u8]) -> usize {
        let digest = H::hash128(self.seed, key);
        (((digest >> (128 - SHARD_BITS)) as u64) & self.shard_mask) as usize
    }

    /// Runs `f` with shard `shard`'s generation stack locked — the
    /// escape hatch a serving layer uses to drive manual-mode scale and
    /// compaction events.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut ElasticMpcbf<H>) -> R) -> R {
        let mut guard = self.shards[shard].lock();
        f(&mut guard)
    }

    /// True if `key`'s home shard currently holds it.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        let shard = self.home_shard(key);
        self.shards[shard].lock().contains_bytes(key)
    }

    /// Inserts `key` into its home shard (lossless; the shard scales
    /// itself inline in auto mode).
    pub fn insert_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        let shard = self.home_shard(key);
        self.shards[shard].lock().insert_bytes(key)
    }

    /// Removes one copy of `key` from its home shard.
    pub fn remove_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        let shard = self.home_shard(key);
        self.shards[shard].lock().remove_bytes(key)
    }

    /// Batch query: each key probes its home shard. Locks are taken per
    /// key (elastic shards mutate under compaction too often for the
    /// fused run-grouping of the fixed-size pool to pay off).
    pub fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        keys.iter().map(|k| self.contains_bytes(k)).collect()
    }

    /// Net elements stored across all shards.
    pub fn items(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().items()).sum()
    }

    /// Aggregate capacity snapshot across the pool.
    pub fn stats(&self) -> ElasticStats {
        let mut out = ElasticStats::default();
        for shard in &self.shards {
            let f = shard.lock();
            out.items += f.items();
            out.generations += f.generation_count() as u64;
            out.scale_events += f.scale_events();
            out.compactions += f.compactions();
            out.migrated_keys += f.migrated_keys();
            let fpr = f.fpr_envelope();
            out.fpr_envelope += fpr;
            out.max_shard_fpr = out.max_shard_fpr.max(fpr);
            if f.compacting() {
                out.compacting_shards += 1;
            }
            out.max_pressure = out.max_pressure.max(f.pressure());
        }
        out
    }

    /// Structural self-check across every shard's generation stack.
    pub fn verify(&self) -> Result<(), FilterError> {
        for shard in &self.shards {
            shard.lock().verify()?;
        }
        Ok(())
    }

    /// Encodes the whole pool — router header plus every shard's elastic
    /// image — into one framed image
    /// (kind [`codec::KIND_ELASTIC_SHARDED`]). Deterministic: shard
    /// images are emitted in index order and each is itself
    /// deterministic.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_to(Vec::with_capacity(64))
    }

    /// [`ElasticShardedMpcbf::encode`] streamed into any [`Sink`]: each
    /// shard's image is encoded under its lock into one reused buffer and
    /// written after the lock is released, so the stream holds at most
    /// one shard's image.
    pub fn encode_to<S: Sink>(&self, sink: S) -> S {
        let mut w = codec::Writer::framed(sink, codec::KIND_ELASTIC_SHARDED);
        w.u64(self.seed);
        w.u32(self.shards.len() as u32);
        let mut image = Vec::new();
        for shard in &self.shards {
            image.clear();
            image = shard.lock().encode_to(image);
            w.u64(image.len() as u64);
            w.bytes(&image);
        }
        w.finish()
    }

    /// Decodes a pool previously produced by
    /// [`ElasticShardedMpcbf::encode`]. Every nested elastic image
    /// revalidates its own envelope and invariants.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = codec::Reader::open(buf, codec::KIND_ELASTIC_SHARDED)?;
        let seed = r.u64()?;
        let count = r.u32()? as usize;
        if count == 0 || !count.is_power_of_two() || count > 1usize << SHARD_BITS {
            return Err(CodecError::BadHeader("shard count"));
        }
        let mut shards = Vec::with_capacity(count.min(r.remaining() / 8));
        for _ in 0..count {
            let len = r.u64()? as usize;
            shards.push(ElasticMpcbf::<H>::decode(r.bytes(len)?)?);
        }
        r.expect_end()?;
        Ok(Self::from_shards(shards, seed))
    }
}

impl<H: Hasher128> std::fmt::Debug for ElasticShardedMpcbf<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticShardedMpcbf")
            .field("shards", &self.shards.len())
            .field("seed", &self.seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pool_config(seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(131_072)
            .expected_items(2_000)
            .hashes(3)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn pool_scales_under_overload_with_zero_false_negatives() {
        let pool: ElasticShardedMpcbf = ElasticShardedMpcbf::new(pool_config(1), 4);
        assert_eq!(pool.shard_count(), 4);
        for i in 0..20_000u64 {
            pool.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let stats = pool.stats();
        assert!(stats.scale_events > 0, "10x overload must scale some shard");
        assert_eq!(stats.items, 20_000);
        for i in 0..20_000u64 {
            assert!(pool.contains_bytes(&i.to_le_bytes()), "false negative {i}");
        }
        assert_eq!(pool.verify(), Ok(()));
    }

    #[test]
    fn removals_round_trip_through_the_pool() {
        let pool: ElasticShardedMpcbf = ElasticShardedMpcbf::new(pool_config(2), 2);
        for i in 0..5_000u64 {
            pool.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        for i in 0..5_000u64 {
            pool.remove_bytes(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(pool.items(), 0);
        assert_eq!(
            pool.remove_bytes(&1u64.to_le_bytes()),
            Err(FilterError::NotPresent)
        );
    }

    #[test]
    fn concurrent_inserts_and_queries_stay_lossless() {
        let pool: Arc<ElasticShardedMpcbf> = Arc::new(ElasticShardedMpcbf::new(pool_config(3), 8));
        let threads = 4;
        let per_thread = 4_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let key = (t * per_thread + i).to_le_bytes();
                        pool.insert_bytes(&key).unwrap();
                        assert!(pool.contains_bytes(&key));
                    }
                });
            }
        });
        assert_eq!(pool.items(), threads * per_thread);
        for i in 0..threads * per_thread {
            assert!(pool.contains_bytes(&i.to_le_bytes()));
        }
    }

    #[test]
    fn manual_pool_parks_plans_per_shard() {
        let pool: ElasticShardedMpcbf =
            ElasticShardedMpcbf::manual(pool_config(4), 2, CapacityPolicy::default()).unwrap();
        for i in 0..20_000u64 {
            pool.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let mut scaled = 0;
        for shard in 0..pool.shard_count() {
            let plan = pool.with_shard(shard, |f| f.scale_plan());
            if let Some(spec) = plan {
                pool.with_shard(shard, |f| f.apply_scale(&spec)).unwrap();
                pool.with_shard(shard, |f| {
                    assert!(f.begin_compaction());
                    while f.step_compaction(512) > 0 {}
                });
                scaled += 1;
            }
        }
        assert!(scaled > 0, "overloaded shards must park plans");
        for i in 0..20_000u64 {
            assert!(pool.contains_bytes(&i.to_le_bytes()));
        }
    }

    #[test]
    fn codec_roundtrip_preserves_the_pool() {
        let pool: ElasticShardedMpcbf = ElasticShardedMpcbf::new(pool_config(5), 4);
        for i in 0..10_000u64 {
            pool.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let image = pool.encode();
        assert_eq!(image, pool.encode(), "encoding must be deterministic");
        assert_eq!(pool.encode_to(Vec::new()), image);
        let measured = pool.encode_to(codec::Measure::default());
        assert_eq!(measured.bytes, image.len() as u64);
        let decoded = ElasticShardedMpcbf::<Murmur3>::decode(&image).unwrap();
        assert_eq!(decoded.shard_count(), pool.shard_count());
        assert_eq!(decoded.items(), pool.items());
        for i in 0..10_000u64 {
            let key = i.to_le_bytes();
            assert_eq!(decoded.home_shard(&key), pool.home_shard(&key));
            assert!(decoded.contains_bytes(&key));
        }
        assert_eq!(decoded.encode(), image);
    }

    #[test]
    fn corrupt_pool_images_are_rejected() {
        let pool: ElasticShardedMpcbf = ElasticShardedMpcbf::new(pool_config(6), 2);
        for i in 0..1_000u64 {
            pool.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let image = pool.encode();
        for pos in [0usize, 4, 8, image.len() / 2, image.len() - 1] {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x08;
            assert!(
                ElasticShardedMpcbf::<Murmur3>::decode(&corrupt).is_err(),
                "bitflip at {pos} went undetected"
            );
        }
        assert!(ElasticShardedMpcbf::<Murmur3>::decode(&image[..image.len() / 2]).is_err());
    }
}
