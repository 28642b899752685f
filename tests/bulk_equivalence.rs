//! Bulk/sequential equivalence: the cache-bucketed streaming builder
//! must be *observationally indistinguishable* from the scalar insert
//! loop over the same key stream — bit-for-bit identical words, the
//! same admission tallies, and (for the resilient family) the same
//! lossless guarantee — across all three filter families and both
//! staging modes (deferred `g == 1` packing and push-time admission for
//! `g ≥ 2`).
//!
//! Key streams are drawn proptest-style over seed/count/shape, with
//! deliberately tight configurations so words overflow and hot
//! duplicated keys force mid-stream refusals — the hard cases for
//! deferred admission, which must reproduce the sequential decisions
//! from per-word running totals alone.

use mpcbf::concurrent::{build_parallel, ShardedBulkBuilder, ShardedMpcbf};
use mpcbf::core::bulk::BulkStage;
use mpcbf::core::{
    BulkBuilder, Filter, HcbfWord, Mpcbf, MpcbfConfig, ResilientBulkBuilder, ResilientMpcbf,
};
use mpcbf::durability::{DurabilityOptions, DurableSharded};
use mpcbf::hash::{Hasher128, Murmur3};
use mpcbf::workloads::BulkKeys;
use proptest::prelude::*;

fn config(memory_bits: u64, items: u64, k: u32, g: u32, seed: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(memory_bits)
        .expected_items(items)
        .hashes(k)
        .accesses(g)
        .seed(seed)
        .build()
        .unwrap()
}

/// A key stream with duplicated hot keys woven mid-stream: every
/// `hot_every`-th key repeats one of `hot` fixed keys, so words fill
/// unevenly and duplicates hit both already-admitted and already-full
/// words.
fn keys(seed: u64, n: u64, hot: u64, hot_every: u64) -> Vec<Vec<u8>> {
    let base = BulkKeys::new(seed, n).collect();
    base.into_iter()
        .enumerate()
        .map(|(i, key)| {
            let i = i as u64;
            if hot > 0 && hot_every > 0 && i.is_multiple_of(hot_every) {
                format!("hot-key-{}", i / hot_every % hot).into_bytes()
            } else {
                key.to_vec()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MPCBF-1 (deferred staging): bulk == sequential, words and
    /// tallies, under overflow pressure and duplicates.
    #[test]
    fn mpcbf_g1_bulk_equals_sequential(
        seed in 1u64..1000,
        n in 200u64..2_000,
        hot_every in 3u64..20,
    ) {
        let cfg = config(4096, 300, 3, 1, seed);
        let stream = keys(seed, n, 4, hot_every);

        let mut naive: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for key in &stream {
            let _ = naive.insert_bytes(key);
        }

        let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(cfg);
        prop_assert!(builder.is_deferred());
        for key in &stream {
            builder.push(key);
        }
        let bulk = builder.finish();

        prop_assert_eq!(naive.raw_words(), bulk.raw_words());
        prop_assert_eq!(naive.items(), bulk.items());
        prop_assert_eq!(naive.overflows(), bulk.overflows());
    }

    /// MPCBF-g (g ≥ 2 forces push-time admission): same equivalence.
    #[test]
    fn mpcbf_g2_bulk_equals_sequential(
        seed in 1u64..1000,
        n in 200u64..1_500,
        hot_every in 3u64..20,
    ) {
        let cfg = config(4096, 300, 4, 2, seed);
        let stream = keys(seed, n, 4, hot_every);

        let mut naive: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for key in &stream {
            let _ = naive.insert_bytes(key);
        }

        let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(cfg);
        prop_assert!(!builder.is_deferred());
        for key in &stream {
            builder.push(key);
        }
        let bulk = builder.finish();

        prop_assert_eq!(naive.raw_words(), bulk.raw_words());
        prop_assert_eq!(naive.items(), bulk.items());
        prop_assert_eq!(naive.overflows(), bulk.overflows());
    }

    /// The multi-threaded region finish changes nothing: parallel
    /// sweeps produce the same filter as the single-threaded drain.
    #[test]
    fn parallel_finish_equals_sequential(
        seed in 1u64..1000,
        n in 500u64..3_000,
        threads in 1usize..5,
    ) {
        let cfg = config(1 << 16, 3_000, 3, 1, seed);
        let stream = keys(seed, n, 3, 7);

        let mut naive: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for key in &stream {
            let _ = naive.insert_bytes(key);
        }

        let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(cfg);
        for key in &stream {
            builder.push(key);
        }
        let bulk = build_parallel(builder, threads);

        prop_assert_eq!(naive.raw_words(), bulk.raw_words());
        prop_assert_eq!(naive.items(), bulk.items());
        prop_assert_eq!(naive.overflows(), bulk.overflows());
    }

    /// Sharded bulk build: per-shard words, items and overflow tallies
    /// all match a live sharded filter fed the same stream.
    #[test]
    fn sharded_bulk_equals_live_inserts(
        seed in 1u64..1000,
        n in 500u64..3_000,
        shards in 1usize..5,
        threads in 1usize..4,
    ) {
        let cfg = config(1 << 15, 600, 3, 1, seed);
        let stream = keys(seed, n, 4, 9);

        let live: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, shards);
        for key in &stream {
            let _ = live.insert_bytes(key);
        }

        let mut builder: ShardedBulkBuilder<Murmur3> = ShardedBulkBuilder::new(cfg, shards);
        for key in &stream {
            builder.push(key);
        }
        let bulk = builder.finish_parallel(threads);

        // `encode()` captures every shard's full word image plus the
        // admission counters, so one comparison pins the whole state.
        prop_assert_eq!(live.encode(), bulk.encode());
    }

    /// Resilient bulk build is lossless: every key of the stream —
    /// including ones the main filter refused into the spill — is
    /// contained afterwards, exactly as with live inserts.
    #[test]
    fn resilient_bulk_is_lossless_and_equivalent(
        seed in 1u64..1000,
        n in 400u64..1_500,
        hot_every in 3u64..15,
    ) {
        let cfg = config(2048, 400, 3, 1, seed);
        let stream = keys(seed, n, 3, hot_every);

        let mut live: ResilientMpcbf<Murmur3> = ResilientMpcbf::new(cfg);
        for key in &stream {
            live.insert_bytes(key).unwrap();
        }

        let mut builder: ResilientBulkBuilder<Murmur3> = ResilientBulkBuilder::new(cfg);
        for key in &stream {
            builder.push(key);
        }
        let bulk = builder.finish();

        for key in &stream {
            prop_assert!(bulk.contains_bytes(key), "bulk build lost a key");
        }
        prop_assert_eq!(live.main().raw_words(), bulk.main().raw_words());
        prop_assert_eq!(live.items(), bulk.items());
        prop_assert_eq!(live.spill_keys(), bulk.spill_keys());
    }
}

/// The durability fast path: a bulk-built sharded filter materialised
/// via [`DurableSharded::bootstrap`] cold-starts from the snapshot
/// alone — zero WAL records replayed — and serves the exact state the
/// builder produced.
#[test]
fn bootstrap_cold_start_replays_nothing() {
    let dir = std::env::temp_dir().join(format!("bulk-bootstrap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = config(1 << 16, 3_000, 3, 1, 7);
    let stream = keys(7, 2_500, 3, 11);
    let mut builder: ShardedBulkBuilder<Murmur3> = ShardedBulkBuilder::new(cfg, 4);
    for key in &stream {
        builder.push(key);
    }
    let built = builder.finish_parallel(2);
    let image = built.encode();

    DurableSharded::bootstrap(&built, DurabilityOptions::new(&dir)).unwrap();

    let (recovered, report) = DurableSharded::open_or_recover(DurabilityOptions::new(&dir), || {
        ShardedMpcbf::<u64, Murmur3>::new(cfg, 4)
    })
    .unwrap();

    assert_eq!(report.records_replayed, 0, "cold start must not replay WAL");
    assert_eq!(report.snapshots_corrupt, 0);
    assert_eq!(report.snapshot_seq, Some(0));
    assert!(report.scrub_clean);
    assert_eq!(recovered.inner().encode(), image);
    // Query fidelity: the recovered filter answers exactly as the one
    // the builder produced (refused keys stay refused, admitted stay
    // admitted).
    for key in &stream {
        assert_eq!(
            recovered.inner().contains_bytes(key),
            built.contains_bytes(key)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The synthetic key stream the CLI and benches share is deterministic
/// and chunking-invariant: any chunk size walks the same keys.
#[test]
fn bulk_keys_deterministic_across_chunkings() {
    let whole = BulkKeys::new(42, 10_000).collect();
    for chunk in [1usize, 7, 1024, 8192] {
        let mut walked = Vec::new();
        BulkKeys::new(42, 10_000).for_each_chunk(chunk, |keys| {
            walked.extend(keys.iter().copied());
        });
        assert_eq!(walked, whole, "chunk size {chunk} changed the stream");
    }
}

/// Under-hinted builds: the configuration expects a quarter of the keys
/// pushed, so region buckets overflow mid-stream and their regions are
/// swept again incrementally (dirty). Both staging modes must still
/// match the scalar loop bit for bit, refusals included.
#[test]
fn under_hinted_builds_flush_mid_stream_and_stay_exact() {
    for (k, g) in [(3u32, 1u32), (4, 2)] {
        // 2^18 words, eight staging regions. The L1/L2 buckets hold about
        // 266k entries before any reaches a region bucket, so the stream
        // must run well past that.
        let n = 400_000u64;
        let cfg = config(1 << 24, n / 4, k, g, 31);
        let stream = keys(31, n, 0, 0);

        let mut naive: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for key in &stream {
            let _ = naive.insert_bytes(key);
        }

        let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(cfg);
        assert_eq!(builder.is_deferred(), g == 1);
        builder.push_chunk(&stream);
        assert!(
            builder.stats().flushes > 0,
            "test premise: a quarter hint must flush mid-stream (g={g})"
        );
        let bulk = build_parallel(builder, 2);

        assert_eq!(naive.raw_words(), bulk.raw_words(), "g={g}");
        assert_eq!(naive.items(), bulk.items(), "g={g}");
        assert_eq!(naive.overflows(), bulk.overflows(), "g={g}");
    }
}

/// At the hint every region is swept exactly once, onto empty words:
/// no bucket fills mid-stream or while the finish drains L1 and L2, in
/// either staging mode.
#[test]
fn at_the_hint_every_region_sweeps_once() {
    // 2^19 words, sixteen regions, 0.8 keys per word.
    let n = 420_000u64;
    for (k, g) in [(3u32, 1u32), (4, 2)] {
        let cfg = config(1 << 25, n, k, g, 33);
        let shape = cfg.shape();
        let mut stage = BulkStage::with_expected(shape.l, shape.k, shape.g, shape.b1, n);
        assert_eq!(stage.is_deferred(), g == 1);
        let mut words = vec![HcbfWord::<u64>::new(); shape.l as usize];
        BulkKeys::new(33, n).for_each_chunk(8_192, |chunk| {
            let digests: Vec<u128> = chunk
                .iter()
                .map(|key| Murmur3::hash128(cfg.seed(), key))
                .collect();
            stage.push_digests(&mut words, &digests);
        });
        stage.finish_into(&mut words);
        let regions = words
            .chunks(1 << 15)
            .filter(|region| region.iter().any(|w| !w.is_empty()))
            .count() as u64;
        assert_eq!(regions, 16, "test premise, g={g}");
        assert_eq!(stage.stats().flushes, regions, "g={g}");
    }
}
