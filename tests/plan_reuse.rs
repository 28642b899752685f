//! Plan-buffer reuse equivalence: holding one [`PlanBuffer`] (or
//! [`ShardBatch`]) across many batches must be observationally identical
//! to planning into a fresh buffer every batch — same per-key verdicts,
//! same [`OpCost`] totals, bit-identical filter state.
//!
//! This is the contract that makes the allocation-free fused pipeline
//! safe: a buffer is pure scratch, so no batch may ever observe residue
//! from a previous batch (stale group bookkeeping, a longer previous
//! batch's tail, a flat plan following a partitioned one, ...).
//!
//! The batch schedules deliberately alternate batch sizes (long, short,
//! long) and mix inserts/queries/removes so reuse crosses every
//! size-transition direction, and a deliberately tiny MPCBF forces
//! mid-batch `WordOverflow` rollbacks through a reused buffer.

use mpcbf::concurrent::{ShardBatch, ShardedMpcbf};
use mpcbf::core::{Cbf, CountingFilter, Filter, Mpcbf, MpcbfConfig, OpCost, PlanBuffer};
use mpcbf::hash::Murmur3;
use mpcbf::variants::Rcbf;
use proptest::prelude::*;
use std::fmt::Debug;

fn to_bytes(keys: &[u16]) -> Vec<Vec<u8>> {
    keys.iter().map(|k| k.to_le_bytes().to_vec()).collect()
}

fn views(keys: &[Vec<u8>]) -> Vec<&[u8]> {
    keys.iter().map(|k| k.as_slice()).collect()
}

/// Splits one key list into batches of alternating lengths so a reused
/// buffer sees shrink *and* grow transitions (the residue-prone cases).
fn batches<'a>(keys: &'a [&'a [u8]]) -> Vec<&'a [&'a [u8]]> {
    let sizes = [7usize, 1, 13, 2, 31, 5];
    let mut out = Vec::new();
    let mut rest = keys;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].min(rest.len());
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
        i += 1;
    }
    out
}

/// One mixed op schedule: per batch, insert it, query it, then remove it.
/// Runs the schedule twice over clones of `proto` — once with a single
/// reused buffer, once with a fresh buffer per call — and asserts every
/// observable matches.
fn check_trait_filter<F: CountingFilter + Clone + Debug>(name: &str, proto: F, keys: &[Vec<u8>]) {
    let key_views = views(keys);
    let mut reused_f = proto.clone();
    let mut fresh_f = proto;
    let mut reused = PlanBuffer::new();

    for (b, chunk) in batches(&key_views).into_iter().enumerate() {
        let ri = reused_f.insert_batch_with(chunk, &mut reused);
        let fi = fresh_f.insert_batch_with(chunk, &mut PlanBuffer::new());
        assert_eq!(ri, fi, "{name}: insert batch {b} diverged under reuse");

        let rq = reused_f.contains_batch_with(chunk, &mut reused);
        let fq = fresh_f.contains_batch_with(chunk, &mut PlanBuffer::new());
        assert_eq!(rq, fq, "{name}: query batch {b} diverged under reuse");

        let rr = reused_f.remove_batch_with(chunk, &mut reused);
        let fr = fresh_f.remove_batch_with(chunk, &mut PlanBuffer::new());
        assert_eq!(rr, fr, "{name}: remove batch {b} diverged under reuse");

        assert_eq!(
            format!("{reused_f:?}"),
            format!("{fresh_f:?}"),
            "{name}: state diverged after batch {b}"
        );
    }
}

/// Same schedule against the sharded filter's `*_batch_bytes_with` API,
/// reusing one [`ShardBatch`] scratch vs a fresh scratch per call.
fn check_sharded(proto: impl Fn() -> ShardedMpcbf<u64, Murmur3>, keys: &[Vec<u8>]) {
    let key_views = views(keys);
    let reused_f = proto();
    let fresh_f = proto();
    let mut reused = ShardBatch::new();

    for (b, chunk) in batches(&key_views).into_iter().enumerate() {
        let ri = reused_f.insert_batch_bytes_with(chunk, &mut reused);
        let fi = fresh_f.insert_batch_bytes_with(chunk, &mut ShardBatch::new());
        assert_eq!(ri, fi, "sharded: insert batch {b} diverged under reuse");

        let rq = reused_f.contains_batch_bytes_with(chunk, &mut reused);
        let fq = fresh_f.contains_batch_bytes_with(chunk, &mut ShardBatch::new());
        assert_eq!(rq, fq, "sharded: query batch {b} diverged under reuse");

        let rr = reused_f.remove_batch_bytes_with(chunk, &mut reused);
        let fr = fresh_f.remove_batch_bytes_with(chunk, &mut ShardBatch::new());
        assert_eq!(rr, fr, "sharded: remove batch {b} diverged under reuse");
    }
    // Final state check: both filters must answer an independent probe
    // sweep identically (the sharded filter has no Debug state dump).
    let rq = reused_f.contains_batch_bytes_with(&key_views, &mut reused);
    let fq = fresh_f.contains_batch_bytes(&key_views);
    assert_eq!(rq, fq, "sharded: final membership diverged under reuse");
}

fn mpcbf(g: u32) -> Mpcbf<u64, Murmur3> {
    Mpcbf::new(config(50_000, 500, g))
}

fn config(memory_bits: u64, items: u64, g: u32) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(memory_bits)
        .expected_items(items)
        .hashes(3)
        .accesses(g)
        .seed(11)
        .build()
        .unwrap()
}

/// A deliberately tiny MPCBF so insert batches overflow words mid-batch:
/// reuse must preserve the rollback walk (per-key `Err` positions and the
/// all-or-nothing state restore) exactly.
fn tiny_mpcbf() -> Mpcbf<u64, Murmur3> {
    Mpcbf::new(
        MpcbfConfig::builder()
            .memory_bits(256)
            .expected_items(1)
            .n_max(2)
            .hashes(3)
            .seed(5)
            .build()
            .unwrap(),
    )
}

fn key_list() -> impl Strategy<Value = Vec<u16>> {
    // Tiny key space ⇒ duplicates across and within batches are common.
    prop::collection::vec(0u16..64, 0..80)
}

proptest! {
    #[test]
    fn core_filters_reuse_equals_fresh(keys in key_list()) {
        let k = to_bytes(&keys);
        check_trait_filter("MPCBF-1", mpcbf(1), &k);
        check_trait_filter("MPCBF-2", mpcbf(2), &k);
        check_trait_filter("CBF", Cbf::<Murmur3>::new(2_048, 3, 7), &k);
        // RCBF has no buffer-aware override: the trait default must ignore
        // the buffer and still be answer-identical under reuse.
        check_trait_filter("RCBF", Rcbf::<Murmur3>::new(512, 12, 2, 7), &k);
    }

    #[test]
    fn overflowing_batches_reuse_equals_fresh(keys in key_list()) {
        // The tiny config overflows constantly, so reused buffers carry
        // rollback-era residue into subsequent batches — which must not
        // be observable.
        check_trait_filter("MPCBF-tiny", tiny_mpcbf(), &to_bytes(&keys));
    }

    #[test]
    fn concurrent_filters_reuse_equals_fresh(keys in key_list()) {
        let k = to_bytes(&keys);
        check_sharded(|| ShardedMpcbf::new(config(50_000, 500, 1), 4), &k);
    }
}

/// A reused buffer must also equal the plain (buffer-less) entry points,
/// which allocate a fresh buffer internally.
#[test]
fn reuse_equals_bufferless_entry_points() {
    let keys = to_bytes(&(0..40u16).collect::<Vec<_>>());
    let key_views = views(&keys);

    let mut with_f = mpcbf(1);
    let mut plain_f = mpcbf(1);
    let mut plans = PlanBuffer::new();
    for chunk in batches(&key_views) {
        assert_eq!(
            with_f.insert_batch_with(chunk, &mut plans),
            plain_f.insert_batch_cost(chunk),
        );
        assert_eq!(
            with_f.contains_batch_with(chunk, &mut plans),
            plain_f.contains_batch_cost(chunk),
        );
    }
    assert_eq!(format!("{with_f:?}"), format!("{plain_f:?}"));
}

/// Costs must be byte-for-byte stable under reuse even when every insert
/// in a batch fails (rollback leaves the filter untouched and the failed
/// ops contribute no cost).
#[test]
fn rollback_only_batches_cost_nothing_under_reuse() {
    let mut f = tiny_mpcbf();
    let mut plans = PlanBuffer::new();
    let keys = to_bytes(&(0..24u16).collect::<Vec<_>>());
    let key_views = views(&keys);

    // Saturate until an entire batch fails.
    let mut saturated = false;
    for _ in 0..16 {
        let (results, _) = f.insert_batch_with(&key_views, &mut plans);
        if results.iter().all(Result::is_err) {
            saturated = true;
            break;
        }
    }
    assert!(saturated, "tiny filter never saturated");

    // Compare only the counter words: the `overflows` telemetry counter
    // legitimately keeps counting failed attempts.
    let words_of = |f: &Mpcbf<u64, Murmur3>| {
        let s = format!("{f:?}");
        s.split(", shape").next().map(str::to_owned).unwrap()
    };
    let before = words_of(&f);
    let (results, cost) = f.insert_batch_with(&key_views, &mut plans);
    assert!(results.iter().all(Result::is_err));
    assert_eq!(cost, OpCost::zero(), "failed inserts must cost nothing");
    assert_eq!(words_of(&f), before, "rollback must restore the words");
}
