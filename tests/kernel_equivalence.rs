//! Differential proptests: the production carried-rank walks must be
//! bit-identical to the `*_reference` walks.
//!
//! Every `HcbfWord` mutation has exactly one production walk (carried
//! ranks: each level costs two masked popcounts) and a `*_reference` twin
//! (the naive `rank_range`-per-level walk). These tests drive both with
//! identical scripts, on every width from `u16` to `W512`, and demand
//! identical raw bit patterns, identical reports (count, traversal bits),
//! and identical errors — including the all-or-nothing rollback paths,
//! where a failed batch's intermediate mutations must be undone to the
//! exact pre-batch bits.

use mpcbf::bitvec::{Word, W256, W512};
use mpcbf::core::hcbf::HcbfWord;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Inc(u32),
    Dec(u32),
}

fn ops(b1: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0..b1).prop_map(Op::Inc), (0..b1).prop_map(Op::Dec)],
        0..len,
    )
}

/// Runs one script through the hot and reference tiers in lockstep; the
/// raw words, reports, and errors must agree after every operation.
fn check_scalar_equivalence<W: Word>(b1: u32, script: &[Op]) {
    let mut hot: HcbfWord<W> = HcbfWord::new();
    let mut reference: HcbfWord<W> = HcbfWord::new();
    for op in script {
        match *op {
            Op::Inc(p) => {
                let a = hot.increment(p, b1);
                let b = reference.increment_reference(p, b1);
                assert_eq!(a, b, "increment({p}) diverged");
            }
            Op::Dec(p) => {
                let a = hot.decrement(p, b1);
                let b = reference.decrement_reference(p, b1);
                assert_eq!(a, b, "decrement({p}) diverged");
            }
        }
        assert_eq!(hot.raw(), reference.raw(), "raw bits diverged after {op:?}");
        for p in 0..b1 {
            assert_eq!(hot.counter(p, b1), reference.counter(p, b1), "counter {p}");
        }
    }
}

/// Drives batches (including overflowing ones that must roll back) through
/// both tiers; results and final bits must agree.
fn check_batch_equivalence<W: Word>(b1: u32, batches: &[Vec<Op>]) {
    let mut hot: HcbfWord<W> = HcbfWord::new();
    let mut reference: HcbfWord<W> = HcbfWord::new();
    for batch in batches {
        let incs: Vec<u32> = batch
            .iter()
            .filter_map(|op| match op {
                Op::Inc(p) => Some(*p),
                Op::Dec(_) => None,
            })
            .collect();
        let decs: Vec<u32> = batch
            .iter()
            .filter_map(|op| match op {
                Op::Dec(p) => Some(*p),
                Op::Inc(_) => None,
            })
            .collect();
        assert_eq!(
            hot.increment_all(&incs, b1),
            reference.increment_all_reference(&incs, b1),
            "increment_all({incs:?}) diverged"
        );
        assert_eq!(hot.raw(), reference.raw(), "bits diverged after inc batch");
        assert_eq!(
            hot.decrement_all(&decs, b1),
            reference.decrement_all_reference(&decs, b1),
            "decrement_all({decs:?}) diverged"
        );
        assert_eq!(hot.raw(), reference.raw(), "bits diverged after dec batch");
        // Batched membership must meter exactly like the scalar loop.
        let probes: Vec<u32> = batch
            .iter()
            .map(|op| match op {
                Op::Inc(p) | Op::Dec(p) => *p,
            })
            .collect();
        assert_eq!(
            hot.query_all(&probes),
            reference.query_all_reference(&probes),
            "query_all({probes:?}) metering diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn u16_scalar_walks_match(script in ops(10, 60)) {
        check_scalar_equivalence::<u16>(10, &script);
    }

    #[test]
    fn u32_scalar_walks_match(script in ops(20, 100)) {
        check_scalar_equivalence::<u32>(20, &script);
    }

    #[test]
    fn u64_scalar_walks_match(script in ops(40, 160)) {
        check_scalar_equivalence::<u64>(40, &script);
    }

    #[test]
    fn u64_scalar_walks_match_small_b1(script in ops(6, 160)) {
        // Small b1 forces deep chains and frequent overflow errors.
        check_scalar_equivalence::<u64>(6, &script);
    }

    #[test]
    fn u128_scalar_walks_match(script in ops(90, 220)) {
        check_scalar_equivalence::<u128>(90, &script);
    }

    #[test]
    fn w256_scalar_walks_match(script in ops(160, 320)) {
        check_scalar_equivalence::<W256>(160, &script);
    }

    #[test]
    fn w512_scalar_walks_match(script in ops(330, 420)) {
        check_scalar_equivalence::<W512>(330, &script);
    }

    #[test]
    fn u64_batches_match_with_rollback(
        batches in prop::collection::vec(ops(8, 14), 0..12)
    ) {
        // b1 = 8 in a 64-bit word: batches overflow regularly, exercising
        // the all-or-nothing rollback in both tiers.
        check_batch_equivalence::<u64>(8, &batches);
    }

    #[test]
    fn u16_batches_match_with_rollback(
        batches in prop::collection::vec(ops(10, 10), 0..10)
    ) {
        // Word capacity 6: most non-trivial insert batches overflow.
        check_batch_equivalence::<u16>(10, &batches);
    }

    #[test]
    fn w256_batches_match_with_rollback(
        batches in prop::collection::vec(ops(240, 26), 0..8)
    ) {
        check_batch_equivalence::<W256>(240, &batches);
    }

    #[test]
    fn query_all_is_branchless_but_meters_identically(
        sets in prop::collection::vec(0u32..40, 0..24),
        probes in prop::collection::vec(0u32..40, 0..80),
    ) {
        let mut w: HcbfWord<u64> = HcbfWord::new();
        for &p in &sets {
            w.increment(p, 40).unwrap();
        }
        prop_assert_eq!(w.query_all(&probes), w.query_all_reference(&probes));
    }
}
