//! Property tests for the HCBF word codec — the heart of the paper.
//!
//! The word is driven with arbitrary increment/decrement sequences and
//! checked, after every operation, against a plain counter-array oracle
//! and the structural invariants of §III.B.1.

use mpcbf::bitvec::Word;
use mpcbf::core::hcbf::{HcbfWord, WordError};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Inc(u32),
    Dec(u32),
}

fn ops(b1: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0..b1).prop_map(Op::Inc), (0..b1).prop_map(Op::Dec),],
        0..len,
    )
}

fn check_against_oracle<W: Word>(b1: u32, script: &[Op]) {
    let mut word: HcbfWord<W> = HcbfWord::new();
    let mut oracle = vec![0u32; b1 as usize];
    for op in script {
        match *op {
            Op::Inc(p) => match word.increment(p, b1) {
                Ok(report) => {
                    oracle[p as usize] += 1;
                    assert_eq!(report.new_count, oracle[p as usize], "inc report at {p}");
                }
                Err(WordError::Overflow) => {
                    // Only legal when the word is genuinely full.
                    assert_eq!(
                        word.used_bits(b1),
                        W::BITS,
                        "overflow reported with spare capacity"
                    );
                }
                Err(e) => panic!("unexpected increment error {e:?}"),
            },
            Op::Dec(p) => match word.decrement(p, b1) {
                Ok(report) => {
                    assert!(
                        oracle[p as usize] > 0,
                        "decrement succeeded on zero counter"
                    );
                    oracle[p as usize] -= 1;
                    assert_eq!(report.new_count, oracle[p as usize], "dec report at {p}");
                }
                Err(WordError::ZeroCounter) => {
                    assert_eq!(oracle[p as usize], 0, "ZeroCounter on nonzero counter");
                }
                Err(e) => panic!("unexpected decrement error {e:?}"),
            },
        }
        // Full-state agreement and structural invariants after every op.
        word.check_invariants(b1).expect("invariants");
        for (p, &expect) in oracle.iter().enumerate() {
            assert_eq!(word.counter(p as u32, b1), expect, "counter {p}");
            assert_eq!(word.query(p as u32), expect > 0, "membership bit {p}");
        }
        assert_eq!(word.total_count(), oracle.iter().sum::<u32>());
    }
}

/// The level-walk rule: the levels fit, no dirty tail, and the collected
/// level sizes sum to the used bits.
fn walk_verdict<W: Word>(word: &HcbfWord<W>, b1: u32) -> bool {
    let used = word.used_bits(b1);
    used <= W::BITS
        && word.raw().is_zero_from(used)
        && word.level_sizes(b1).iter().sum::<u32>() == used
}

#[test]
fn word_check_matches_the_level_walk_on_every_u16_word() {
    let mut accepted = 0u32;
    for raw in 0..=u16::MAX {
        let word = HcbfWord::<u16>::from_raw(raw);
        for b1 in 1..=16 {
            let walk = walk_verdict(&word, b1);
            assert_eq!(
                word.check_invariants(b1).is_ok(),
                walk,
                "word {raw:#06x}, b1 {b1}"
            );
            accepted += u32::from(walk);
        }
    }
    // Both verdicts occur: the sweep is not vacuous.
    assert!(accepted > 0 && accepted < 16 * 65_536);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Real HCBF words (which pass) with one bit flipped (which mostly
    // fail), so both verdicts are exercised on realistic layouts.
    #[test]
    fn word_check_matches_the_level_walk_on_damaged_words(
        points in prop::collection::vec(0u32..40, 0..24),
        flip in 0u32..=64,
    ) {
        let mut word: HcbfWord<u64> = HcbfWord::new();
        for &p in &points {
            word.increment(p, 40).unwrap();
        }
        prop_assert!(word.check_invariants(40).is_ok());
        let bits = if flip < 64 { *word.raw() ^ (1 << flip) } else { *word.raw() };
        let damaged = HcbfWord::<u64>::from_raw(bits);
        prop_assert_eq!(damaged.check_invariants(40).is_ok(), walk_verdict(&damaged, 40));
    }

    #[test]
    fn u64_word_matches_oracle(script in ops(40, 120)) {
        check_against_oracle::<u64>(40, &script);
    }

    #[test]
    fn u64_word_small_b1(script in ops(8, 120)) {
        check_against_oracle::<u64>(8, &script);
    }

    #[test]
    fn u32_word_matches_oracle(script in ops(20, 80)) {
        check_against_oracle::<u32>(20, &script);
    }

    #[test]
    fn u128_word_matches_oracle(script in ops(90, 200)) {
        check_against_oracle::<u128>(90, &script);
    }

    #[test]
    fn wide_word_matches_oracle(script in ops(160, 300)) {
        check_against_oracle::<mpcbf::bitvec::W256>(160, &script);
    }

    #[test]
    fn increments_then_decrements_restore_empty(
        points in prop::collection::vec(0u32..40, 0..24)
    ) {
        let mut word: HcbfWord<u64> = HcbfWord::new();
        for &p in &points {
            word.increment(p, 40).unwrap();
        }
        // Remove in a different (sorted) order than insertion.
        let mut sorted = points.clone();
        sorted.sort_unstable();
        for &p in &sorted {
            word.decrement(p, 40).unwrap();
        }
        prop_assert!(word.is_empty(), "word not empty after full drain");
    }

    #[test]
    fn used_bits_equals_b1_plus_total(
        points in prop::collection::vec(0u32..40, 0..24)
    ) {
        let mut word: HcbfWord<u64> = HcbfWord::new();
        for &p in &points {
            word.increment(p, 40).unwrap();
        }
        prop_assert_eq!(word.used_bits(40), 40 + points.len() as u32);
        // Level-size invariant: sizes are popcounts of the previous level.
        let sizes = word.level_sizes(40);
        prop_assert_eq!(sizes.iter().sum::<u32>(), word.used_bits(40));
    }
}

proptest! {
    // Cheap cases: enough that the boundary `b1 = used − popcount` is hit
    // for many cut points.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // Raw words cut at an arbitrary bit (so tails are sometimes clean and
    // sometimes dirty), optionally with one more bit flipped (breaking
    // the level walk), against every first-level size.
    #[test]
    fn word_check_matches_the_level_walk_on_raw_u64_words(
        raw in any::<u64>(),
        cut in 0u32..=64,
        flip in 0u32..=64,
        b1 in 1u32..=64,
    ) {
        let mut bits = raw & u64::mask_below(cut);
        if flip < 64 {
            bits ^= 1 << flip;
        }
        let word = HcbfWord::<u64>::from_raw(bits);
        prop_assert_eq!(word.check_invariants(b1).is_ok(), walk_verdict(&word, b1));
    }
}
