//! HCBF: the Hierarchical Counting Bloom Filter word codec (§III.B).
//!
//! One machine word stores a complete counting structure:
//!
//! * bits `[0, b1)` are the **first-level sub-vector** `v1` — the membership
//!   plane a query consults;
//! * the rest of the word holds the **hierarchy**: level `j+1` contains one
//!   bit (a *child slot*) for every set bit of level `j`, and levels are
//!   laid out contiguously.
//!
//! The counter value of position `p` is the length of the chain of ones
//! starting at `v1[p]`: the insert walk descends via ranked popcounts
//! ("the value returned by popcount(i) is used as an index to the bit in
//! the next level"), flips the first zero it meets, and splices a fresh
//! zero child slot into the next level, shifting the tail of the word
//! right by one (§III.B.1, Algorithm 1). Deletion is the exact mirror.
//!
//! Two consequences the paper builds on:
//!
//! 1. **Self-describing layout** — level sizes are derived purely from
//!    popcounts (`|v_{j+1}| = popcount(v_j)`), so no bits are spent on
//!    metadata and the total bits in use are simply
//!    `b1 + count_ones(word)`;
//! 2. **Pay-per-increment storage** — a counter of value `c` consumes
//!    exactly `c` hierarchy bits, so idle positions are free and the
//!    improved HCBF (§III.B.3) can maximise `b1 = w − k·n_max`.

use crate::FilterError;
use mpcbf_bitvec::Word;
use mpcbf_hash::mix::bits_for;

/// Errors a single-word HCBF operation can report.
///
/// A word does not know its own index inside the enclosing filter, so its
/// errors are *word-local*; callers attach the real word index via
/// [`WordError::at`] at the point where the index is known. This makes a
/// fabricated index (the old `WordOverflow { word: 0 }` placeholder)
/// unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordError {
    /// The word has no spare hierarchy bit for another increment.
    Overflow,
    /// A decrement targeted a counter that is already zero.
    ZeroCounter,
}

impl WordError {
    /// Converts a word-local error into the filter-level error for the
    /// word at index `word`.
    #[inline]
    pub fn at(self, word: usize) -> FilterError {
        match self {
            WordError::Overflow => FilterError::WordOverflow { word },
            WordError::ZeroCounter => FilterError::NotPresent,
        }
    }
}

impl std::fmt::Display for WordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WordError::Overflow => write!(f, "word overflow: no hierarchy space left"),
            WordError::ZeroCounter => write!(f, "counter already zero"),
        }
    }
}

impl std::error::Error for WordError {}

/// Report returned by a successful increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementReport {
    /// The counter's new value (= the hierarchy depth reached).
    pub new_count: u32,
    /// Address bits consumed by the traversal below level 1
    /// (`Σ log2 |v_j|` over descended levels), for bandwidth metering.
    pub traversal_bits: u32,
}

/// Report returned by a successful decrement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecrementReport {
    /// The counter's new value.
    pub new_count: u32,
    /// Address bits consumed by the traversal below level 1.
    pub traversal_bits: u32,
}

/// One HCBF word.
///
/// The first-level size `b1` is a property of the enclosing filter (all
/// words share it, §III.B.2) and is passed to each operation rather than
/// stored per word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HcbfWord<W: Word> {
    bits: W,
}

impl<W: Word> HcbfWord<W> {
    /// An empty word (all counters zero).
    #[inline]
    pub fn new() -> Self {
        HcbfWord { bits: W::zero() }
    }

    /// The raw bit pattern.
    #[inline]
    pub fn raw(&self) -> &W {
        &self.bits
    }

    /// Reconstructs a word from a raw bit pattern (e.g. one read back from
    /// an atomic cell in the lock-free concurrent filter). The caller must
    /// only pass patterns previously produced by HCBF operations.
    #[inline]
    pub fn from_raw(bits: W) -> Self {
        HcbfWord { bits }
    }

    /// Membership test: is first-level bit `p` set? (The only part of the
    /// word a query reads — Eq. (4)'s central observation.)
    #[inline]
    pub fn query(&self, p: u32) -> bool {
        self.bits.bit(p)
    }

    /// Bits currently in use: `b1 + count_ones` (see module docs).
    #[inline]
    pub fn used_bits(&self, b1: u32) -> u32 {
        b1 + self.bits.count_ones()
    }

    /// Remaining hierarchy capacity in increments.
    #[inline]
    pub fn remaining_capacity(&self, b1: u32) -> u32 {
        W::BITS - self.used_bits(b1)
    }

    /// Sum of all counters in this word (= total increments stored).
    #[inline]
    pub fn total_count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// True if no element occupies this word.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == W::zero()
    }

    /// Reads the counter value at first-level position `p`.
    ///
    /// Carried-rank walk: `rank(level_start)` is remembered from the
    /// previous iteration, so each level needs two masked popcounts
    /// instead of the four the naive `rank_range` pair would spend.
    pub fn counter(&self, p: u32, b1: u32) -> u32 {
        debug_assert!(p < b1);
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut count = 0u32;
        let mut r_start = 0u32; // rank(level_start), carried across levels
        loop {
            let gp = level_start + pos;
            if !self.bits.bit(gp) {
                return count;
            }
            count += 1;
            let child = self.bits.rank(gp) - r_start;
            let next_start = level_start + level_size;
            let r_next = self.bits.rank(next_start);
            level_start = next_start;
            level_size = r_next - r_start;
            r_start = r_next;
            pos = child;
        }
    }

    /// Increments the counter at first-level position `p`.
    ///
    /// Walks the chain of ones to its first zero, flips it, and splices a
    /// zero child slot into the next level. Fails with
    /// [`WordError::Overflow`] when the word has no spare bit, leaving the
    /// word unchanged; the caller maps it to the filter-level error via
    /// [`WordError::at`] with the real word index.
    ///
    /// Carried-rank walk, as in [`HcbfWord::counter`]. This is the one
    /// production walk: scalar and batch inserts, rollbacks, the bulk
    /// sweep and the lock-free CAS closures all run it.
    #[inline]
    pub fn increment(&mut self, p: u32, b1: u32) -> Result<IncrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        // Capacity: inserting always consumes exactly one bit.
        if self.used_bits(b1) >= W::BITS {
            return Err(WordError::Overflow);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        let mut r_start = 0u32; // rank(level_start), carried across levels
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank(gp) - r_start;
            let next_start = level_start + level_size;
            if !self.bits.bit(gp) {
                // First zero on the chain: flip it, give it a child slot.
                self.bits.set_bit(gp);
                self.bits.insert_zero(next_start + child);
                return Ok(IncrementReport {
                    new_count: depth,
                    traversal_bits,
                });
            }
            let r_next = self.bits.rank(next_start);
            let next_size = r_next - r_start;
            level_start = next_start;
            level_size = next_size;
            r_start = r_next;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Reference twin of [`HcbfWord::increment`]: the naive
    /// `rank_range`-per-level walk. Kept verbatim for differential tests
    /// pinning the carried-rank walk bit-identical.
    pub fn increment_reference(&mut self, p: u32, b1: u32) -> Result<IncrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if self.used_bits(b1) >= W::BITS {
            return Err(WordError::Overflow);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank_range(level_start, gp);
            let next_start = level_start + level_size;
            if !self.bits.bit(gp) {
                self.bits.set_bit(gp);
                self.bits.insert_zero(next_start + child);
                return Ok(IncrementReport {
                    new_count: depth,
                    traversal_bits,
                });
            }
            let next_size = self.bits.rank_range(level_start, next_start);
            level_start = next_start;
            level_size = next_size;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Decrements the counter at first-level position `p`.
    ///
    /// Walks to the deepest one on the chain, removes its (zero) child
    /// slot and clears the bit — the mirror of [`HcbfWord::increment`].
    /// Fails with [`WordError::ZeroCounter`] if the counter is zero,
    /// leaving the word unchanged.
    #[inline]
    pub fn decrement(&mut self, p: u32, b1: u32) -> Result<DecrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if !self.bits.bit(p) {
            return Err(WordError::ZeroCounter);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        let mut r_start = 0u32; // rank(level_start), carried across levels
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank(gp) - r_start;
            let next_start = level_start + level_size;
            let child_gp = next_start + child;
            if !self.bits.bit(child_gp) {
                // `gp` is the deepest one: drop its child slot, clear it.
                self.bits.remove_bit(child_gp);
                self.bits.clear_bit(gp);
                return Ok(DecrementReport {
                    new_count: depth - 1,
                    traversal_bits,
                });
            }
            let r_next = self.bits.rank(next_start);
            let next_size = r_next - r_start;
            level_start = next_start;
            level_size = next_size;
            r_start = r_next;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Reference twin of [`HcbfWord::decrement`]; see
    /// [`HcbfWord::increment_reference`].
    pub fn decrement_reference(&mut self, p: u32, b1: u32) -> Result<DecrementReport, WordError> {
        debug_assert!(p < b1 && b1 <= W::BITS);
        if !self.bits.bit(p) {
            return Err(WordError::ZeroCounter);
        }
        let mut level_start = 0u32;
        let mut level_size = b1;
        let mut pos = p;
        let mut depth = 1u32;
        let mut traversal_bits = 0u32;
        loop {
            let gp = level_start + pos;
            let child = self.bits.rank_range(level_start, gp);
            let next_start = level_start + level_size;
            let child_gp = next_start + child;
            if !self.bits.bit(child_gp) {
                self.bits.remove_bit(child_gp);
                self.bits.clear_bit(gp);
                return Ok(DecrementReport {
                    new_count: depth - 1,
                    traversal_bits,
                });
            }
            let next_size = self.bits.rank_range(level_start, next_start);
            level_start = next_start;
            level_size = next_size;
            pos = child;
            depth += 1;
            traversal_bits += bits_for(u64::from(next_size));
        }
    }

    /// Batched membership for one word: checks the first-level positions
    /// in `probes` in order, stopping at the first zero (the scalar query
    /// short-circuit). Returns the verdict and how many positions were
    /// evaluated, for bandwidth metering.
    ///
    /// This is deliberately the plain short-circuit loop — the same walk
    /// the scalar path runs. An earlier gather-all-bits-then-
    /// `trailing_zeros` variant measured *slower* (it always evaluates the
    /// whole chunk while real workloads short-circuit early), and a query
    /// touches no rank/insert/remove primitive at all; batching wins come
    /// from the plan/interleave layers above, not from this loop.
    #[inline]
    pub fn query_all(&self, probes: &[u32]) -> (bool, u32) {
        let mut evaluated = 0u32;
        for &p in probes {
            evaluated += 1;
            if !self.bits.bit(p) {
                return (false, evaluated);
            }
        }
        (true, evaluated)
    }

    /// Reference twin of [`HcbfWord::query_all`]: the short-circuiting
    /// scalar loop, kept for differential tests of the metering contract.
    #[inline]
    pub fn query_all_reference(&self, probes: &[u32]) -> (bool, u32) {
        let mut evaluated = 0u32;
        for &p in probes {
            evaluated += 1;
            if !self.query(p) {
                return (false, evaluated);
            }
        }
        (true, evaluated)
    }

    /// Applies [`HcbfWord::increment`] to every position in order,
    /// all-or-nothing: on the first overflow the word is rolled back to
    /// its state before this call and the error returned. On success,
    /// returns the summed traversal bits of all increments.
    pub fn increment_all(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.increment(p, b1) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.decrement(q, b1)
                            .expect("rollback of a fresh increment cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// Applies [`HcbfWord::decrement`] to every position in order,
    /// all-or-nothing: on the first zero counter the word is rolled back
    /// and [`WordError::ZeroCounter`] returned. On success, returns the
    /// summed traversal bits of all decrements.
    pub fn decrement_all(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.decrement(p, b1) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.increment(q, b1)
                            .expect("rollback of a fresh decrement cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// Reference twin of [`HcbfWord::increment_all`]: the same
    /// all-or-nothing contract driven entirely by the reference walks.
    pub fn increment_all_reference(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.increment_reference(p, b1) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.decrement_reference(q, b1)
                            .expect("rollback of a fresh increment cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// Reference twin of [`HcbfWord::decrement_all`]; see
    /// [`HcbfWord::increment_all_reference`].
    pub fn decrement_all_reference(&mut self, probes: &[u32], b1: u32) -> Result<u32, WordError> {
        let mut traversal_bits = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            match self.decrement_reference(p, b1) {
                Ok(r) => traversal_bits += r.traversal_bits,
                Err(e) => {
                    for &q in probes[..i].iter().rev() {
                        self.increment_reference(q, b1)
                            .expect("rollback of a fresh decrement cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(traversal_bits)
    }

    /// The sizes of all non-empty levels, starting with `b1` (for the
    /// walkthrough, the tests and [`Self::check_invariants`]' error text).
    pub fn level_sizes(&self, b1: u32) -> Vec<u32> {
        let mut sizes = vec![b1];
        let mut level_start = 0u32;
        let mut level_size = b1;
        loop {
            let next = self.bits.rank_range(level_start, level_start + level_size);
            if next == 0 {
                break;
            }
            sizes.push(next);
            level_start += level_size;
            level_size = next;
        }
        sizes
    }

    /// Structural invariant check, run on every word by decode, verify
    /// and scrub, so it allocates nothing unless it fails:
    ///
    /// 1. levels fit in the word: `b1 + count_ones ≤ W::BITS`;
    /// 2. all bits beyond the used region are zero;
    /// 3. walking the levels (`|v_{j+1}| = popcount(v_j)`, stopping at the
    ///    first level with no ones) covers exactly the `used` bits.
    ///
    /// Check 3 needs no walk. Let `P(e)` count the ones below bit `e` and
    /// `h(e) = b1 + P(e) − e`. The walk's level ends are `e₀ = b1`,
    /// `e_{j+1} = e_j + h(e_j)`, and it stops at the first `e ≥ b1` with
    /// `h(e) = 0`. Each step of `h` adds `bit(e) − 1 ≤ 0`, so `h` never
    /// rises and the walk never steps over its first zero; under check 2,
    /// `h(used) = 0`. The walk therefore ends at `used` exactly when
    /// `h(used − 1) > 0`, i.e. when the last used bit is zero (it lies in
    /// the final, all-zero level), or when nothing is stored. Checks 2
    /// and 3 together thus say: every one lies below bit `used − 1`.
    /// `tests/hcbf_word_properties.rs` checks this against the walk for
    /// every 16-bit word and for arbitrary 64-bit ones.
    #[inline]
    pub fn check_invariants(&self, b1: u32) -> Result<(), String> {
        if self.holds(b1) {
            Ok(())
        } else {
            Err(self.invariant_violation(b1))
        }
    }

    /// Whether the word passes [`Self::check_invariants`], as a bare
    /// verdict with no branch: the form a load folds over a run of words,
    /// which the compiler can vectorize. Check 1, then checks 2 and 3 as
    /// one: no one at or above bit `used − 1` (an empty word has none,
    /// even where `used − 1` wraps).
    #[inline(always)]
    pub fn holds(&self, b1: u32) -> bool {
        let used = self.used_bits(b1);
        // `&`, not `&&`: the common (valid) case stays branch-free.
        (used <= W::BITS) & self.bits.is_zero_from(used.wrapping_sub(1).min(W::BITS))
    }

    /// Names the first invariant of [`Self::check_invariants`] that fails.
    #[cold]
    fn invariant_violation(&self, b1: u32) -> String {
        let used = self.used_bits(b1);
        if used > W::BITS {
            return format!("used bits {used} exceed word width {}", W::BITS);
        }
        if !self.bits.is_zero_from(used) {
            return format!("dirty bits beyond used region (used = {used})");
        }
        let walked: u32 = self.level_sizes(b1).iter().sum();
        format!("level walk covered {walked} bits but used_bits says {used}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type H64 = HcbfWord<u64>;
    type H16 = HcbfWord<u16>;

    #[test]
    fn empty_word_counters_are_zero() {
        let w = H64::new();
        for p in 0..40 {
            assert_eq!(w.counter(p, 40), 0);
            assert!(!w.query(p));
        }
        assert_eq!(w.used_bits(40), 40);
        assert!(w.check_invariants(40).is_ok());
    }

    #[test]
    fn single_increment_sets_membership() {
        let mut w = H64::new();
        let r = w.increment(5, 40).unwrap();
        assert_eq!(r.new_count, 1);
        assert!(w.query(5));
        assert_eq!(w.counter(5, 40), 1);
        assert_eq!(w.used_bits(40), 41);
        assert!(w.check_invariants(40).is_ok());
    }

    #[test]
    fn repeated_increments_deepen_the_chain() {
        let mut w = H64::new();
        for expect in 1..=6u32 {
            let r = w.increment(3, 40).unwrap();
            assert_eq!(r.new_count, expect);
            assert_eq!(w.counter(3, 40), expect);
            assert!(w.check_invariants(40).is_ok());
        }
        assert_eq!(w.total_count(), 6);
        assert_eq!(w.used_bits(40), 46);
    }

    #[test]
    fn decrement_mirrors_increment_exactly() {
        let mut w = H64::new();
        let positions = [0u32, 3, 3, 17, 39, 3, 17, 0, 0];
        let mut snapshots = vec![*w.raw()];
        for &p in &positions {
            w.increment(p, 40).unwrap();
            snapshots.push(*w.raw());
        }
        for &p in positions.iter().rev() {
            snapshots.pop();
            w.decrement(p, 40).unwrap();
            assert_eq!(
                w.raw(),
                snapshots.last().unwrap(),
                "mismatch after removing {p}"
            );
            assert!(w.check_invariants(40).is_ok());
        }
        assert!(w.is_empty());
    }

    #[test]
    fn counters_match_an_oracle_multiset() {
        let mut w = H64::new();
        let mut oracle = [0u32; 40];
        // Deterministic xorshift to mix increments and decrements.
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let p = (rand() % 40) as u32;
            if rand() % 3 == 0 && oracle[p as usize] > 0 {
                w.decrement(p, 40).unwrap();
                oracle[p as usize] -= 1;
            } else if w.remaining_capacity(40) > 0 {
                w.increment(p, 40).unwrap();
                oracle[p as usize] += 1;
            }
            // Occasionally drain to keep capacity available.
            if w.remaining_capacity(40) == 0 {
                for p in 0..40u32 {
                    while oracle[p as usize] > 0 {
                        w.decrement(p, 40).unwrap();
                        oracle[p as usize] -= 1;
                    }
                }
            }
        }
        for p in 0..40u32 {
            assert_eq!(w.counter(p, 40), oracle[p as usize], "counter {p}");
        }
        assert!(w.check_invariants(40).is_ok());
    }

    #[test]
    fn paper_fig3_example() {
        // Fig. 3(b): w = 16, k = 3, n_max = 2 ⇒ b1 = 16 − 6 = 10.
        // x0 hashes to first-level bits {0, 2, 4}; x5 to {4, 6, 8}.
        let b1 = 10;
        let mut w = H16::new();
        for p in [0u32, 2, 4] {
            w.increment(p, b1).unwrap();
        }
        for p in [4u32, 6, 8] {
            w.increment(p, b1).unwrap();
        }
        // Counters: positions 0,2,6,8 → 1; position 4 → 2.
        assert_eq!(w.counter(0, b1), 1);
        assert_eq!(w.counter(2, b1), 1);
        assert_eq!(w.counter(4, b1), 2);
        assert_eq!(w.counter(6, b1), 1);
        assert_eq!(w.counter(8, b1), 1);
        // "The improved HCBF can fill the whole word and there is no
        //  remainder": 10 + 6 increments = 16 bits used.
        assert_eq!(w.used_bits(b1), 16);
        assert_eq!(w.remaining_capacity(b1), 0);
        // Level sizes: v1 = 10, v2 = popcount(v1) = 5, v3 = 1.
        assert_eq!(w.level_sizes(b1), vec![10, 5, 1]);
        assert!(w.check_invariants(b1).is_ok());
    }

    #[test]
    fn overflow_is_detected_and_harmless() {
        let b1 = 10;
        let mut w = H16::new();
        for _ in 0..6 {
            w.increment(0, b1).unwrap();
        }
        let before = *w.raw();
        assert_eq!(w.increment(1, b1), Err(WordError::Overflow));
        assert_eq!(*w.raw(), before, "failed increment must not mutate");
        assert_eq!(w.counter(0, b1), 6);
    }

    #[test]
    fn word_errors_map_to_filter_errors_with_real_index() {
        assert_eq!(
            WordError::Overflow.at(17),
            FilterError::WordOverflow { word: 17 }
        );
        assert_eq!(WordError::ZeroCounter.at(3), FilterError::NotPresent);
    }

    #[test]
    fn decrement_of_zero_counter_errors() {
        let mut w = H64::new();
        assert_eq!(w.decrement(7, 40), Err(WordError::ZeroCounter));
        w.increment(6, 40).unwrap();
        assert_eq!(w.decrement(7, 40), Err(WordError::ZeroCounter));
        assert_eq!(w.counter(6, 40), 1);
    }

    #[test]
    fn deep_single_chain_uses_whole_hierarchy() {
        // All capacity on one counter: counter = w − b1.
        let b1 = 40u32;
        let mut w = H64::new();
        for i in 1..=24u32 {
            assert_eq!(w.increment(9, b1).unwrap().new_count, i);
        }
        assert!(w.increment(9, b1).is_err());
        assert_eq!(w.counter(9, b1), 24);
        assert_eq!(w.level_sizes(b1).len(), 25); // v1 + 24 unary levels
        assert!(w.check_invariants(b1).is_ok());
    }

    #[test]
    fn traversal_bits_grow_with_depth() {
        let mut w = H64::new();
        let r1 = w.increment(0, 40).unwrap();
        assert_eq!(r1.traversal_bits, 0); // landed at level 1
        w.increment(1, 40).unwrap();
        w.increment(2, 40).unwrap();
        let r2 = w.increment(0, 40).unwrap(); // descends into level 2 (size 3)
        assert_eq!(r2.new_count, 2);
        assert_eq!(r2.traversal_bits, 2); // log2(3) → 2 bits
    }

    #[test]
    fn interleaved_positions_keep_sibling_counters_intact() {
        let mut w = H64::new();
        for p in 0..10u32 {
            w.increment(p, 40).unwrap();
        }
        for _ in 0..5 {
            w.increment(4, 40).unwrap();
        }
        for p in 0..10u32 {
            let expect = if p == 4 { 6 } else { 1 };
            assert_eq!(w.counter(p, 40), expect, "counter {p}");
        }
        w.decrement(4, 40).unwrap();
        for p in 0..10u32 {
            let expect = if p == 4 { 5 } else { 1 };
            assert_eq!(w.counter(p, 40), expect, "counter {p} after decrement");
        }
    }

    #[test]
    fn query_all_short_circuits_like_scalar() {
        let mut w = H64::new();
        for p in [2u32, 4, 9] {
            w.increment(p, 40).unwrap();
        }
        assert_eq!(w.query_all(&[2, 4, 9]), (true, 3));
        assert_eq!(w.query_all(&[2, 5, 9]), (false, 2)); // stops at the zero
        assert_eq!(w.query_all(&[7]), (false, 1));
        assert_eq!(w.query_all(&[]), (true, 0));
    }

    #[test]
    fn increment_all_matches_sequential_increments() {
        let mut batch = H64::new();
        let mut scalar = H64::new();
        let probes = [3u32, 3, 17, 0];
        let mut expect_bits = 0;
        for &p in &probes {
            expect_bits += scalar.increment(p, 40).unwrap().traversal_bits;
        }
        assert_eq!(batch.increment_all(&probes, 40).unwrap(), expect_bits);
        assert_eq!(batch.raw(), scalar.raw());
    }

    #[test]
    fn increment_all_rolls_back_on_overflow() {
        let b1 = 10;
        let mut w = H16::new();
        for _ in 0..4 {
            w.increment(0, b1).unwrap();
        }
        let before = *w.raw();
        // Capacity is 6; 3 more increments cannot all fit.
        assert_eq!(w.increment_all(&[1, 2, 3], b1), Err(WordError::Overflow));
        assert_eq!(*w.raw(), before, "failed batch must not mutate");
    }

    #[test]
    fn decrement_all_mirrors_and_rolls_back() {
        let mut w = H64::new();
        for p in [5u32, 5, 8] {
            w.increment(p, 40).unwrap();
        }
        let before = *w.raw();
        // Position 9 is empty: the whole batch must be undone.
        assert_eq!(w.decrement_all(&[5, 8, 9], 40), Err(WordError::ZeroCounter));
        assert_eq!(*w.raw(), before);
        // A valid batch drains exactly the inserted multiset.
        w.decrement_all(&[5, 5, 8], 40).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn works_at_u128_width() {
        let mut w: HcbfWord<u128> = HcbfWord::new();
        let b1 = 100; // capacity: 128 − 100 = 28 increments
        for p in (0..100).step_by(10) {
            w.increment(p, b1).unwrap();
            w.increment(p, b1).unwrap();
        }
        for p in (0..100).step_by(10) {
            assert_eq!(w.counter(p, b1), 2);
        }
        assert!(w.check_invariants(b1).is_ok());
    }
}
