//! The standard Counting Bloom Filter (§II.A, reference \[3\]):
//! `m` packed 4-bit counters, `k` hashed positions per element.
//!
//! This is the primary baseline of every figure and table in the paper.
//! Counters saturate at 15 (the classic policy that preserves the
//! no-false-negative guarantee); queries short-circuit at the first zero
//! counter, which is what produces the fractional per-query access counts
//! the paper reports (e.g. 2.1 for k = 3 on the trace workload).

use crate::metrics::{OpCost, WordTouches};
use crate::plan::{PlanBuffer, SMALL_BATCH};
use crate::scrub::{segment_of, FilterSeal, ScrubReport};
use crate::traits::{CountingFilter, Filter};
use crate::{ConfigError, FilterError};
use mpcbf_bitvec::CounterVec;
use mpcbf_hash::mix::bits_for;
use mpcbf_hash::{DoubleHasher, Hasher128, Murmur3};
use std::marker::PhantomData;

/// A standard CBF with `m` counters of `c` bits.
///
/// ```
/// use mpcbf_core::{Cbf, CountingFilter, Filter};
/// use mpcbf_hash::Murmur3;
///
/// let mut cbf = Cbf::<Murmur3>::with_memory(4_000, 3, 42);
/// cbf.insert(&"tcp:443").unwrap();
/// assert!(cbf.contains(&"tcp:443"));
/// cbf.remove(&"tcp:443").unwrap();
/// assert!(!cbf.contains(&"tcp:443"));
/// ```
#[derive(Debug, Clone)]
pub struct Cbf<H: Hasher128 = Murmur3> {
    counters: CounterVec,
    k: u32,
    seed: u64,
    /// Machine-word granularity for access metering.
    word_bits: u32,
    items: u64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> Cbf<H> {
    /// Creates a CBF with `m` counters of the paper's default 4 bits.
    ///
    /// # Panics
    /// Panics on an invalid shape; use [`Cbf::try_new`] to handle
    /// untrusted parameters as errors.
    pub fn new(m: usize, k: u32, seed: u64) -> Self {
        Self::with_counter_width(m, 4, k, seed)
    }

    /// Fallible counterpart of [`Cbf::new`].
    pub fn try_new(m: usize, k: u32, seed: u64) -> Result<Self, ConfigError> {
        Self::try_with_counter_width(m, 4, k, seed)
    }

    /// Creates a CBF sized to a memory budget of `memory_bits`
    /// (`m = memory_bits / 4`), the layout used in all comparisons.
    ///
    /// # Panics
    /// Panics on an invalid shape; use [`Cbf::try_with_memory`] to handle
    /// untrusted parameters as errors.
    pub fn with_memory(memory_bits: u64, k: u32, seed: u64) -> Self {
        Self::new((memory_bits / 4) as usize, k, seed)
    }

    /// Fallible counterpart of [`Cbf::with_memory`].
    pub fn try_with_memory(memory_bits: u64, k: u32, seed: u64) -> Result<Self, ConfigError> {
        Self::try_new((memory_bits / 4) as usize, k, seed)
    }

    /// Creates a CBF with an explicit counter width.
    ///
    /// # Panics
    /// Panics if `m == 0`, `k ∉ 1..=64` or `width ∉ 1..=32`; use
    /// [`Cbf::try_with_counter_width`] to handle untrusted parameters as
    /// errors.
    pub fn with_counter_width(m: usize, width: u32, k: u32, seed: u64) -> Self {
        match Self::try_with_counter_width(m, width, k, seed) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Cbf::with_counter_width`]: validates the
    /// shape and returns a [`ConfigError`] instead of panicking, for
    /// callers (CLIs, config loaders) handling untrusted parameters.
    pub fn try_with_counter_width(
        m: usize,
        width: u32,
        k: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if m == 0 {
            return Err(ConfigError::InsufficientMemory {
                detail: "counter vector needs at least one counter".into(),
            });
        }
        if !(1..=32).contains(&width) {
            return Err(ConfigError::BadGeometry {
                detail: format!("counter width {width} out of 1..=32"),
            });
        }
        if !(1..=64).contains(&k) {
            return Err(ConfigError::BadHashCount { k });
        }
        Ok(Cbf {
            counters: CounterVec::new(m, width),
            k,
            seed,
            word_bits: 64,
            items: 0,
            _hasher: PhantomData,
        })
    }

    /// Sets the machine-word width used when counting memory accesses.
    pub fn with_word_bits(mut self, word_bits: u32) -> Self {
        assert!(word_bits.is_power_of_two() && (8..=512).contains(&word_bits));
        self.word_bits = word_bits;
        self
    }

    /// Number of counters.
    pub fn len_counters(&self) -> usize {
        self.counters.len()
    }

    /// Net insertions currently stored.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Number of increments that hit a saturated counter.
    pub fn saturations(&self) -> u64 {
        self.counters.saturations()
    }

    /// Value of counter `i` (for tests and diagnostics).
    pub fn counter(&self, i: usize) -> u64 {
        self.counters.get(i)
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The metering word width.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Raw storage view for serialization:
    /// `(limbs, counter count, counter width, saturations)`.
    pub fn raw_parts(&self) -> (&[u64], usize, u32, u64) {
        (
            self.counters.raw_limbs(),
            self.counters.len(),
            self.counters.width(),
            self.counters.saturations(),
        )
    }

    /// Checksums the current counter storage into a [`FilterSeal`].
    ///
    /// Take a seal whenever the filter is known healthy (after a batch of
    /// updates, before going idle); [`Cbf::scrub`] later compares the
    /// storage against it to localise silent memory corruption.
    pub fn seal(&self) -> FilterSeal {
        FilterSeal::compute(self.counters.raw_limbs().iter().copied())
    }

    /// Checks the structural invariants no sequence of operations can
    /// violate: the padding bits past the last counter must stay zero.
    ///
    /// Flat counters carry far weaker invariants than the HCBF hierarchy
    /// (any counter value is reachable), so `verify` alone catches only
    /// flips landing in the padding; pair it with a [`Cbf::seal`] and
    /// [`Cbf::scrub`] for full coverage.
    pub fn verify(&self) -> Result<(), FilterError> {
        let limbs = self.counters.raw_limbs();
        if let Some((&last, _)) = limbs.split_last() {
            let used = self.counters.memory_bits() - (limbs.len() - 1) * 64;
            if used < 64 && (last >> used) != 0 {
                return Err(FilterError::CorruptionDetected {
                    segment: segment_of(limbs.len() - 1),
                });
            }
        }
        Ok(())
    }

    /// Scrubs the counter storage against a previously taken seal,
    /// reporting every segment whose checksum or structural invariants no
    /// longer hold.
    ///
    /// # Panics
    /// Panics if `seal` was taken from a different-sized filter.
    pub fn scrub(&self, seal: &FilterSeal) -> ScrubReport {
        let mut corrupt = seal.diff(self.counters.raw_limbs().iter().copied());
        if let Err(FilterError::CorruptionDetected { segment }) = self.verify() {
            corrupt.push(segment);
        }
        ScrubReport::new(seal.segments(), corrupt)
    }

    /// Fault-injection hook: XORs `mask` into raw limb `limb`, simulating
    /// an in-memory bit flip. Test/diagnostic use only — the damage is
    /// exactly what [`Cbf::scrub`] exists to detect.
    pub fn corrupt_limb_xor(&mut self, limb: usize, mask: u64) {
        self.counters.xor_limb(limb, mask);
    }

    /// Rebuilds a filter from raw storage (the codec's decode path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        limbs: Vec<u64>,
        len: usize,
        width: u32,
        saturations: u64,
        k: u32,
        seed: u64,
        word_bits: u32,
        items: u64,
    ) -> Self {
        Cbf {
            counters: CounterVec::from_raw_parts(limbs, len, width, saturations),
            k,
            seed,
            word_bits,
            items,
            _hasher: PhantomData,
        }
    }

    #[inline]
    fn hasher(&self, key: &[u8]) -> DoubleHasher {
        DoubleHasher::new(H::hash128(self.seed, key), self.counters.len() as u64)
    }

    #[inline]
    fn word_of(&self, counter: usize) -> usize {
        counter * self.counters.width() as usize / self.word_bits as usize
    }

    /// Stage 1 of the batch pipeline: hash every key into the caller's
    /// [`PlanBuffer`] as flat plans — no group bookkeeping at all, just
    /// `k` counter indices per key, with zero allocation once the buffer
    /// is warm.
    fn plan_into(&self, keys: &[&[u8]], plans: &mut PlanBuffer) {
        plans.plan_flat(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            self.k,
            self.counters.len() as u64,
        );
    }

    /// Distinct machine words among `probes` — the fused path's
    /// replacement for a per-key [`WordTouches`] tracker: same dedup
    /// semantics (k ≤ 64 never saturates the scalar tracker either),
    /// computed by an O(k²) scan with no per-key state.
    #[inline]
    fn distinct_probe_words(&self, probes: &[u32]) -> u32 {
        let mut n = 0u32;
        for (i, &p) in probes.iter().enumerate() {
            let w = self.word_of(p as usize);
            if !probes[..i].iter().any(|&q| self.word_of(q as usize) == w) {
                n += 1;
            }
        }
        n
    }
}

impl<H: Hasher128> Filter for Cbf<H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let mut dh = self.hasher(key);
        let mut touches = WordTouches::new();
        let addr_bits = bits_for(self.counters.len() as u64);
        let mut evaluated = 0u32;
        let mut member = true;
        for _ in 0..self.k {
            let p = dh.next_index();
            touches.touch(self.word_of(p));
            evaluated += 1;
            if !self.counters.is_set(p) {
                member = false;
                break;
            }
        }
        (
            member,
            OpCost {
                word_accesses: touches.count(),
                hash_bits: evaluated * addr_bits,
            },
        )
    }

    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut dh = self.hasher(key);
        let mut touches = WordTouches::new();
        let addr_bits = bits_for(self.counters.len() as u64);
        for _ in 0..self.k {
            let p = dh.next_index();
            touches.touch(self.word_of(p));
            self.counters.increment(p);
        }
        self.items += 1;
        Ok(OpCost {
            word_accesses: touches.count(),
            hash_bits: self.k * addr_bits,
        })
    }

    fn memory_bits(&self) -> u64 {
        self.counters.memory_bits() as u64
    }

    fn num_hashes(&self) -> u32 {
        self.k
    }

    /// Batch query via the fused flat pipeline with a fresh plan buffer;
    /// hold a [`PlanBuffer`] and call [`Filter::contains_batch_with`] to
    /// skip the per-call allocation.
    fn contains_batch_cost(&self, keys: &[&[u8]]) -> (Vec<bool>, OpCost) {
        self.contains_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Fused flat batch query: the plan buffer holds just `k` counter
    /// indices per key — no groups, no per-key tracker structures — and
    /// each key probes in scalar order, short-circuiting on the first
    /// zero counter. Batches below [`SMALL_BATCH`] degrade to the scalar
    /// loop.
    fn contains_batch_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        if keys.len() < SMALL_BATCH {
            let mut hits = Vec::with_capacity(keys.len());
            let mut total = OpCost::zero();
            for key in keys {
                let (hit, cost) = self.contains_bytes_cost(key);
                hits.push(hit);
                total = total.add(cost);
            }
            return (hits, total);
        }
        self.plan_into(keys, plans);
        let addr_bits = bits_for(self.counters.len() as u64);
        let mut hits = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let probes = plans.slots_of(i);
            let mut evaluated = 0u32;
            let mut member = true;
            for &p in probes {
                evaluated += 1;
                if !self.counters.is_set(p as usize) {
                    member = false;
                    break;
                }
            }
            hits.push(member);
            total = total.add(OpCost {
                word_accesses: self.distinct_probe_words(&probes[..evaluated as usize]),
                hash_bits: evaluated * addr_bits,
            });
        }
        (hits, total)
    }

    /// Batch insert via the fused flat pipeline with a fresh plan buffer;
    /// hold a [`PlanBuffer`] and call [`Filter::insert_batch_with`] to
    /// skip the per-call allocation.
    fn insert_batch_cost(&mut self, keys: &[&[u8]]) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.insert_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Fused flat batch insert: increments are applied strictly in key
    /// order straight off the plan buffer's index runs, so the counter
    /// array ends bit-identical to a scalar loop. Batches below
    /// [`SMALL_BATCH`] degrade to the scalar loop.
    fn insert_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        if keys.len() < SMALL_BATCH {
            let mut results = Vec::with_capacity(keys.len());
            let mut total = OpCost::zero();
            for key in keys {
                match self.insert_bytes_cost(key) {
                    Ok(cost) => {
                        total = total.add(cost);
                        results.push(Ok(()));
                    }
                    Err(e) => results.push(Err(e)),
                }
            }
            return (results, total);
        }
        self.plan_into(keys, plans);
        let addr_bits = bits_for(self.counters.len() as u64);
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let probes = plans.slots_of(i);
            for &p in probes {
                self.counters.increment(p as usize);
            }
            self.items += 1;
            total = total.add(OpCost {
                word_accesses: self.distinct_probe_words(probes),
                hash_bits: self.k * addr_bits,
            });
            results.push(Ok(()));
        }
        (results, total)
    }
}

impl<H: Hasher128> CountingFilter for Cbf<H> {
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut dh = self.hasher(key);
        let mut touches = WordTouches::new();
        let addr_bits = bits_for(self.counters.len() as u64);
        // First pass: verify presence so a bogus delete cannot corrupt the
        // filter (decrementing a zero counter would manufacture false
        // negatives for other elements).
        let mut probe = self.hasher(key);
        for _ in 0..self.k {
            if !self.counters.is_set(probe.next_index()) {
                return Err(FilterError::NotPresent);
            }
        }
        for _ in 0..self.k {
            let p = dh.next_index();
            touches.touch(self.word_of(p));
            self.counters.decrement(p);
        }
        self.items = self.items.saturating_sub(1);
        Ok(OpCost {
            word_accesses: touches.count(),
            hash_bits: self.k * addr_bits,
        })
    }

    /// Batch remove via the fused flat pipeline with a fresh plan buffer;
    /// hold a [`PlanBuffer`] and call [`CountingFilter::remove_batch_with`]
    /// to skip the per-call allocation.
    fn remove_batch_cost(&mut self, keys: &[&[u8]]) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.remove_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Fused flat batch remove: each key runs the same unmetered presence
    /// pass as the scalar path, then the metered decrements — applied in
    /// key order off the plan buffer, so an absent key leaves the counters
    /// untouched and later keys in the batch see every earlier key's
    /// decrements. Batches below [`SMALL_BATCH`] degrade to the scalar
    /// loop.
    fn remove_batch_with(
        &mut self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        if keys.len() < SMALL_BATCH {
            let mut results = Vec::with_capacity(keys.len());
            let mut total = OpCost::zero();
            for key in keys {
                match self.remove_bytes_cost(key) {
                    Ok(cost) => {
                        total = total.add(cost);
                        results.push(Ok(()));
                    }
                    Err(e) => results.push(Err(e)),
                }
            }
            return (results, total);
        }
        self.plan_into(keys, plans);
        let addr_bits = bits_for(self.counters.len() as u64);
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let probes = plans.slots_of(i);
            if probes.iter().any(|&p| !self.counters.is_set(p as usize)) {
                results.push(Err(FilterError::NotPresent));
                continue;
            }
            for &p in probes {
                self.counters.decrement(p as usize);
            }
            self.items = self.items.saturating_sub(1);
            total = total.add(OpCost {
                word_accesses: self.distinct_probe_words(probes),
                hash_bits: self.k * addr_bits,
            });
            results.push(Ok(()));
        }
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type C = Cbf<Murmur3>;

    #[test]
    fn insert_query_delete_roundtrip() {
        let mut f = C::new(10_000, 3, 1);
        f.insert(&"x").unwrap();
        assert!(f.contains(&"x"));
        f.remove(&"x").unwrap();
        assert!(!f.contains(&"x"));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn no_false_negatives_under_churn() {
        let mut f = C::new(50_000, 3, 2);
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        // Delete the first half; the second half must all remain.
        for i in 0..2_500u64 {
            f.remove(&i).unwrap();
        }
        for i in 2_500..5_000u64 {
            assert!(f.contains(&i), "false negative for {i}");
        }
    }

    #[test]
    fn delete_absent_errors_and_preserves_state() {
        let mut f = C::new(1_000, 3, 3);
        f.insert(&"keep").unwrap();
        let before: Vec<u64> = (0..1_000).map(|i| f.counter(i)).collect();
        assert_eq!(f.remove(&"never-inserted"), Err(FilterError::NotPresent));
        let after: Vec<u64> = (0..1_000).map(|i| f.counter(i)).collect();
        assert_eq!(before, after);
        assert!(f.contains(&"keep"));
    }

    #[test]
    fn duplicate_inserts_need_matching_deletes() {
        let mut f = C::new(1_000, 3, 4);
        f.insert(&"dup").unwrap();
        f.insert(&"dup").unwrap();
        f.remove(&"dup").unwrap();
        assert!(f.contains(&"dup"), "one copy should remain");
        f.remove(&"dup").unwrap();
        assert!(!f.contains(&"dup"));
    }

    #[test]
    fn memory_matches_4_bits_per_counter() {
        let f = C::with_memory(4_000_000, 3, 0);
        assert_eq!(f.len_counters(), 1_000_000);
        assert_eq!(f.memory_bits(), 4_000_000);
    }

    #[test]
    fn query_short_circuit_on_empty_filter() {
        let f = C::new(1 << 20, 3, 5);
        let (hit, cost) = f.contains_bytes_cost(b"miss");
        assert!(!hit);
        assert_eq!(cost.word_accesses, 1);
        assert_eq!(cost.hash_bits, 20);
    }

    #[test]
    fn member_query_costs_k_addresses() {
        let mut f = C::new(1 << 20, 3, 5);
        f.insert(&"m").unwrap();
        let (hit, cost) = f.contains_bytes_cost(b"m");
        assert!(hit);
        assert_eq!(cost.hash_bits, 3 * 20);
        assert!(cost.word_accesses <= 3);
    }

    #[test]
    fn fpr_close_to_analytic() {
        let n = 10_000u64;
        let m = 100_000;
        let mut f = C::new(m, 3, 6);
        for i in 0..n {
            f.insert(&i).unwrap();
        }
        let trials = 100_000u64;
        let fp = (n..n + trials).filter(|i| f.contains(i)).count() as f64;
        let rate = fp / trials as f64;
        let analytic = mpcbf_analysis::cbf::fpr(n, m as u64, 3);
        assert!(
            (rate - analytic).abs() < 0.5 * analytic + 1e-3,
            "measured {rate}, analytic {analytic}"
        );
    }

    #[test]
    fn batch_matches_scalar_loop_including_removes() {
        let mut batch = C::new(20_000, 3, 8);
        let mut scalar = C::new(20_000, 3, 8);
        let keys: Vec<Vec<u8>> = (0..200u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

        let (_, bi) = batch.insert_batch_cost(&views);
        let mut si = OpCost::zero();
        for k in &views {
            si = si.add(scalar.insert_bytes_cost(k).unwrap());
        }
        assert_eq!(bi, si);

        // Remove a mix of present and absent keys (absent ones report
        // NotPresent and no cost on both paths).
        let mixed: Vec<Vec<u8>> = (100..300u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let mixed_views: Vec<&[u8]> = mixed.iter().map(|k| k.as_slice()).collect();
        let (batch_res, br) = batch.remove_batch_cost(&mixed_views);
        let mut sr = OpCost::zero();
        for (i, k) in mixed_views.iter().enumerate() {
            match scalar.remove_bytes_cost(k) {
                Ok(c) => {
                    sr = sr.add(c);
                    assert_eq!(batch_res[i], Ok(()));
                }
                Err(e) => assert_eq!(batch_res[i], Err(e)),
            }
        }
        assert_eq!(br, sr);
        assert_eq!(batch.raw_parts().0, scalar.raw_parts().0);
        assert_eq!(batch.items(), scalar.items());
    }

    #[test]
    fn try_constructors_report_bad_shapes() {
        use crate::ConfigError;
        assert!(matches!(
            C::try_new(0, 3, 0),
            Err(ConfigError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            C::try_with_memory(3, 3, 0), // 3 bits -> zero counters
            Err(ConfigError::InsufficientMemory { .. })
        ));
        assert!(matches!(
            C::try_with_counter_width(100, 33, 3, 0),
            Err(ConfigError::BadGeometry { .. })
        ));
        assert_eq!(
            C::try_new(100, 0, 0).err(),
            Some(ConfigError::BadHashCount { k: 0 })
        );
        assert!(C::try_new(100, 3, 0).is_ok());
        assert!(C::try_with_memory(4_000, 3, 0).is_ok());
    }

    #[test]
    fn scrub_detects_injected_bit_flip() {
        let mut f = C::new(10_000, 3, 11);
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.verify(), Ok(()));
        let seal = f.seal();
        assert!(f.scrub(&seal).is_clean());

        f.corrupt_limb_xor(100, 1 << 17);
        let report = f.scrub(&seal);
        assert_eq!(report.corrupt_segments, vec![segment_of(100)]);
        assert_eq!(
            report.to_result(),
            Err(FilterError::CorruptionDetected {
                segment: segment_of(100)
            })
        );

        // Undo the flip: the same seal scrubs clean again.
        f.corrupt_limb_xor(100, 1 << 17);
        assert!(f.scrub(&seal).is_clean());
    }

    #[test]
    fn verify_catches_padding_damage() {
        // 100 counters x 4 bits = 400 bits: limb 6 uses 16 bits, the top
        // 48 are padding no legitimate operation ever writes.
        let mut f = C::new(100, 3, 0);
        assert_eq!(f.verify(), Ok(()));
        f.corrupt_limb_xor(6, 1 << 60);
        assert_eq!(
            f.verify(),
            Err(FilterError::CorruptionDetected { segment: 0 })
        );
        // verify() damage also surfaces through a scrub of a clean seal.
        f.corrupt_limb_xor(6, 1 << 60);
        let seal = f.seal();
        f.corrupt_limb_xor(6, 1 << 60);
        assert_eq!(f.scrub(&seal).corrupt_segments, vec![0]);
    }

    #[test]
    fn saturation_does_not_lose_membership() {
        let mut f = C::with_counter_width(64, 2, 2, 7); // counters max out at 3
        for _ in 0..20 {
            f.insert(&"hot").unwrap();
        }
        assert!(f.saturations() > 0);
        assert!(f.contains(&"hot"));
        // Deletes on saturated counters keep them stuck at max — still no
        // false negative for the remaining copies.
        for _ in 0..5 {
            f.remove(&"hot").unwrap();
        }
        assert!(f.contains(&"hot"));
    }
}
