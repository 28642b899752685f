//! Lock-free MPCBF over 64-bit words.
//!
//! Every word is an `AtomicU64`; an update is a classic CAS loop: load the
//! word, run the [`HcbfWord`] codec on the local copy, compare-and-swap.
//! This works because an HCBF word is a pure value — the whole counter
//! structure for that word fits in the one atomic cell, so word-level
//! linearisability comes for free and contention only arises when two
//! threads hash to the *same* word simultaneously (probability ≈ 1/l).
//!
//! Scalar and batch operations run the same planned bodies: one CAS per
//! word *group*, so all of a key's probes into one word land together.
//! Each body returns its [`OpCost`]; the plain entry points drop it, the
//! `*_batch_metered` entry points report it to an [`OpSink`].

use crate::planned::{self, KeyPlan, Meter, Row, Update};
use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_bitvec::AlignedVec;
use mpcbf_core::config::MpcbfConfig;
use mpcbf_core::hcbf::{HcbfWord, WordError};
use mpcbf_core::metrics::{OpCost, OpKind, OpSink};
use mpcbf_core::scrub::{segment_of, FilterSeal, ScrubReport};
use mpcbf_core::{FilterError, PlanBuffer, ProbePlan};
use mpcbf_hash::mix::bits_for;
use mpcbf_hash::{Hasher128, Murmur3};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free MPCBF (64-bit words only).
pub struct AtomicMpcbf<H: Hasher128 = Murmur3> {
    words: AlignedVec<AtomicU64>,
    shape: MpcbfShape,
    seed: u64,
    overflows: AtomicU64,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> AtomicMpcbf<H> {
    /// Creates a lock-free filter from a validated configuration.
    ///
    /// # Panics
    /// Panics unless the configuration uses 64-bit words.
    pub fn new(config: MpcbfConfig) -> Self {
        let shape = config.shape();
        assert_eq!(shape.w, 64, "AtomicMpcbf requires 64-bit words");
        let words = AlignedVec::from_fn(shape.l as usize, |_| AtomicU64::new(0));
        AtomicMpcbf {
            words,
            shape,
            seed: config.seed(),
            overflows: AtomicU64::new(0),
            _hasher: PhantomData,
        }
    }

    /// The derived structural parameters.
    pub fn shape(&self) -> MpcbfShape {
        self.shape
    }

    /// Insertions refused because a word overflowed.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Total increments currently stored.
    pub fn total_load(&self) -> u64 {
        self.words
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// CAS loop applying `op` to one word. Returns what `op` returned on
    /// the attempt that published, or `Err` if `op` reports an error on
    /// the *current* value (no retry — the error is a property of the
    /// state, e.g. overflow).
    #[inline]
    fn update_word<T>(
        &self,
        word: usize,
        mut op: impl FnMut(&mut HcbfWord<u64>) -> Result<T, WordError>,
    ) -> Result<T, WordError> {
        let cell = &self.words[word];
        let mut current = cell.load(Ordering::Acquire);
        loop {
            let mut local = HcbfWord::from_raw(current);
            let out = op(&mut local)?;
            match cell.compare_exchange_weak(
                current,
                *local.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(out),
                Err(actual) => current = actual,
            }
        }
    }

    /// The sequential filter's cost model, exactly: a lock-free filter
    /// places keys bit-for-bit as [`mpcbf_core::Mpcbf`] does.
    #[inline]
    fn meter(&self) -> Meter {
        Meter {
            route_bits: 0,
            word_bits: bits_for(self.shape.l),
            pos_bits: bits_for(u64::from(self.shape.b1)),
            probes: self.shape.k,
        }
    }

    /// Plans a key's probes with the sequential filter's digest streams,
    /// so this filter places elements exactly as [`mpcbf_core::Mpcbf`]
    /// does.
    #[inline]
    fn plan(&self, key: &[u8]) -> ProbePlan {
        ProbePlan::partitioned(
            H::hash128(self.seed, key),
            self.shape.l,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        )
    }

    /// Plans a whole batch into the caller's [`PlanBuffer`] — the same
    /// digest streams as [`Self::plan`], zero allocation once the buffer
    /// is warm.
    fn plan_into(&self, keys: &[&[u8]], plans: &mut PlanBuffer) {
        plans.plan_partitioned(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            self.shape.l,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        );
    }

    /// Queries one planned key: one `Acquire` snapshot per group's word,
    /// short-circuiting at the first zero.
    #[inline]
    fn query_planned(&self, plan: &impl KeyPlan) -> (bool, OpCost) {
        planned::query(plan, self.meter(), |word, probes| {
            HcbfWord::from_raw(self.words[word].load(Ordering::Acquire)).query_all(probes)
        })
    }

    /// Applies `op` to one planned key: one CAS per *group* (the whole
    /// group's walks land word-atomically), with cross-group rollback if
    /// the key is refused. Traversal bits come from the CAS attempt that
    /// published.
    ///
    /// Unlike the locked variants, a rollback step here *can* fail under
    /// contention: another thread removing this key mid-rollback drains
    /// the counter first. The state is then indeterminate for this key,
    /// reported as [`FilterError::CorruptionDetected`] (a scrub resolves
    /// it) — never a panic a remote caller could trigger.
    #[inline]
    fn update_planned(&self, plan: &impl KeyPlan, op: Update) -> Result<OpCost, FilterError> {
        let b1 = self.shape.b1;
        let result = planned::update(plan, op, self.meter(), |word, probes, op| {
            self.update_word(word, |w| op.walk(w, probes, b1))
        });
        if matches!(result, Err(FilterError::WordOverflow { .. })) {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Membership check.
    pub fn contains<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> bool {
        self.contains_bytes(key.key_bytes().as_slice())
    }

    /// Membership check on raw bytes.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        self.query_planned(&self.plan(key)).0
    }

    /// Inserts a key.
    pub fn insert<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.insert_bytes(key.key_bytes().as_slice())
    }

    /// Inserts raw bytes, rolling back on overflow (see
    /// `update_planned` for the rollback-failure report).
    pub fn insert_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        self.update_planned(&self.plan(key), Update::Insert)
            .map(|_| ())
    }

    /// Removes a key.
    pub fn remove<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.remove_bytes(key.key_bytes().as_slice())
    }

    /// Removes raw bytes, rolling back if the element is absent.
    pub fn remove_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        self.update_planned(&self.plan(key), Update::Remove)
            .map(|_| ())
    }

    /// The batch query body: plan all, probe all in key order. Verdicts
    /// in input order, plus the summed cost.
    fn query_batch(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> (Vec<bool>, OpCost) {
        self.plan_into(keys, plans);
        let mut total = OpCost::zero();
        let hits = (0..keys.len())
            .map(|i| {
                let (hit, cost) = self.query_planned(&Row(plans, i));
                total = total.add(cost);
                hit
            })
            .collect();
        (hits, total)
    }

    /// The batch update body: plan all, apply all in key order. Per-key
    /// results in input order, plus the summed cost of the keys that were
    /// not refused.
    fn update_batch(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
        op: Update,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.plan_into(keys, plans);
        let mut total = OpCost::zero();
        let results = (0..keys.len())
            .map(|i| {
                self.update_planned(&Row(plans, i), op)
                    .map(|cost| total = total.add(cost))
            })
            .collect();
        (results, total)
    }

    /// Batched membership check (hash all → probe all, in key order).
    /// Each word is read as one atomic snapshot.
    pub fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.contains_batch_bytes_with(keys, &mut PlanBuffer::new())
    }

    /// [`Self::contains_batch_bytes`] against a caller-held [`PlanBuffer`]:
    /// reusing the buffer across batches allocates nothing after warm-up
    /// and yields bit-identical results to a fresh buffer.
    pub fn contains_batch_bytes_with(&self, keys: &[&[u8]], plans: &mut PlanBuffer) -> Vec<bool> {
        self.query_batch(keys, plans).0
    }

    /// [`Self::contains_batch_bytes_with`] that also returns the batch's
    /// summed [`OpCost`] and reports the batch to `sink` as one
    /// `(kind, ops, cost, wall nanos)` sample.
    pub fn contains_batch_metered(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
        sink: &dyn OpSink,
    ) -> (Vec<bool>, OpCost) {
        planned::metered(sink, OpKind::Query, keys.len(), || {
            self.query_batch(keys, plans)
        })
    }

    /// Batched insertion (hash all → update all, in key order). Per-key
    /// results are in input order.
    pub fn insert_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.insert_batch_bytes_with(keys, &mut PlanBuffer::new())
    }

    /// [`Self::insert_batch_bytes`] against a caller-held [`PlanBuffer`].
    pub fn insert_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> Vec<Result<(), FilterError>> {
        self.update_batch(keys, plans, Update::Insert).0
    }

    /// [`Self::insert_batch_bytes_with`] that also returns the summed cost
    /// of the accepted inserts and reports the batch to `sink`; refused
    /// inserts count toward `ops` but cost nothing.
    pub fn insert_batch_metered(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
        sink: &dyn OpSink,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        planned::metered(sink, OpKind::Insert, keys.len(), || {
            self.update_batch(keys, plans, Update::Insert)
        })
    }

    /// Batched removal (hash all → update all, in key order). Per-key
    /// results are in input order.
    pub fn remove_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.remove_batch_bytes_with(keys, &mut PlanBuffer::new())
    }

    /// [`Self::remove_batch_bytes`] against a caller-held [`PlanBuffer`].
    pub fn remove_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
    ) -> Vec<Result<(), FilterError>> {
        self.update_batch(keys, plans, Update::Remove).0
    }

    /// [`Self::remove_batch_bytes_with`] that also returns the summed cost
    /// of the completed removals and reports the batch to `sink`.
    pub fn remove_batch_metered(
        &self,
        keys: &[&[u8]],
        plans: &mut PlanBuffer,
        sink: &dyn OpSink,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        planned::metered(sink, OpKind::Remove, keys.len(), || {
            self.update_batch(keys, plans, Update::Remove)
        })
    }

    /// Batched membership for any [`mpcbf_hash::Key`] type.
    pub fn contains_batch<K: mpcbf_hash::Key>(&self, keys: &[K]) -> Vec<bool> {
        let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.contains_batch_bytes(&views)
    }

    /// Batched insertion for any [`mpcbf_hash::Key`] type.
    pub fn insert_batch<K: mpcbf_hash::Key>(&self, keys: &[K]) -> Vec<Result<(), FilterError>> {
        let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.insert_batch_bytes(&views)
    }

    /// Batched removal for any [`mpcbf_hash::Key`] type.
    pub fn remove_batch<K: mpcbf_hash::Key>(&self, keys: &[K]) -> Vec<Result<(), FilterError>> {
        let owned: Vec<_> = keys.iter().map(mpcbf_hash::Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        self.remove_batch_bytes(&views)
    }

    /// One `Acquire` load per word into a plain vector. Each word is
    /// internally consistent (a word is one atomic cell); the vector as a
    /// whole is a *point-in-time-per-word* snapshot, so seal/scrub pairs
    /// are only meaningful when the filter is quiescent — concurrent
    /// updates legitimately change CRCs.
    pub fn raw_snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect()
    }

    /// Checksums the current word array (see [`Self::raw_snapshot`] for
    /// the quiescence caveat).
    pub fn seal(&self) -> FilterSeal {
        FilterSeal::compute(self.words.iter().map(|w| w.load(Ordering::Acquire)))
    }

    /// Structural self-check: re-walks every word's hierarchy invariants
    /// against a fresh snapshot. Unlike seal/scrub this is sound even
    /// under concurrency — every legitimate CAS publishes an
    /// invariant-respecting word, so any violation is genuine damage.
    pub fn verify(&self) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        for (i, w) in self.words.iter().enumerate() {
            let word = HcbfWord::from_raw(w.load(Ordering::Acquire));
            if word.check_invariants(b1).is_err() {
                return Err(FilterError::CorruptionDetected {
                    segment: segment_of(i),
                });
            }
        }
        Ok(())
    }

    /// Compares a fresh snapshot against `seal` segment by segment and
    /// re-walks the word invariants; returns every damaged segment.
    ///
    /// # Panics
    /// Panics if `seal` was computed over a different word count.
    pub fn scrub(&self, seal: &FilterSeal) -> ScrubReport {
        let snapshot = self.raw_snapshot();
        let mut corrupt = seal.diff(snapshot.iter().copied());
        let b1 = self.shape.b1;
        for (i, &raw) in snapshot.iter().enumerate() {
            if HcbfWord::from_raw(raw).check_invariants(b1).is_err() {
                corrupt.push(segment_of(i));
            }
        }
        ScrubReport::new(seal.segments(), corrupt)
    }

    /// Fault-injection hook: atomically XORs `mask` into word `word`,
    /// simulating an in-memory bit flip for scrub drills. Never part of
    /// normal operation.
    pub fn corrupt_word_xor(&self, word: usize, mask: u64) {
        self.words[word].fetch_xor(mask, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planned::TallySink;
    use mpcbf_core::{CountingFilter, Filter, Mpcbf, MpcbfConfig};

    fn filter() -> AtomicMpcbf<Murmur3> {
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(33)
            .build()
            .unwrap();
        AtomicMpcbf::new(c)
    }

    #[test]
    fn word_storage_is_cache_line_aligned() {
        let f = filter();
        let addr = f.words.as_slice().as_ptr() as usize;
        assert_eq!(addr % mpcbf_bitvec::CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn sequential_roundtrip() {
        let f = filter();
        for i in 0..3_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..3_000u64 {
            assert!(f.contains(&i));
        }
        for i in 0..3_000u64 {
            f.remove(&i).unwrap();
        }
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn agrees_with_sequential_filter() {
        // Same config/seed ⇒ identical hashing ⇒ identical membership.
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .seed(44)
            .build()
            .unwrap();
        let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
        for i in 0..2_000u64 {
            atomic.insert(&i).unwrap();
            seq.insert(&i).unwrap();
        }
        for i in 0..1_000u64 {
            atomic.remove(&i).unwrap();
            seq.remove(&i).unwrap();
        }
        for probe in 0..50_000u64 {
            assert_eq!(
                atomic.contains(&probe),
                seq.contains(&probe),
                "divergence at {probe}"
            );
        }
    }

    #[test]
    fn batch_matches_scalar_and_sequential() {
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .seed(44)
            .build()
            .unwrap();
        let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
        let keys: Vec<u64> = (0..2_000).collect();
        for r in atomic.insert_batch(&keys) {
            r.unwrap();
        }
        for k in &keys {
            seq.insert(k).unwrap();
        }
        let removals: Vec<u64> = (1_000..3_000).collect();
        let atomic_r = atomic.remove_batch(&removals);
        let seq_r: Vec<_> = removals.iter().map(|k| seq.remove(k)).collect();
        assert_eq!(atomic_r, seq_r);
        let probes: Vec<u64> = (0..20_000).collect();
        let batched = atomic.contains_batch(&probes);
        for (k, hit) in probes.iter().zip(&batched) {
            assert_eq!(seq.contains(k), *hit, "divergence at {k}");
            assert_eq!(atomic.contains(k), *hit, "scalar/batch divergence at {k}");
        }
    }

    #[test]
    fn parallel_inserts_all_visible() {
        let f = filter();
        let threads = 8u64;
        let per = 1_000u64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move |_| {
                    for i in t * per..(t + 1) * per {
                        f.insert(&i).unwrap();
                    }
                });
            }
        })
        .unwrap();
        for i in 0..threads * per {
            assert!(f.contains(&i), "lost {i}");
        }
    }

    #[test]
    fn contended_single_word_stays_consistent() {
        // Force every thread onto the same few words by inserting the same
        // keys, then drain completely.
        let f = filter();
        let reps = 4u32; // capacity-safe: k·reps ≤ word capacity
        crossbeam::scope(|s| {
            for _ in 0..reps {
                let f = &f;
                s.spawn(move |_| {
                    f.insert(&"hot-key").unwrap();
                });
            }
        })
        .unwrap();
        assert!(f.contains(&"hot-key"));
        for _ in 0..reps {
            f.remove(&"hot-key").unwrap();
        }
        assert!(!f.contains(&"hot-key"));
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn scrub_localises_injected_damage() {
        use mpcbf_core::scrub::SEGMENT_WORDS;
        let f = filter();
        for i in 0..3_000u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.verify(), Ok(()));
        let seal = f.seal();
        assert!(f.scrub(&seal).is_clean());

        // One bit flip in word 200: exactly segment 200/64 = 3 is dirty.
        f.corrupt_word_xor(200, 1 << 11);
        let report = f.scrub(&seal);
        assert_eq!(report.corrupt_segments, vec![200 / SEGMENT_WORDS]);
        assert_eq!(report.segments_checked, seal.segments());

        // Undo restores a clean scrub.
        f.corrupt_word_xor(200, 1 << 11);
        assert!(f.scrub(&seal).is_clean());
    }

    #[test]
    fn verify_detects_invariant_breaking_flip() {
        use mpcbf_core::scrub::segment_of;
        let f = filter();
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        // A high bit with no supporting hierarchy below it breaks the
        // level-walk invariant — detectable without any seal.
        f.corrupt_word_xor(321, 1 << 63);
        assert_eq!(
            f.verify(),
            Err(FilterError::CorruptionDetected {
                segment: segment_of(321)
            })
        );
    }

    fn config(memory_bits: u64, items: u64, g: u32) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(memory_bits)
            .expected_items(items)
            .hashes(3)
            .accesses(g)
            .seed(44)
            .build()
            .unwrap()
    }

    fn byte_keys(range: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        range.map(|i| i.to_le_bytes().to_vec()).collect()
    }

    fn views(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(Vec::as_slice).collect()
    }

    /// The sequential filter's scalar `_cost` loop: the reference the
    /// metered batches must sum to (refused operations cost nothing).
    fn sequential_costs(
        seq: &mut Mpcbf<u64, Murmur3>,
        keys: &[Vec<u8>],
        op: Option<Update>,
    ) -> OpCost {
        OpCost::accumulate(keys.iter().map(|key| match op {
            None => seq.contains_bytes_cost(key).1,
            Some(Update::Insert) => seq.insert_bytes_cost(key).unwrap_or_default(),
            Some(Update::Remove) => seq.remove_bytes_cost(key).unwrap_or_default(),
        }))
    }

    #[test]
    fn metered_batches_match_sequential_costs() {
        // MPCBF-1, MPCBF-2, and a filter tiny enough that inserts overflow
        // mid-batch: refused inserts must count as ops and cost nothing.
        for c in [
            config(500_000, 5_000, 1),
            config(500_000, 5_000, 2),
            config(256, 1, 1),
        ] {
            let atomic: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
            let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
            let sink = TallySink::default();
            let mut plans = PlanBuffer::new();
            let (inserts, queries) = (byte_keys(0..1_000), byte_keys(0..5_000));
            // Removals include 100 never-inserted keys: refused and free.
            let removes = [byte_keys(0..300), byte_keys(9_000..9_100)].concat();

            let (results, cost) = atomic.insert_batch_metered(&views(&inserts), &mut plans, &sink);
            let seq_results: Vec<_> = inserts.iter().map(|k| seq.insert_bytes(k)).collect();
            assert_eq!(results, seq_results);
            let mut replay: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
            assert_eq!(
                cost,
                sequential_costs(&mut replay, &inserts, Some(Update::Insert))
            );
            assert_eq!(sink.kind(OpKind::Insert), (1_000, cost));

            let (hits, cost) = atomic.contains_batch_metered(&views(&queries), &mut plans, &sink);
            assert_eq!(cost, sequential_costs(&mut replay, &queries, None));
            assert_eq!(sink.kind(OpKind::Query), (5_000, cost));
            assert!(queries
                .iter()
                .zip(&hits)
                .all(|(k, &h)| seq.contains_bytes(k) == h));

            let (results, cost) = atomic.remove_batch_metered(&views(&removes), &mut plans, &sink);
            let seq_results: Vec<_> = removes.iter().map(|k| seq.remove_bytes(k)).collect();
            assert_eq!(results, seq_results);
            assert_eq!(
                cost,
                sequential_costs(&mut replay, &removes, Some(Update::Remove))
            );
            assert_eq!(sink.kind(OpKind::Remove), (400, cost));
            assert_eq!(atomic.raw_snapshot(), seq.raw_words());
        }
    }

    #[test]
    fn metered_batches_sum_exactly_under_concurrent_callers() {
        // MPCBF-1: each key touches one word. Thread `t` owns the keys of
        // every word `w` with `w % THREADS == t`, so each word still sees
        // one deterministic history and the shared sink must report
        // exactly the sequential filter's costs for the same keys — while
        // the four callers really overlap.
        const THREADS: usize = 4;
        let c = config(1_000_000, 10_000, 1);
        let f: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        let keys = byte_keys(0..8_000);
        let owned: Vec<Vec<Vec<u8>>> = (0..THREADS)
            .map(|t| {
                keys.iter()
                    .filter(|k| f.plan(k).words()[0] as usize % THREADS == t)
                    .cloned()
                    .collect()
            })
            .collect();
        let mut seq: Mpcbf<u64, Murmur3> = Mpcbf::new(c);
        let mut expected = [OpCost::zero(); 3];
        for mine in &owned {
            let half = &mine[..mine.len() / 2];
            expected[1] = expected[1].add(sequential_costs(&mut seq, mine, Some(Update::Insert)));
            expected[0] = expected[0].add(sequential_costs(&mut seq, mine, None));
            expected[2] = expected[2].add(sequential_costs(&mut seq, half, Some(Update::Remove)));
        }
        let sink = TallySink::default();
        crossbeam::scope(|s| {
            for mine in &owned {
                let (f, sink) = (&f, &sink);
                s.spawn(move |_| {
                    let mut plans = PlanBuffer::new();
                    for chunk in mine.chunks(64) {
                        let (results, _) = f.insert_batch_metered(&views(chunk), &mut plans, sink);
                        assert!(results.iter().all(Result::is_ok));
                    }
                    for chunk in mine.chunks(64) {
                        f.contains_batch_metered(&views(chunk), &mut plans, sink);
                    }
                    for chunk in mine[..mine.len() / 2].chunks(64) {
                        f.remove_batch_metered(&views(chunk), &mut plans, sink);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(sink.kind(OpKind::Query), (8_000, expected[0]));
        assert_eq!(sink.kind(OpKind::Insert), (8_000, expected[1]));
        let removed = owned.iter().map(|m| m.len() as u64 / 2).sum::<u64>();
        assert_eq!(sink.kind(OpKind::Remove), (removed, expected[2]));
        assert_eq!(f.raw_snapshot(), seq.raw_words());
    }

    #[test]
    fn racing_overflow_rollbacks_never_panic() {
        // Hammer one key with concurrent insert/remove pairs on a filter
        // tiny enough to overflow: an insert's rollback can race a remove
        // that drains the counter first. That must surface as a
        // CorruptionDetected error, never the old rollback panic.
        let c = MpcbfConfig::builder()
            .memory_bits(320)
            .expected_items(4)
            .hashes(2)
            .seed(7)
            .build()
            .unwrap();
        let f: AtomicMpcbf<Murmur3> = AtomicMpcbf::new(c);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let f = &f;
                s.spawn(move |_| {
                    for _ in 0..2_000 {
                        let _ = f.insert(&"hot");
                        let _ = f.remove(&"hot");
                    }
                });
            }
        })
        .unwrap();
        // However the race resolved, the filter still serves requests.
        let _ = f.contains(&"hot");
        while f.remove(&"hot").is_ok() {}
    }

    #[test]
    fn parallel_churn_drains_to_zero() {
        let f = filter();
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let f = &f;
                s.spawn(move |_| {
                    for i in 0..500u64 {
                        let k = t * 10_000 + i;
                        f.insert(&k).unwrap();
                        assert!(f.contains(&k));
                        f.remove(&k).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.total_load(), 0);
        assert_eq!(f.overflows(), 0);
    }
}
