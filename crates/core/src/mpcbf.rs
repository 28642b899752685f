//! MPCBF-1 / MPCBF-g: the Multiple-Partitioned Counting Bloom Filter
//! (§III.B.2, §III.C) — the paper's contribution.
//!
//! The counter vector is an array of `l` machine words, each an
//! [`HcbfWord`]. An element is hashed to `g` words (one hash each) and to
//! `ceil(k/g)` first-level positions inside each word, so:
//!
//! * a **query** costs `g` memory accesses and reads only first-level
//!   bits (`log2 l + k·log2 b1` hash bits);
//! * an **update** costs the same `g` accesses plus the in-word popcount
//!   traversal (no extra memory access — the word is already fetched);
//! * the hierarchy stores each counter in exactly its value's worth of
//!   bits, freeing `b1 = w − ceil(k/g)·n_max` first-level positions per
//!   word — the source of the order-of-magnitude FPR win over CBF at
//!   equal memory.
//!
//! Failed operations (word overflow, deleting an absent element) roll back
//! any partial increments, so the filter always represents a consistent
//! multiset.

use crate::config::MpcbfConfig;
use crate::hcbf::{HcbfWord, WordError};
use crate::metrics::{HealthReport, OpCost, WordTouches};
use crate::plan::{distinct_words, PlanBuffer, SMALL_BATCH};
use crate::scrub::{segment_of, FilterSeal, ScrubReport};
use crate::traits::{CountingFilter, Filter};
use crate::{split_hashes, FilterError, GROUP_SALT, WORD_SALT};
use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_bitvec::{AlignedVec, Word};
use mpcbf_hash::mix::bits_for;
use mpcbf_hash::{DoubleHasher, Hasher128, Murmur3};
use std::marker::PhantomData;

/// In-flight word walks per interleaved query block.
///
/// Eight independent lanes give the memory subsystem enough outstanding
/// loads to cover DRAM latency on out-of-cache filters without spilling
/// the lane snapshots out of registers/L1 on cache-resident ones; this is
/// the software-pipelining replacement for the retired `prefetch` feature
/// (explicit prefetch hints lost on cache-resident filters, where the
/// hint costs an instruction but saves nothing).
const LANES: usize = 8;

/// Largest `g` for which the interleaved query snapshots every lane's
/// group words up front. Beyond this, a lane's snapshot no longer fits
/// the block's register/L1 budget, so keys fall back to the sequential
/// walk (still plan-driven and allocation-free). In practice `g ≤ 4`
/// covers every configuration in the paper (g ∈ {1, 2, 4}).
const MAX_SNAP_GROUPS: usize = 4;

/// The Multiple-Partitioned Counting Bloom Filter.
///
/// Generic over the machine word `W` (default `u64`, the paper's main
/// setting) and the hash family `H` (default Murmur3).
///
/// ```
/// use mpcbf_core::{CountingFilter, Filter, Mpcbf1, MpcbfConfig};
///
/// let config = MpcbfConfig::builder()
///     .memory_bits(100_000)
///     .expected_items(1_000)
///     .hashes(3)
///     .build()
///     .unwrap();
/// let mut filter = Mpcbf1::new(config);
/// filter.insert(&(0x0A00_0001u32, 0x0A00_0002u32)).unwrap(); // a flow
/// let (hit, cost) = filter.contains_bytes_cost(&1u64.to_le_bytes());
/// assert!(cost.word_accesses == 1); // one memory access, hit or miss
/// let _ = hit;
/// ```
#[derive(Debug, Clone)]
pub struct Mpcbf<W: Word = u64, H: Hasher128 = Murmur3> {
    words: AlignedVec<HcbfWord<W>>,
    shape: MpcbfShape,
    seed: u64,
    items: u64,
    overflows: u64,
    _hasher: PhantomData<H>,
}

impl<W: Word, H: Hasher128> Mpcbf<W, H> {
    /// Creates a filter from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration's word size differs from `W::BITS`.
    pub fn new(config: MpcbfConfig) -> Self {
        let shape = config.shape();
        assert_eq!(
            shape.w,
            W::BITS,
            "config word size {} != word type width {}",
            shape.w,
            W::BITS
        );
        Mpcbf {
            words: AlignedVec::filled(shape.l as usize, HcbfWord::new()),
            shape,
            seed: config.seed(),
            items: 0,
            overflows: 0,
            _hasher: PhantomData,
        }
    }

    /// The derived structural parameters.
    pub fn shape(&self) -> MpcbfShape {
        self.shape
    }

    /// Net elements currently stored.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Number of insertions refused because a word overflowed.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Reads the counter at (`word`, first-level position `p`) — for
    /// diagnostics and tests.
    pub fn counter(&self, word: usize, p: u32) -> u32 {
        self.words[word].counter(p, self.shape.b1)
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Occupancy histogram: for each word, the total increments stored.
    /// Useful for validating the Eq.-(11) heuristic empirically.
    pub fn word_loads(&self) -> Vec<u32> {
        self.words.iter().map(|w| w.total_count()).collect()
    }

    /// Resets the filter to empty, keeping its shape and seed.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = HcbfWord::new();
        }
        self.items = 0;
        self.overflows = 0;
    }

    /// Estimates the multiplicity of `key` as the minimum of its hashed
    /// counters (the count-min reading of a CBF; an overestimate, never
    /// an underestimate, for elements inserted without overflow).
    pub fn estimate_count(&self, key: &(impl mpcbf_hash::Key + ?Sized)) -> u32 {
        let bytes = key.key_bytes();
        let b1 = self.shape.b1;
        let mut min = u32::MAX;
        self.for_each_position(bytes.as_slice(), |word, p, _| {
            min = min.min(self.words[word].counter(p, b1));
            min > 0 // short-circuit once provably absent
        });
        if min == u32::MAX {
            0
        } else {
            min
        }
    }

    /// Merges `other` into `self` by adding counters position-wise — the
    /// distributed-build pattern: shard the key space, build partial
    /// filters in parallel, merge. Both filters must share an identical
    /// shape and seed (so keys hash identically).
    ///
    /// Fails with [`FilterError::WordOverflow`] — *without modifying
    /// `self`* — if any merged word would exceed its capacity.
    pub fn absorb(&mut self, other: &Self) -> Result<(), FilterError> {
        assert_eq!(
            self.shape, other.shape,
            "cannot merge differently-shaped filters"
        );
        assert_eq!(
            self.seed, other.seed,
            "cannot merge differently-seeded filters"
        );
        let b1 = self.shape.b1;
        // Pre-check: every word must have room for the other's increments.
        for (i, (mine, theirs)) in self.words.iter().zip(&other.words).enumerate() {
            if mine.used_bits(b1) + theirs.total_count() > W::BITS {
                return Err(FilterError::WordOverflow { word: i });
            }
        }
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            for p in 0..b1 {
                for _ in 0..theirs.counter(p, b1) {
                    mine.increment(p, b1).expect("capacity pre-checked");
                }
            }
        }
        self.items += other.items;
        Ok(())
    }

    /// Visits the hashed (word, position, group) triples of `key`;
    /// `visit` returning `false` short-circuits. Returns
    /// (words evaluated, positions evaluated).
    #[inline]
    fn for_each_position(
        &self,
        key: &[u8],
        mut visit: impl FnMut(usize, u32, u32) -> bool,
    ) -> (u32, u32) {
        let digest = H::hash128(self.seed, key);
        let mut word_picker = DoubleHasher::with_salt(digest, WORD_SALT, self.shape.l);
        let mut words_eval = 0u32;
        let mut pos_eval = 0u32;
        'outer: for t in 0..self.shape.g {
            let word = word_picker.next_index();
            words_eval += 1;
            let k_t = split_hashes(self.shape.k, self.shape.g, t);
            let mut inner = DoubleHasher::with_salt(
                digest,
                GROUP_SALT ^ u64::from(t),
                u64::from(self.shape.b1),
            );
            for _ in 0..k_t {
                let p = inner.next_index() as u32;
                pos_eval += 1;
                if !visit(word, p, t) {
                    break 'outer;
                }
            }
        }
        (words_eval, pos_eval)
    }

    #[inline]
    fn base_cost(&self, words_eval: u32, pos_eval: u32, touches: &WordTouches) -> OpCost {
        OpCost {
            word_accesses: touches.count(),
            hash_bits: words_eval * bits_for(self.shape.l)
                + pos_eval * bits_for(u64::from(self.shape.b1)),
        }
    }

    /// Structural self-check: re-walks every word's hierarchy levels
    /// against the §III.B.1 invariants (bits in use ≤ word width, zero
    /// tail beyond the used region, level sizes = previous level's
    /// popcount). No sequence of filter operations can violate them, so a
    /// failure means external damage — reported as the containing
    /// [`crate::scrub::SEGMENT_WORDS`]-word segment.
    pub fn verify(&self) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        for (i, w) in self.words.iter().enumerate() {
            if w.check_invariants(b1).is_err() {
                return Err(FilterError::CorruptionDetected {
                    segment: segment_of(i),
                });
            }
        }
        Ok(())
    }

    /// Saturation snapshot: how close each word is to the overflow cliff.
    /// The `spill_*` fields are zero for a bare `Mpcbf`; see
    /// [`crate::resilient::ResilientMpcbf::health`].
    pub fn health(&self) -> HealthReport {
        let capacity = self.shape.w - self.shape.b1;
        let mut total_load = 0u64;
        let mut max_load = 0u32;
        for w in &self.words {
            let load = w.total_count();
            total_load += u64::from(load);
            max_load = max_load.max(load);
        }
        let total_capacity = self.shape.l * u64::from(capacity);
        HealthReport {
            items: self.items,
            fill_ratio: if total_capacity == 0 {
                0.0
            } else {
                total_load as f64 / total_capacity as f64
            },
            max_word_load: max_load,
            word_capacity: capacity,
            overflows: self.overflows,
            spill_keys: 0,
            spill_occupancy: 0,
            spilled_inserts: 0,
        }
    }

    /// Stage 1 of the batch pipeline: hash every key into the caller's
    /// [`PlanBuffer`] — the same word-selector and per-group streams as
    /// [`Mpcbf::for_each_position`], with zero allocation once the buffer
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

    /// Probes one planned key sequentially (the g > [`MAX_SNAP_GROUPS`]
    /// query fallback), returning `(member, words_eval, pos_eval)` with
    /// exact scalar short-circuit accounting.
    #[inline]
    fn query_planned(&self, plans: &PlanBuffer, i: usize) -> (bool, u32, u32) {
        let mut words_eval = 0u32;
        let mut pos_eval = 0u32;
        for (word, probes) in plans.groups_of(i) {
            words_eval += 1;
            let (all_set, evaluated) = self.words[word].query_all(probes);
            pos_eval += evaluated;
            if !all_set {
                return (false, words_eval, pos_eval);
            }
        }
        (true, words_eval, pos_eval)
    }
}

impl<W: Word, H: Hasher128> Filter for Mpcbf<W, H> {
    fn contains_bytes_cost(&self, key: &[u8]) -> (bool, OpCost) {
        let mut touches = WordTouches::new();
        let mut member = true;
        let (we, pe) = self.for_each_position(key, |word, p, _| {
            touches.touch(word);
            if self.words[word].query(p) {
                true
            } else {
                member = false;
                false
            }
        });
        (member, self.base_cost(we, pe, &touches))
    }

    fn insert_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut touches = WordTouches::new();
        let b1 = self.shape.b1;
        // Collect targets first (immutable pass), then apply with rollback.
        let mut targets = [(0usize, 0u32); 64];
        let mut n = 0usize;
        let (we, pe) = self.for_each_position(key, |word, p, _| {
            touches.touch(word);
            targets[n] = (word, p);
            n += 1;
            true
        });
        let mut traversal_bits = 0u32;
        for i in 0..n {
            let (word, p) = targets[i];
            match self.words[word].increment(p, b1) {
                Ok(report) => traversal_bits += report.traversal_bits,
                Err(e) => {
                    debug_assert_eq!(e, WordError::Overflow);
                    // Roll back the increments already applied.
                    for &(rw, rp) in targets[..i].iter().rev() {
                        self.words[rw]
                            .decrement(rp, b1)
                            .expect("rollback decrement must succeed");
                    }
                    self.overflows += 1;
                    return Err(e.at(word));
                }
            }
        }
        self.items += 1;
        let mut cost = self.base_cost(we, pe, &touches);
        cost.hash_bits += traversal_bits;
        Ok(cost)
    }

    fn memory_bits(&self) -> u64 {
        self.shape.l * u64::from(self.shape.w)
    }

    fn num_hashes(&self) -> u32 {
        self.shape.k
    }

    /// Batch query via the fused pipeline with a fresh plan buffer; hold
    /// a [`PlanBuffer`] and call [`Filter::contains_batch_with`] to skip
    /// the per-call allocation.
    fn contains_batch_cost(&self, keys: &[&[u8]]) -> (Vec<bool>, OpCost) {
        self.contains_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Fused batch query: hash every key into the caller's plan buffer,
    /// then walk [`LANES`] keys' word sets concurrently — each block first
    /// snapshots every lane's planned HCBF words (independent loads the
    /// CPU overlaps), then evaluates verdicts from the snapshots with the
    /// scalar evaluation order and short-circuit accounting. Batches below
    /// [`SMALL_BATCH`] degrade to the scalar loop, which is observationally
    /// identical and skips the plan stage.
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
        let g = self.shape.g as usize;
        let mut hits = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        if g <= MAX_SNAP_GROUPS {
            let mut snap = [[HcbfWord::<W>::new(); MAX_SNAP_GROUPS]; LANES];
            let mut block = 0usize;
            while block < keys.len() {
                let lanes = LANES.min(keys.len() - block);
                // Phase 1: issue every lane's word loads back to back, so
                // up to LANES * g independent fetches are in flight before
                // any verdict logic runs.
                for (lane, snap_words) in snap.iter_mut().enumerate().take(lanes) {
                    let words = plans.words_of(block + lane);
                    for (slot, &word) in snap_words.iter_mut().zip(words) {
                        *slot = self.words[word as usize];
                    }
                }
                // Phase 2: evaluate each lane from its snapshot, replaying
                // the scalar order (groups in plan order, probes in stream
                // order, short-circuit on the first zero bit).
                for (lane, snap_words) in snap.iter().enumerate().take(lanes) {
                    let i = block + lane;
                    let mut words_eval = 0u32;
                    let mut pos_eval = 0u32;
                    let mut member = true;
                    for (t, word) in snap_words.iter().enumerate().take(g) {
                        words_eval += 1;
                        let (_, probes) = plans.group(i, t);
                        let (all_set, evaluated) = word.query_all(probes);
                        pos_eval += evaluated;
                        if !all_set {
                            member = false;
                            break;
                        }
                    }
                    hits.push(member);
                    total = total.add(OpCost {
                        word_accesses: distinct_words(&plans.words_of(i)[..words_eval as usize]),
                        hash_bits: words_eval * bits_for(self.shape.l)
                            + pos_eval * bits_for(u64::from(self.shape.b1)),
                    });
                }
                block += lanes;
            }
        } else {
            for i in 0..keys.len() {
                let (member, words_eval, pos_eval) = self.query_planned(plans, i);
                hits.push(member);
                total = total.add(OpCost {
                    word_accesses: distinct_words(&plans.words_of(i)[..words_eval as usize]),
                    hash_bits: words_eval * bits_for(self.shape.l)
                        + pos_eval * bits_for(u64::from(self.shape.b1)),
                });
            }
        }
        (hits, total)
    }

    /// Batch insert via the fused pipeline with a fresh plan buffer; hold
    /// a [`PlanBuffer`] and call [`Filter::insert_batch_with`] to skip the
    /// per-call allocation.
    fn insert_batch_cost(&mut self, keys: &[&[u8]]) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.insert_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Fused batch insert: keys are applied strictly in order via
    /// [`HcbfWord::increment_all`] per group. A word overflow rolls back
    /// that key's earlier groups through the plan buffer (no allocation;
    /// the HCBF encoding is canonical in the counter multiset, so the
    /// filter is left bit-identical to never having attempted the key)
    /// and is reported per key. Batches below [`SMALL_BATCH`] degrade to
    /// the scalar loop.
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
        let b1 = self.shape.b1;
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let mut traversal_bits = 0u32;
            let mut failed: Option<(usize, WordError)> = None;
            let mut applied_groups = 0usize;
            for (word, probes) in plans.groups_of(i) {
                match self.words[word].increment_all(probes, b1) {
                    Ok(bits) => {
                        traversal_bits += bits;
                        applied_groups += 1;
                    }
                    Err(e) => {
                        debug_assert_eq!(e, WordError::Overflow);
                        failed = Some((word, e));
                        break;
                    }
                }
            }
            if let Some((word, e)) = failed {
                for t in (0..applied_groups).rev() {
                    let (rw, probes) = plans.group(i, t);
                    self.words[rw]
                        .decrement_all(probes, b1)
                        .expect("rollback decrement must succeed");
                }
                self.overflows += 1;
                results.push(Err(e.at(word)));
                continue;
            }
            self.items += 1;
            total = total.add(OpCost {
                word_accesses: distinct_words(plans.words_of(i)),
                hash_bits: self.shape.g * bits_for(self.shape.l)
                    + self.shape.k * bits_for(u64::from(self.shape.b1))
                    + traversal_bits,
            });
            results.push(Ok(()));
        }
        (results, total)
    }
}

impl<W: Word, H: Hasher128> CountingFilter for Mpcbf<W, H> {
    fn remove_bytes_cost(&mut self, key: &[u8]) -> Result<OpCost, FilterError> {
        let mut touches = WordTouches::new();
        let b1 = self.shape.b1;
        let mut targets = [(0usize, 0u32); 64];
        let mut n = 0usize;
        let (we, pe) = self.for_each_position(key, |word, p, _| {
            touches.touch(word);
            targets[n] = (word, p);
            n += 1;
            true
        });
        let mut traversal_bits = 0u32;
        for i in 0..n {
            let (word, p) = targets[i];
            match self.words[word].decrement(p, b1) {
                Ok(report) => traversal_bits += report.traversal_bits,
                Err(e) => {
                    debug_assert_eq!(e, WordError::ZeroCounter);
                    // Roll back: the element was not (fully) present.
                    for &(rw, rp) in targets[..i].iter().rev() {
                        self.words[rw]
                            .increment(rp, b1)
                            .expect("rollback increment must succeed");
                    }
                    return Err(e.at(word));
                }
            }
        }
        self.items = self.items.saturating_sub(1);
        let mut cost = self.base_cost(we, pe, &touches);
        cost.hash_bits += traversal_bits;
        Ok(cost)
    }

    /// Batch remove via the fused pipeline with a fresh plan buffer; hold
    /// a [`PlanBuffer`] and call [`CountingFilter::remove_batch_with`] to
    /// skip the per-call allocation.
    fn remove_batch_cost(&mut self, keys: &[&[u8]]) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.remove_batch_with(keys, &mut PlanBuffer::new())
    }

    /// Fused batch remove: the mirror of the batch insert — keys are
    /// drained strictly in order via [`HcbfWord::decrement_all`] per
    /// group, with a [`FilterError::NotPresent`] rolling back that key's
    /// earlier groups through the plan buffer and costing nothing, exactly
    /// like the scalar path.
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
        let b1 = self.shape.b1;
        let mut results = Vec::with_capacity(keys.len());
        let mut total = OpCost::zero();
        for i in 0..keys.len() {
            let mut traversal_bits = 0u32;
            let mut failed = false;
            let mut applied_groups = 0usize;
            for (word, probes) in plans.groups_of(i) {
                match self.words[word].decrement_all(probes, b1) {
                    Ok(bits) => {
                        traversal_bits += bits;
                        applied_groups += 1;
                    }
                    Err(e) => {
                        debug_assert_eq!(e, WordError::ZeroCounter);
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                for t in (0..applied_groups).rev() {
                    let (rw, probes) = plans.group(i, t);
                    self.words[rw]
                        .increment_all(probes, b1)
                        .expect("rollback increment must succeed");
                }
                results.push(Err(FilterError::NotPresent));
                continue;
            }
            self.items = self.items.saturating_sub(1);
            total = total.add(OpCost {
                word_accesses: distinct_words(plans.words_of(i)),
                hash_bits: self.shape.g * bits_for(self.shape.l)
                    + self.shape.k * bits_for(u64::from(self.shape.b1))
                    + traversal_bits,
            });
            results.push(Ok(()));
        }
        (results, total)
    }
}

impl<H: Hasher128> Mpcbf<u64, H> {
    /// The raw word array, copied (diagnostics and tests; 64-bit words
    /// only).
    pub fn raw_words(&self) -> Vec<u64> {
        self.raw_iter().collect()
    }

    /// The raw words read in place, for the wire codec and the seal.
    pub(crate) fn raw_iter(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.words.iter().map(|w| *w.raw())
    }

    /// Checksums the current word array for later [`Mpcbf::scrub`] passes.
    /// Re-seal after every batch of legitimate updates — any update flips
    /// its segment's CRC, exactly like a corruption would.
    pub fn seal(&self) -> FilterSeal {
        FilterSeal::compute(self.raw_iter())
    }

    /// Scrub pass: recomputes every segment CRC against `seal` *and*
    /// re-checks every word's structural invariants, reporting all damaged
    /// segments. A clean report proves the filter is bit-identical to its
    /// sealed state.
    ///
    /// # Panics
    /// Panics if `seal` was taken from a differently-sized filter.
    pub fn scrub(&self, seal: &FilterSeal) -> ScrubReport {
        let mut corrupt = seal.diff(self.raw_iter());
        let b1 = self.shape.b1;
        for (i, w) in self.words.iter().enumerate() {
            if w.check_invariants(b1).is_err() {
                corrupt.push(segment_of(i));
            }
        }
        ScrubReport::new(seal.segments(), corrupt)
    }

    /// XORs `mask` into the raw bits of word `word`.
    ///
    /// This is a fault-injection hook for corruption drills: it simulates
    /// a memory bit flip that no filter operation could produce, so
    /// [`Mpcbf::verify`]/[`Mpcbf::scrub`] drills have a real defect to
    /// find. Never part of normal operation.
    pub fn corrupt_word_xor(&mut self, word: usize, mask: u64) {
        let damaged = self.words[word].raw() ^ mask;
        self.words[word] = HcbfWord::from_raw(damaged);
    }

    /// Assembles a filter around a bulk-built word array (the
    /// `bulk::BulkBuilder` finish path — the builder stages into its own
    /// array and installs it here).
    pub(crate) fn from_bulk_parts(
        config: crate::config::MpcbfConfig,
        words: AlignedVec<HcbfWord<u64>>,
        items: u64,
        overflows: u64,
    ) -> Self {
        let shape = config.shape();
        debug_assert_eq!(words.len(), shape.l as usize);
        Mpcbf {
            words,
            shape,
            seed: config.seed(),
            items,
            overflows,
            _hasher: PhantomData,
        }
    }

    /// Rebuilds a filter from decoded raw words (the codec's decode path).
    pub(crate) fn from_raw_parts(
        config: crate::config::MpcbfConfig,
        raw: Vec<u64>,
        items: u64,
        overflows: u64,
    ) -> Self {
        let shape = config.shape();
        debug_assert_eq!(raw.len(), shape.l as usize);
        Mpcbf {
            words: AlignedVec::from_iter_exact(
                shape.l as usize,
                raw.into_iter().map(HcbfWord::from_raw),
            ),
            shape,
            seed: config.seed(),
            items,
            overflows,
            _hasher: PhantomData,
        }
    }
}

/// MPCBF-1 over 64-bit words: the paper's headline configuration.
pub type Mpcbf1 = Mpcbf<u64, Murmur3>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcbfConfig;

    fn small(g: u32) -> Mpcbf<u64> {
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .accesses(g)
            .seed(99)
            .build()
            .unwrap();
        Mpcbf::new(c)
    }

    #[test]
    fn word_storage_is_cache_line_aligned() {
        // The one-memory-access property (§III.B.2) needs every word to
        // live inside a single cache line, not straddle two.
        let f = small(1);
        let addr = f.words.as_slice().as_ptr() as usize;
        assert_eq!(addr % mpcbf_bitvec::CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn roundtrip_g1() {
        let mut f = small(1);
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..5_000u64 {
            assert!(f.contains(&i), "false negative {i}");
        }
        for i in 0..2_500u64 {
            f.remove(&i).unwrap();
        }
        for i in 2_500..5_000u64 {
            assert!(f.contains(&i), "lost {i} after churn");
        }
        assert_eq!(f.items(), 2_500);
        assert_eq!(f.overflows(), 0);
    }

    #[test]
    fn roundtrip_g2() {
        let mut f = small(2);
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..5_000u64 {
            assert!(f.contains(&i));
        }
        for i in 0..5_000u64 {
            f.remove(&i).unwrap();
        }
        assert_eq!(f.items(), 0);
        assert!(
            f.word_loads().iter().all(|&c| c == 0),
            "filter must be empty"
        );
    }

    #[test]
    fn query_is_one_access_for_g1() {
        let mut f = small(1);
        f.insert(&"x").unwrap();
        let (hit, cost) = f.contains_bytes_cost(b"x");
        assert!(hit);
        assert_eq!(cost.word_accesses, 1);
        // Bandwidth: log2(l) + k·log2(b1).
        let s = f.shape();
        let expect = mpcbf_hash::mix::bits_for(s.l) + 3 * mpcbf_hash::mix::bits_for(s.b1.into());
        assert_eq!(cost.hash_bits, expect);
    }

    #[test]
    fn query_short_circuits_for_g2() {
        let f = small(2);
        let (hit, cost) = f.contains_bytes_cost(b"missing");
        assert!(!hit);
        assert_eq!(cost.word_accesses, 1, "empty filter: first probe decides");
    }

    #[test]
    fn update_bandwidth_includes_traversal() {
        let mut f = small(1);
        // Insert the same key repeatedly: later increments must descend.
        let c1 = f.insert_bytes_cost(b"dup").unwrap();
        let c2 = f.insert_bytes_cost(b"dup").unwrap();
        assert!(
            c2.hash_bits > c1.hash_bits,
            "{} vs {}",
            c2.hash_bits,
            c1.hash_bits
        );
    }

    #[test]
    fn remove_absent_rolls_back() {
        let mut f = small(1);
        f.insert(&"present").unwrap();
        let loads_before = f.word_loads();
        assert_eq!(f.remove(&"absent"), Err(FilterError::NotPresent));
        assert_eq!(f.word_loads(), loads_before);
        assert!(f.contains(&"present"));
    }

    #[test]
    fn overflow_rolls_back_cleanly() {
        // Force overflow: tiny n_max so capacity is 3 increments per word.
        let c = MpcbfConfig::builder()
            .memory_bits(256) // l = 4 words: collisions guaranteed
            .expected_items(1000)
            .hashes(3)
            .n_max(1)
            .seed(5)
            .build()
            .unwrap();
        let mut f: Mpcbf<u64> = Mpcbf::new(c);
        let mut stored = Vec::new();
        let mut overflowed = 0;
        for i in 0..100u64 {
            match f.insert(&i) {
                Ok(()) => stored.push(i),
                Err(FilterError::WordOverflow { .. }) => overflowed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(overflowed > 0, "expected overflows with 4 tiny words");
        assert_eq!(f.overflows(), overflowed);
        // Everything that reported success must still be present.
        for i in &stored {
            assert!(f.contains(i), "lost stored element {i}");
        }
        // And the filter must still be able to drain cleanly.
        for i in &stored {
            f.remove(i).unwrap();
        }
        assert!(f.word_loads().iter().all(|&c| c == 0));
    }

    #[test]
    fn fpr_beats_cbf_at_same_memory_k3() {
        // Empirical counterpart of Fig. 7(a) at reduced scale.
        use crate::cbf::Cbf;
        let big_m = 1_000_000u64;
        let n = 25_000u64;
        let c = MpcbfConfig::builder()
            .memory_bits(big_m)
            .expected_items(n)
            .hashes(3)
            .seed(1234)
            .build()
            .unwrap();
        let mut mp: Mpcbf<u64> = Mpcbf::new(c);
        let mut cbf = Cbf::<Murmur3>::with_memory(big_m, 3, 1234);
        for i in 0..n {
            mp.insert(&i).unwrap();
            cbf.insert(&i).unwrap();
        }
        let trials = 200_000u64;
        let fp_mp = (n..n + trials).filter(|i| mp.contains(i)).count();
        let fp_cbf = (n..n + trials).filter(|i| cbf.contains(i)).count();
        assert!(
            fp_mp < fp_cbf,
            "MPCBF-1 {fp_mp} should beat CBF {fp_cbf} at k=3"
        );
    }

    #[test]
    fn g2_fpr_beats_g1() {
        let big_m = 1_000_000u64;
        let n = 25_000u64;
        let build = |g: u32| {
            let c = MpcbfConfig::builder()
                .memory_bits(big_m)
                .expected_items(n)
                .hashes(3)
                .accesses(g)
                .seed(77)
                .build()
                .unwrap();
            let mut f: Mpcbf<u64> = Mpcbf::new(c);
            for i in 0..n {
                // Eq. (11) leaves ≈1 expected word at capacity, so the
                // occasional refused insert is within spec; it must stay rare.
                let _ = f.insert(&i);
            }
            assert!(f.overflows() <= 5, "excessive overflows: {}", f.overflows());
            f
        };
        let f1 = build(1);
        let f2 = build(2);
        let trials = 300_000u64;
        let fp1 = (n..n + trials).filter(|i| f1.contains(i)).count();
        let fp2 = (n..n + trials).filter(|i| f2.contains(i)).count();
        assert!(fp2 < fp1, "MPCBF-2 {fp2} should beat MPCBF-1 {fp1}");
    }

    #[test]
    fn no_overflow_at_paper_heuristic() {
        // §IV.B: "we never observe any word overflow" with Eq. (11).
        let mut f = small(1);
        for i in 0..10_000u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.overflows(), 0);
        // Max word load stays within capacity k·n_max.
        let s = f.shape();
        let max_load = f.word_loads().into_iter().max().unwrap();
        assert!(max_load <= s.w - s.b1);
    }

    #[test]
    fn works_with_u32_words() {
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .word_bits(32)
            .seed(3)
            .build()
            .unwrap();
        let mut f: Mpcbf<u32> = Mpcbf::new(c);
        for i in 0..2_000u64 {
            f.insert(&i).unwrap();
        }
        for i in 0..2_000u64 {
            assert!(f.contains(&i));
        }
    }

    #[test]
    fn estimate_count_tracks_multiplicity() {
        let mut f = small(1);
        assert_eq!(f.estimate_count(&"x"), 0);
        for expect in 1..=5u32 {
            f.insert(&"x").unwrap();
            let est = f.estimate_count(&"x");
            assert!(est >= expect, "estimate {est} under true count {expect}");
        }
        for _ in 0..5 {
            f.remove(&"x").unwrap();
        }
        assert_eq!(f.estimate_count(&"x"), 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut f = small(1);
        for i in 0..100u64 {
            f.insert(&i).unwrap();
        }
        f.clear();
        assert_eq!(f.items(), 0);
        assert!(f.word_loads().iter().all(|&c| c == 0));
        assert!(!f.contains(&5u64));
        // Still usable after clear.
        f.insert(&5u64).unwrap();
        assert!(f.contains(&5u64));
    }

    #[test]
    fn absorb_merges_partial_filters() {
        let cfg = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(99)
            .build()
            .unwrap();
        let mut a: Mpcbf<u64> = Mpcbf::new(cfg);
        let mut b: Mpcbf<u64> = Mpcbf::new(cfg);
        let mut whole: Mpcbf<u64> = Mpcbf::new(cfg);
        for i in 0..2_000u64 {
            if i % 2 == 0 {
                a.insert(&i).unwrap();
            } else {
                b.insert(&i).unwrap();
            }
            whole.insert(&i).unwrap();
        }
        a.absorb(&b).unwrap();
        assert_eq!(a.items(), 2_000);
        // Merged filter is bit-identical in behaviour to the whole build.
        for probe in 0..50_000u64 {
            assert_eq!(a.contains(&probe), whole.contains(&probe), "probe {probe}");
        }
        // And it drains cleanly.
        for i in 0..2_000u64 {
            a.remove(&i).unwrap();
        }
        assert!(a.word_loads().iter().all(|&c| c == 0));
    }

    #[test]
    fn absorb_overflow_leaves_self_untouched() {
        let cfg = MpcbfConfig::builder()
            .memory_bits(256)
            .expected_items(100)
            .hashes(3)
            .n_max(2)
            .seed(5)
            .build()
            .unwrap();
        let mut a: Mpcbf<u64> = Mpcbf::new(cfg);
        let mut b: Mpcbf<u64> = Mpcbf::new(cfg);
        // Load both halves to near capacity so the merge must overflow.
        for i in 0..20u64 {
            let _ = a.insert(&i);
            let _ = b.insert(&(1000 + i));
        }
        let before = a.raw_words();
        match a.absorb(&b) {
            Ok(()) => {} // possible if loads landed disjointly
            Err(FilterError::WordOverflow { .. }) => {
                assert_eq!(a.raw_words(), before, "failed absorb must not mutate");
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn batch_matches_scalar_loop_for_all_ops() {
        for g in [1u32, 2] {
            let mut batch = small(g);
            let mut scalar = small(g);
            let keys: Vec<Vec<u8>> = (0..2_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

            let (_, bi) = batch.insert_batch_cost(&views);
            let mut si = OpCost::zero();
            for k in &views {
                si = si.add(scalar.insert_bytes_cost(k).unwrap());
            }
            assert_eq!(bi, si, "g={g}");
            assert_eq!(batch.raw_words(), scalar.raw_words(), "g={g}");

            let probes: Vec<Vec<u8>> = (1_000..4_000u64)
                .map(|i| i.to_le_bytes().to_vec())
                .collect();
            let probe_views: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let (bh, bq) = batch.contains_batch_cost(&probe_views);
            let mut sq = OpCost::zero();
            for (i, k) in probe_views.iter().enumerate() {
                let (hit, cost) = scalar.contains_bytes_cost(k);
                assert_eq!(hit, bh[i], "g={g} key {i}");
                sq = sq.add(cost);
            }
            assert_eq!(bq, sq, "g={g}");

            // Remove a mix of present and absent keys.
            let (br_res, br) = batch.remove_batch_cost(&probe_views);
            let mut sr = OpCost::zero();
            for (i, k) in probe_views.iter().enumerate() {
                match scalar.remove_bytes_cost(k) {
                    Ok(c) => {
                        sr = sr.add(c);
                        assert_eq!(br_res[i], Ok(()), "g={g} key {i}");
                    }
                    Err(e) => assert_eq!(br_res[i], Err(e), "g={g} key {i}"),
                }
            }
            assert_eq!(br, sr, "g={g}");
            assert_eq!(batch.raw_words(), scalar.raw_words(), "g={g}");
            assert_eq!(batch.items(), scalar.items(), "g={g}");
        }
    }

    #[test]
    fn batch_insert_overflow_matches_scalar() {
        let cfg = || {
            MpcbfConfig::builder()
                .memory_bits(256) // 4 tiny words: overflows guaranteed
                .expected_items(1000)
                .hashes(3)
                .n_max(1)
                .seed(5)
                .build()
                .unwrap()
        };
        let mut batch: Mpcbf<u64> = Mpcbf::new(cfg());
        let mut scalar: Mpcbf<u64> = Mpcbf::new(cfg());
        let keys: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let (batch_res, bi) = batch.insert_batch_cost(&views);
        let mut si = OpCost::zero();
        for (i, k) in views.iter().enumerate() {
            match scalar.insert_bytes_cost(k) {
                Ok(c) => {
                    si = si.add(c);
                    assert_eq!(batch_res[i], Ok(()), "key {i}");
                }
                Err(e) => assert_eq!(batch_res[i], Err(e), "key {i}"),
            }
        }
        assert_eq!(bi, si);
        assert_eq!(batch.raw_words(), scalar.raw_words());
        assert_eq!(batch.overflows(), scalar.overflows());
        assert_eq!(batch.items(), scalar.items());
    }

    #[test]
    #[should_panic(expected = "word type width")]
    fn word_width_mismatch_panics() {
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .word_bits(32)
            .build()
            .unwrap();
        let _f: Mpcbf<u64> = Mpcbf::new(c);
    }
}
