//! Lock-free concurrent MPCBF: shards of atomic words, with a batch-first
//! query pipeline.
//!
//! # Layout: one shard = one independent sub-filter of atomic words
//!
//! The key space is partitioned into a power-of-two pool of shards; each
//! shard owns a private cache-line-aligned array of `AtomicU64` words and
//! every element lives entirely inside one shard. Every word is one
//! [`HcbfWord`] value (the paper's property: all the state an operation
//! changes sits in the `g` words it hashes to), so no lock is needed:
//!
//! * a query loads each of its `g` words once;
//! * an update is one CAS loop per word group — load the word, run the
//!   [`HcbfWord`] codec on a local copy, compare-and-swap — with
//!   cross-group rollback if the key is refused.
//!
//! The shard stays the unit of routing, of the write-ahead log and of a
//! checkpoint. See the crate docs for the consistency model.
//!
//! # Bit-split: shard bits are disjoint from probe bits
//!
//! The 128-bit digest of a key is split into two non-overlapping fields:
//!
//! ```text
//! bit 127 ──────── bit 112 | bit 111 ───────────────────────────── bit 0
//!   shard selector (16 b)  |  probe digest (112 b)
//! ```
//!
//! * the **top [`SHARD_BITS`] bits** select the shard (masked down to the
//!   power-of-two shard count);
//! * the **low `128 − SHARD_BITS` bits** feed [`ProbePlan::partitioned`],
//!   which derives the word picker (`WORD_SALT` stream) and the per-group
//!   position streams (`GROUP_SALT` streams) exactly as the sequential
//!   filter does.
//!
//! Because the shard selector is never read by the probe streams and the
//! probe digest is never read by the selector, shard routing is
//! statistically independent of in-shard placement: conditioning on "key
//! landed in shard s" reveals nothing about which words it probes there.
//! A filter therefore places keys by different digest bits than the
//! sequential [`mpcbf_core::Mpcbf`] of the same configuration, even with
//! one shard: the two are query-equivalent in distribution, not bit for
//! bit.
//!
//! # Batch pipeline
//!
//! [`ShardedMpcbf::contains_batch_bytes_with`] and friends run the fused
//! pipeline against a caller-held [`ShardBatch`] scratch: (1) hash every
//! key into the scratch's [`PlanBuffer`] (zero allocation once warm) and
//! note its home shard, (2) probe/update each key in input order through
//! the same planned bodies the scalar entry points run. Each shard
//! therefore sees its keys in batch order, so duplicate keys in a batch
//! behave exactly like a scalar loop and the state is bit-identical to it.
//!
//! # Metering
//!
//! Every planned body returns its [`OpCost`]; the plain entry points drop
//! it. The `*_batch_metered` entry points sum it per batch and report the
//! batch to an [`OpSink`], like the sequential filters' metered batches.

use crate::planned::{self, KeyPlan, Meter, Row, Update};
use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_bitvec::AlignedVec;
use mpcbf_core::codec::{self, Sink};
use mpcbf_core::config::MpcbfConfig;
use mpcbf_core::hcbf::{HcbfWord, WordError};
use mpcbf_core::metrics::{OpCost, OpKind, OpSink};
use mpcbf_core::scrub::{FilterSeal, ScrubReport, SEGMENT_WORDS};
use mpcbf_core::{FilterError, PlanBuffer, ProbePlan};
use mpcbf_hash::mix::bits_for;
use mpcbf_hash::{Hasher128, Murmur3};
use std::io::BufRead;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable scratch for the sharded batch pipeline: the batch's probe
/// plans plus each key's home shard.
///
/// Hold one per worker thread and pass it to the `*_batch_bytes_with`
/// entry points; after the first batch at a given size, planning
/// allocates nothing. The plain `*_batch_bytes` entry points build a
/// fresh scratch per call.
#[derive(Debug, Default)]
pub struct ShardBatch {
    plans: PlanBuffer,
    /// Home shard per key (parallel to the plan buffer's keys).
    shards: Vec<u32>,
}

impl ShardBatch {
    /// An empty scratch; the first batch sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Digest bits reserved for shard selection (the top bits of the 128-bit
/// digest). The probe planner only ever sees the remaining low bits, so the
/// two fields share no entropy. Caps the shard count at `2^SHARD_BITS`.
pub const SHARD_BITS: u32 = 16;

/// Words [`ShardedMpcbf::encode_to`] copies out of a shard at a time:
/// 64 KiB, the most of a snapshot's image held in memory at once.
pub const ENCODE_CHUNK_WORDS: usize = 8192;

/// Splits a digest into (shard index under `shard_mask`, probe digest)
/// along the documented bit boundary; the live filter and the bulk
/// builder route through this one function.
#[inline]
pub(crate) fn split_digest(digest: u128, shard_mask: u64) -> (usize, u128) {
    let shard = ((digest >> (128 - SHARD_BITS)) as u64 & shard_mask) as usize;
    let probe_digest = digest & ((1u128 << (128 - SHARD_BITS)) - 1);
    (shard, probe_digest)
}

/// One word's current value. `Acquire` pairs with the `Release` half of
/// the `AcqRel` CAS in `update_word` that published it, so a thread that
/// sees a word also sees what its writer did before publishing.
#[inline]
fn load(word: &AtomicU64) -> u64 {
    word.load(Ordering::Acquire)
}

/// A thread-safe, lock-free MPCBF: a power-of-two pool of independent
/// sub-filters of `AtomicU64` words, with keys routed by a digest field
/// disjoint from the probe bits.
///
/// `W` names the word type; only `ShardedMpcbf<u64, H>` has methods, as
/// one word is one `AtomicU64`.
pub struct ShardedMpcbf<W = u64, H: Hasher128 = Murmur3> {
    shards: Vec<AlignedVec<AtomicU64>>,
    shard_mask: u64,
    words_per_shard: u64,
    shape: MpcbfShape,
    seed: u64,
    overflows: AtomicU64,
    _marker: PhantomData<(W, H)>,
}

impl<H: Hasher128> ShardedMpcbf<u64, H> {
    /// Creates a sharded filter from a validated configuration with the
    /// given shard count (rounded up to a power of two, capped at
    /// `2^SHARD_BITS` and at the word count).
    ///
    /// The configuration's `l` words are distributed evenly across the
    /// shards; each shard is an independent `ceil(l / shards)`-word
    /// sub-filter, so total capacity never falls below the `l` the
    /// validated configuration was sized for. The shard-count cap rounds
    /// *down* to a power of two (`word_cap`): rounding up would mint more
    /// shards than words, leaving shards whose sub-filter the probe
    /// planner can never fill.
    ///
    /// # Panics
    /// Panics unless the configuration uses 64-bit words.
    pub fn new(config: MpcbfConfig, shards: usize) -> Self {
        let (shard_count, words_per_shard) = Self::geometry(&config, shards);
        let shards = (0..shard_count)
            .map(|_| AlignedVec::filled(words_per_shard as usize, HcbfWord::new()))
            .collect();
        Self::from_shard_words(config, shards, 0)
    }

    /// The `(shard count, words per shard)` a configuration and a
    /// requested shard count round to (see [`ShardedMpcbf::new`]).
    ///
    /// # Panics
    /// Panics unless the configuration uses 64-bit words.
    pub(crate) fn geometry(config: &MpcbfConfig, shards: usize) -> (usize, u64) {
        let shape = config.shape();
        assert_eq!(shape.w, 64, "ShardedMpcbf requires 64-bit words");
        let l = shape.l as usize;
        let word_cap = if l.is_power_of_two() {
            l
        } else {
            (l.next_power_of_two() >> 1).max(1)
        };
        let shard_count = shards
            .next_power_of_two()
            .clamp(1, word_cap)
            .min(1 << SHARD_BITS);
        (shard_count, l.div_ceil(shard_count).max(1) as u64)
    }

    /// A filter over word arrays built elsewhere (the bulk builder's, or
    /// the codec's, which streams an image's words into them), one per
    /// shard, with `overflows` refusals already tallied. Each array
    /// becomes its shard's atomic words in place: nothing is copied.
    ///
    /// # Panics
    /// Panics unless `shards` has the count and lengths
    /// [`ShardedMpcbf::geometry`] derives for `config`.
    pub(crate) fn from_shard_words(
        config: MpcbfConfig,
        shards: Vec<AlignedVec<HcbfWord<u64>>>,
        overflows: u64,
    ) -> Self {
        let (shard_count, words_per_shard) = Self::geometry(&config, shards.len());
        assert_eq!(shards.len(), shard_count, "shard count");
        assert!(
            shards.iter().all(|s| s.len() as u64 == words_per_shard),
            "shard length"
        );
        let atomic =
            |words: AlignedVec<HcbfWord<u64>>| words.map_in_place(|w| AtomicU64::new(*w.raw()));
        ShardedMpcbf {
            shards: shards.into_iter().map(atomic).collect(),
            shard_mask: shard_count as u64 - 1,
            words_per_shard,
            shape: config.shape(),
            seed: config.seed(),
            overflows: AtomicU64::new(overflows),
            _marker: PhantomData,
        }
    }

    /// The derived structural parameters.
    pub fn shape(&self) -> MpcbfShape {
        self.shape
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Words owned by each shard (`ceil(l / shard_count)`).
    pub fn words_per_shard(&self) -> u64 {
        self.words_per_shard
    }

    /// Insertions refused due to word overflow.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Sum of all word loads (total increments stored).
    pub fn total_load(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.iter())
            .map(|w| u64::from(HcbfWord::from_raw(load(w)).total_count()))
            .sum()
    }

    /// Checksummed segments per shard (each shard is sealed and scrubbed
    /// independently; global segment index = `shard · this + local`).
    fn segments_per_shard(&self) -> usize {
        (self.words_per_shard as usize).div_ceil(SEGMENT_WORDS)
    }

    /// Lifts a shard-local error to the filter-global frame: a
    /// [`FilterError::CorruptionDetected`] raised inside shard `shard` (a
    /// rollback step that itself failed — see [`Self::update_planned`])
    /// carries a shard-local segment index; re-index it as
    /// `shard · segments_per_shard + local` so it lines up with the
    /// [`Self::verify`]/[`ShardedMpcbf::scrub`] reporting convention.
    /// Every other error passes through untouched.
    #[inline]
    fn globalize_err(&self, shard: usize, err: FilterError) -> FilterError {
        match err {
            FilterError::CorruptionDetected { segment } => FilterError::CorruptionDetected {
                segment: shard * self.segments_per_shard() + segment,
            },
            other => other,
        }
    }

    /// Structural self-check: re-walks every word's hierarchy invariants.
    /// Sound under concurrency — every CAS publishes an
    /// invariant-respecting word, so any violation is genuine damage.
    ///
    /// Damage is reported as a global segment index: shard `s`, local
    /// word `i` lands in segment `s · segments_per_shard + i / SEGMENT_WORDS`.
    pub fn verify(&self) -> Result<(), FilterError> {
        (0..self.shards.len()).try_for_each(|s| self.verify_shard(s))
    }

    /// [`ShardedMpcbf::verify`] of shard `s` alone, so shards can be
    /// checked on threads of their own.
    ///
    /// # Panics
    /// Panics if `s` is not a shard index.
    pub fn verify_shard(&self, s: usize) -> Result<(), FilterError> {
        let b1 = self.shape.b1;
        let per = self.segments_per_shard();
        for (i, w) in self.shards[s].iter().enumerate() {
            if HcbfWord::from_raw(load(w)).check_invariants(b1).is_err() {
                return Err(FilterError::CorruptionDetected {
                    segment: s * per + i / SEGMENT_WORDS,
                });
            }
        }
        Ok(())
    }

    /// Splits a digest into (shard index, probe digest) along the
    /// documented bit boundary.
    #[inline]
    fn split_digest(&self, digest: u128) -> (usize, u128) {
        split_digest(digest, self.shard_mask)
    }

    /// Hashes `key` and plans its probes inside its home shard.
    #[inline]
    fn plan(&self, key: &[u8]) -> (usize, ProbePlan) {
        let (shard, probe_digest) = self.split_digest(H::hash128(self.seed, key));
        let plan = ProbePlan::partitioned(
            probe_digest,
            self.words_per_shard,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        );
        (shard, plan)
    }

    /// The cost model of one operation inside a shard: the shard selector
    /// ([`SHARD_BITS`]) stands in for the extra address entropy this
    /// layout consumes, then the sequential filter's accounting over a
    /// `words_per_shard`-word sub-filter.
    #[inline]
    fn meter(&self) -> Meter {
        Meter {
            route_bits: SHARD_BITS,
            word_bits: bits_for(self.words_per_shard),
            pos_bits: bits_for(u64::from(self.shape.b1)),
            probes: self.shape.k,
        }
    }

    /// Queries one planned key against its shard's words: one load per
    /// group's word, short-circuiting at the first zero.
    #[inline]
    fn query_planned(&self, words: &[AtomicU64], plan: &impl KeyPlan) -> (bool, OpCost) {
        planned::query(plan, self.meter(), |word, probes| {
            HcbfWord::from_raw(load(&words[word])).query_all(probes)
        })
    }

    /// CAS loop applying `op` to one word. Returns what `op` returned on
    /// the attempt that published, or `Err` if `op` reports an error on
    /// the *current* value (no retry — the error is a property of the
    /// state, e.g. overflow).
    #[inline]
    fn update_word<T>(
        cell: &AtomicU64,
        mut op: impl FnMut(&mut HcbfWord<u64>) -> Result<T, WordError>,
    ) -> Result<T, WordError> {
        let mut current = load(cell);
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

    /// Applies `op` to one planned key in its shard's words: one CAS per
    /// *group* (the whole group's walks land word-atomically), rolling
    /// back every applied group if the key is refused. Traversal bits
    /// come from the CAS attempt that published.
    ///
    /// A rollback step can fail when another writer races this key (a
    /// concurrent remove drains the counter first), or on damage. The
    /// key's state is then indeterminate: reported as
    /// `CorruptionDetected` with a *shard-local* segment (see
    /// [`Self::settle`]), never a panic a remote caller could trigger.
    #[inline]
    fn update_planned(
        &self,
        words: &[AtomicU64],
        plan: &impl KeyPlan,
        op: Update,
    ) -> Result<OpCost, FilterError> {
        let b1 = self.shape.b1;
        planned::update(plan, op, self.meter(), |word, probes, op| {
            Self::update_word(&words[word], |w| op.walk(w, probes, b1))
        })
    }

    /// Books one finished update of a key homed in `shard`: an overflow
    /// refusal bumps the overflow tally, and a shard-local corruption
    /// report is lifted to the global frame.
    #[inline]
    fn settle(
        &self,
        shard: usize,
        result: Result<OpCost, FilterError>,
    ) -> Result<OpCost, FilterError> {
        if matches!(result, Err(FilterError::WordOverflow { .. })) {
            self.overflows.fetch_add(1, Ordering::Relaxed);
        }
        result.map_err(|e| self.globalize_err(shard, e))
    }

    /// Scalar update body: plan, apply in the home shard.
    fn update_key(&self, key: &[u8], op: Update) -> Result<OpCost, FilterError> {
        let (shard, plan) = self.plan(key);
        let result = self.update_planned(&self.shards[shard], &plan, op);
        self.settle(shard, result)
    }

    /// Membership check.
    pub fn contains<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> bool {
        self.contains_bytes(key.key_bytes().as_slice())
    }

    /// Membership check on raw bytes: `g` word loads.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        let (shard, plan) = self.plan(key);
        self.query_planned(&self.shards[shard], &plan).0
    }

    /// Inserts a key.
    pub fn insert<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.insert_bytes(key.key_bytes().as_slice())
    }

    /// Inserts raw bytes, rolling back on overflow.
    pub fn insert_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        self.update_key(key, Update::Insert).map(|_| ())
    }

    /// Removes a key.
    pub fn remove<K: mpcbf_hash::Key + ?Sized>(&self, key: &K) -> Result<(), FilterError> {
        self.remove_bytes(key.key_bytes().as_slice())
    }

    /// Removes raw bytes, rolling back if absent.
    pub fn remove_bytes(&self, key: &[u8]) -> Result<(), FilterError> {
        self.update_key(key, Update::Remove).map(|_| ())
    }

    /// Plans a whole batch into the caller's scratch: probe plans in the
    /// [`PlanBuffer`], home shards in a side vector. Zero allocation once
    /// the scratch is warm.
    fn plan_batch_into(&self, keys: &[&[u8]], scratch: &mut ShardBatch) {
        let ShardBatch { plans, shards } = scratch;
        shards.clear();
        shards.reserve(keys.len());
        plans.plan_partitioned(
            keys.iter().map(|key| {
                let (shard, probe_digest) = self.split_digest(H::hash128(self.seed, key));
                shards.push(shard as u32);
                probe_digest
            }),
            self.words_per_shard,
            self.shape.k,
            self.shape.g,
            u64::from(self.shape.b1),
        );
    }

    /// The batch query body: plan every key, then probe each in input
    /// order. Verdicts in input order, plus the summed cost.
    fn query_batch(&self, keys: &[&[u8]], scratch: &mut ShardBatch) -> (Vec<bool>, OpCost) {
        self.plan_batch_into(keys, scratch);
        let mut total = OpCost::zero();
        let hits = scratch
            .shards
            .iter()
            .enumerate()
            .map(|(i, &shard)| {
                let words = &self.shards[shard as usize];
                let (hit, cost) = self.query_planned(words, &Row(&scratch.plans, i));
                total = total.add(cost);
                hit
            })
            .collect();
        (hits, total)
    }

    /// The batch update body: plan every key, then apply each in input
    /// order, so duplicates behave exactly as a scalar loop would.
    /// Per-key results in input order, plus the summed cost of the keys
    /// that were not refused.
    fn update_batch(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
        op: Update,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        self.plan_batch_into(keys, scratch);
        let mut total = OpCost::zero();
        let results = scratch
            .shards
            .iter()
            .enumerate()
            .map(|(i, &shard)| {
                let shard = shard as usize;
                let result = self.update_planned(&self.shards[shard], &Row(&scratch.plans, i), op);
                self.settle(shard, result)
                    .map(|cost| total = total.add(cost))
            })
            .collect();
        (results, total)
    }

    /// Batched membership check: hashes all keys, then probes them in
    /// input order. Results are in input order.
    pub fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        self.contains_batch_bytes_with(keys, &mut ShardBatch::new())
    }

    /// [`Self::contains_batch_bytes`] against a caller-held scratch:
    /// reusing `scratch` across batches allocates nothing after warm-up
    /// and yields bit-identical results to a fresh scratch.
    pub fn contains_batch_bytes_with(&self, keys: &[&[u8]], scratch: &mut ShardBatch) -> Vec<bool> {
        self.query_batch(keys, scratch).0
    }

    /// [`Self::contains_batch_bytes_with`] that also returns the batch's
    /// summed [`OpCost`] and reports the batch to `sink` as one
    /// `(kind, ops, cost, wall nanos)` sample.
    pub fn contains_batch_metered(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
        sink: &dyn OpSink,
    ) -> (Vec<bool>, OpCost) {
        planned::metered(sink, OpKind::Query, keys.len(), || {
            self.query_batch(keys, scratch)
        })
    }

    /// Batched insertion: keys are applied in batch order, so duplicates
    /// behave exactly as a scalar loop would. Per-key results are in
    /// input order.
    pub fn insert_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.insert_batch_bytes_with(keys, &mut ShardBatch::new())
    }

    /// [`Self::insert_batch_bytes`] against a caller-held scratch.
    pub fn insert_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
    ) -> Vec<Result<(), FilterError>> {
        self.update_batch(keys, scratch, Update::Insert).0
    }

    /// [`Self::insert_batch_bytes_with`] that also returns the summed cost
    /// of the accepted inserts and reports the batch to `sink`; refused
    /// inserts count toward `ops` but cost nothing.
    pub fn insert_batch_metered(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
        sink: &dyn OpSink,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        planned::metered(sink, OpKind::Insert, keys.len(), || {
            self.update_batch(keys, scratch, Update::Insert)
        })
    }

    /// Batched removal: mirror of [`Self::insert_batch_bytes`].
    pub fn remove_batch_bytes(&self, keys: &[&[u8]]) -> Vec<Result<(), FilterError>> {
        self.remove_batch_bytes_with(keys, &mut ShardBatch::new())
    }

    /// [`Self::remove_batch_bytes`] against a caller-held scratch.
    pub fn remove_batch_bytes_with(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
    ) -> Vec<Result<(), FilterError>> {
        self.update_batch(keys, scratch, Update::Remove).0
    }

    /// [`Self::remove_batch_bytes_with`] that also returns the summed cost
    /// of the completed removals and reports the batch to `sink`.
    pub fn remove_batch_metered(
        &self,
        keys: &[&[u8]],
        scratch: &mut ShardBatch,
        sink: &dyn OpSink,
    ) -> (Vec<Result<(), FilterError>>, OpCost) {
        planned::metered(sink, OpKind::Remove, keys.len(), || {
            self.update_batch(keys, scratch, Update::Remove)
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

    /// The raw word array of one shard (diagnostics and fault drills).
    pub fn shard_raw_words(&self, shard: usize) -> Vec<u64> {
        self.shards[shard].iter().map(load).collect()
    }

    /// Seal: checksums every shard's word array. Returns one
    /// [`FilterSeal`] per shard.
    ///
    /// Like the sequential seal, any legitimate update after sealing
    /// flips its segment's CRC, so seal/scrub pairs are meaningful on
    /// quiescent (or per-shard-quiesced) filters — re-seal after updates.
    pub fn seal(&self) -> Vec<FilterSeal> {
        self.shards
            .iter()
            .map(|shard| FilterSeal::compute(shard.iter().map(load)))
            .collect()
    }

    /// Scrub: per shard, recomputes the segment CRCs against that shard's
    /// seal and re-walks the word invariants. Damage is reported with
    /// global segment indices (see [`ShardedMpcbf::verify`]).
    ///
    /// # Panics
    /// Panics if `seals` was not produced by [`ShardedMpcbf::seal`] on an
    /// identically-shaped filter.
    pub fn scrub(&self, seals: &[FilterSeal]) -> ScrubReport {
        assert_eq!(
            seals.len(),
            self.shards.len(),
            "seal covers {} shards, filter has {}",
            seals.len(),
            self.shards.len()
        );
        let b1 = self.shape.b1;
        let per = self.segments_per_shard();
        let mut corrupt = Vec::new();
        let mut checked = 0usize;
        for (s, (shard, seal)) in self.shards.iter().zip(seals).enumerate() {
            let damaged = seal.diff(shard.iter().map(load));
            corrupt.extend(damaged.into_iter().map(|seg| s * per + seg));
            for (i, w) in shard.iter().enumerate() {
                if HcbfWord::from_raw(load(w)).check_invariants(b1).is_err() {
                    corrupt.push(s * per + i / SEGMENT_WORDS);
                }
            }
            checked += seal.segments();
        }
        ScrubReport::new(checked, corrupt)
    }

    /// Fault-injection hook: atomically XORs `mask` into word `word` of
    /// shard `shard`, simulating an in-memory bit flip for scrub drills.
    /// Never part of normal operation.
    pub fn corrupt_word_xor(&self, shard: usize, word: usize, mask: u64) {
        self.shards[shard][word].fetch_xor(mask, Ordering::AcqRel);
    }

    /// The shard this key routes to (the top [`SHARD_BITS`] of its
    /// digest, masked to the shard count). The durability layer uses
    /// this to append each operation to its home shard's WAL.
    pub fn home_shard(&self, key: &[u8]) -> usize {
        self.split_digest(H::hash128(self.seed, key)).0
    }

    /// Encodes the whole sharded filter into the portable wire format
    /// (kind [`codec::KIND_SHARDED64`]): shape header, shard geometry,
    /// then each shard's word array in shard order.
    ///
    /// The image is a consistent point in time only if no writer runs
    /// during the encode: the words are read one at a time, so a
    /// concurrent update can land mid-shard and tear it. Callers quiesce
    /// writers first: the durability layer's checkpoints run with every
    /// shard's writer parked, and a bulk-built filter is encoded before
    /// anyone else holds it.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_to(Vec::with_capacity(64))
    }

    /// [`ShardedMpcbf::encode`] streamed into any [`Sink`]. Each shard's
    /// words are loaded [`ENCODE_CHUNK_WORDS`] at a time (64 KiB) into one
    /// reused chunk buffer that is checksummed and written, so the stream
    /// holds 64 KiB of the image whatever the shard size, and readers and
    /// writers never wait for it. A measuring sink copies nothing.
    /// Writers must be quiesced for a consistent image (see
    /// [`ShardedMpcbf::encode`]).
    pub fn encode_to<S: Sink>(&self, sink: S) -> S {
        let shape = self.shape;
        let mut w = codec::Writer::framed(sink, codec::KIND_SHARDED64);
        w.u64(shape.l);
        w.u32(shape.k);
        w.u32(shape.g);
        w.u32(shape.n_max);
        w.u64(self.seed);
        w.u32(self.shards.len() as u32);
        w.u64(self.words_per_shard);
        w.u64(self.overflows());
        // Every limb plus the CRC trailer.
        w.reserve(self.shards.len() * self.words_per_shard as usize * 8 + 4);
        let words = self.words_per_shard as usize;
        let mut chunk = vec![0u8; words.min(ENCODE_CHUNK_WORDS) * 8];
        for shard in &self.shards {
            if w.measure(words as u64 * 8) {
                continue;
            }
            for piece in shard.chunks(ENCODE_CHUNK_WORDS) {
                let out = &mut chunk[..piece.len() * 8];
                for (slot, word) in out.chunks_exact_mut(8).zip(piece) {
                    slot.copy_from_slice(&load(word).to_le_bytes());
                }
                w.bytes(out);
            }
        }
        w.finish()
    }

    /// Decodes a filter previously produced by [`ShardedMpcbf::encode`],
    /// revalidating the shard geometry and every word's hierarchy
    /// invariant — malformed images error, never panic.
    pub fn decode(buf: &[u8]) -> Result<Self, codec::CodecError> {
        codec::decode_framed(buf, codec::KIND_SHARDED64, Self::read_body)
    }

    /// [`ShardedMpcbf::decode`] of a `len`-byte image streamed from
    /// `src` (a snapshot file): each shard's words are read, checksummed,
    /// checked and written straight into that shard's array (on two
    /// threads for a shard of at least 1 MiB, see
    /// [`codec::Reader::hcbf_words`]), so the load holds one copy of the
    /// filter.
    pub fn read_from(src: &mut dyn BufRead, len: u64) -> codec::Framed<Self> {
        codec::read_framed(src, len, codec::KIND_SHARDED64, Self::read_body)
    }

    fn read_body(r: &mut codec::Reader<'_>) -> Result<Self, codec::CodecError> {
        use codec::CodecError;
        let l = r.u64()?;
        let k = r.u32()?;
        let g = r.u32()?;
        let n_max = r.u32()?;
        let seed = r.u64()?;
        let shard_count = r.u32()? as usize;
        let words_per_shard = r.u64()?;
        let overflows = r.u64()?;
        if !(2..=(1u64 << 40)).contains(&l) {
            return Err(CodecError::BadHeader("word count"));
        }
        if shard_count == 0 || !shard_count.is_power_of_two() {
            return Err(CodecError::BadHeader("shard count"));
        }
        let config = MpcbfConfig::builder()
            .memory_bits(l * 64)
            .expected_items(1)
            .hashes(k)
            .accesses(g)
            .n_max(n_max)
            .seed(seed)
            .build()
            .map_err(|_| CodecError::BadHeader("shape"))?;
        // The geometry `new` would derive from (l, shard_count); a stored
        // geometry it disagrees with means the header is inconsistent.
        if Self::geometry(&config, shard_count) != (shard_count, words_per_shard) {
            return Err(CodecError::BadHeader("shard geometry"));
        }
        let b1 = config.shape().b1;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(r.hcbf_words(words_per_shard as usize, b1)?);
        }
        Ok(Self::from_shard_words(config, shards, overflows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planned::TallySink;
    use mpcbf_core::MpcbfConfig;

    fn filter() -> ShardedMpcbf<u64> {
        let c = MpcbfConfig::builder()
            .memory_bits(1_000_000)
            .expected_items(10_000)
            .hashes(3)
            .seed(21)
            .build()
            .unwrap();
        ShardedMpcbf::new(c, 64)
    }

    #[test]
    fn every_shard_storage_is_cache_line_aligned() {
        let f = filter();
        for shard in &f.shards {
            let addr = shard.as_slice().as_ptr() as usize;
            assert_eq!(addr % mpcbf_bitvec::CACHE_LINE_BYTES, 0);
        }
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
    fn shard_routing_uses_disjoint_bits() {
        // Two digests that differ only in the shard field must produce
        // identical probe plans; two that differ only in the probe field
        // must land in the same shard.
        let f = filter();
        let base: u128 = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
        // Flip the lowest shard-field bit (bit 112) so it survives the
        // power-of-two shard mask.
        let shard_flip = base ^ (1u128 << (128 - SHARD_BITS));
        let probe_flip = base ^ 1u128;
        let (s0, p0) = f.split_digest(base);
        let (s1, p1) = f.split_digest(shard_flip);
        let (s2, p2) = f.split_digest(probe_flip);
        assert_ne!(s0, s1, "flipping a shard bit must change the shard");
        assert_eq!(p0, p1, "shard bits must not leak into the probe digest");
        assert_eq!(s0, s2, "probe bits must not leak into the shard index");
        assert_ne!(p0, p2);
    }

    #[test]
    fn batch_matches_scalar_loop() {
        let scalar = filter();
        let batch = filter();
        let keys: Vec<u64> = (0..2_000).collect();
        for k in &keys {
            scalar.insert(k).unwrap();
        }
        let results = batch.insert_batch(&keys);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(scalar.total_load(), batch.total_load());

        let probes: Vec<u64> = (1_000..5_000).collect();
        let batched = batch.contains_batch(&probes);
        for (k, hit) in probes.iter().zip(&batched) {
            assert_eq!(scalar.contains(k), *hit, "divergence at {k}");
        }

        let removals: Vec<u64> = (500..2_500).collect();
        let scalar_r: Vec<_> = removals.iter().map(|k| scalar.remove(k)).collect();
        let batch_r = batch.remove_batch(&removals);
        assert_eq!(scalar_r, batch_r);
        assert_eq!(scalar.total_load(), batch.total_load());
    }

    #[test]
    fn duplicate_keys_in_one_batch_behave_like_scalar() {
        let scalar = filter();
        let batch = filter();
        let keys: Vec<u64> = vec![7, 7, 7, 42, 7, 42];
        for k in &keys {
            scalar.insert(k).unwrap();
        }
        batch.insert_batch(&keys);
        assert_eq!(scalar.total_load(), batch.total_load());
        // Remove one more 7 than was inserted: the extra must fail in both.
        let removals: Vec<u64> = vec![7, 7, 7, 7, 7];
        let scalar_r: Vec<_> = removals.iter().map(|k| scalar.remove(k)).collect();
        let batch_r = batch.remove_batch(&removals);
        assert_eq!(scalar_r, batch_r);
        assert_eq!(batch_r[4], Err(FilterError::NotPresent));
    }

    #[test]
    fn parallel_inserts_are_all_visible() {
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
        assert_eq!(f.overflows(), 0);
    }

    #[test]
    fn parallel_batch_inserts_are_all_visible() {
        let f = filter();
        let threads = 4u64;
        let per = 1_000u64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let f = &f;
                s.spawn(move |_| {
                    let keys: Vec<u64> = (t * per..(t + 1) * per).collect();
                    for r in f.insert_batch(&keys) {
                        r.unwrap();
                    }
                });
            }
        })
        .unwrap();
        let keys: Vec<u64> = (0..threads * per).collect();
        for (k, hit) in keys.iter().zip(f.contains_batch(&keys)) {
            assert!(hit, "lost {k}");
        }
    }

    #[test]
    fn parallel_insert_then_parallel_remove_drains() {
        let f = filter();
        let keys: Vec<u64> = (0..8_000).collect();
        crossbeam::scope(|s| {
            for chunk in keys.chunks(1_000) {
                let f = &f;
                s.spawn(move |_| {
                    for k in chunk {
                        f.insert(k).unwrap();
                    }
                });
            }
        })
        .unwrap();
        crossbeam::scope(|s| {
            for chunk in keys.chunks(1_000) {
                let f = &f;
                s.spawn(move |_| {
                    for k in chunk {
                        f.remove(k).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn mixed_readers_and_writers_dont_lose_elements() {
        let f = filter();
        let stable: Vec<u64> = (0..2_000).collect();
        for k in &stable {
            f.insert(k).unwrap();
        }
        crossbeam::scope(|s| {
            // Writers churn a disjoint key range, in batches.
            for t in 0..4u64 {
                let f = &f;
                s.spawn(move |_| {
                    for i in 0..50u64 {
                        let keys: Vec<u64> = (0..10)
                            .map(|j| 1_000_000 + t * 1_000 + i * 10 + j)
                            .collect();
                        for r in f.insert_batch(&keys) {
                            r.unwrap();
                        }
                        for r in f.remove_batch(&keys) {
                            r.unwrap();
                        }
                    }
                });
            }
            // Readers continuously verify the stable set.
            for _ in 0..4 {
                let f = &f;
                let stable = &stable;
                s.spawn(move |_| {
                    for _ in 0..5 {
                        for hit in f.contains_batch(stable) {
                            assert!(hit, "stable key lost");
                        }
                    }
                });
            }
        })
        .unwrap();
    }

    #[test]
    fn epoch_scrub_localises_injected_damage() {
        let f = filter();
        for i in 0..3_000u64 {
            f.insert(&i).unwrap();
        }
        assert_eq!(f.verify(), Ok(()));
        let seals = f.seal();
        assert_eq!(seals.len(), f.shard_count());
        assert!(f.scrub(&seals).is_clean());

        // Flip one bit in shard 5, word 3: exactly one global segment dirty.
        f.corrupt_word_xor(5, 3, 1 << 20);
        let report = f.scrub(&seals);
        let per = seals[0].segments();
        assert_eq!(report.corrupt_segments, vec![5 * per]);
        assert_eq!(report.segments_checked, per * f.shard_count());

        // Undo: clean again; damage in two shards reports both segments.
        f.corrupt_word_xor(5, 3, 1 << 20);
        assert!(f.scrub(&seals).is_clean());
        f.corrupt_word_xor(0, 0, 1);
        f.corrupt_word_xor(9, 1, 1 << 40);
        let report = f.scrub(&seals);
        assert_eq!(report.corrupt_segments, vec![0, 9 * per]);
    }

    #[test]
    fn verify_detects_invariant_breaking_flip() {
        let f = filter();
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        // Setting a high bit with no supporting hierarchy below it breaks
        // the level-walk invariant in shard 2's word 0.
        f.corrupt_word_xor(2, 0, 1 << 63);
        let per = (f.shard_raw_words(0).len()).div_ceil(SEGMENT_WORDS);
        assert_eq!(
            f.verify(),
            Err(FilterError::CorruptionDetected { segment: 2 * per })
        );
    }

    #[test]
    fn shard_cap_never_mints_more_shards_than_words() {
        // Regression: with l = 5 words, a request for 8 shards used to
        // round the word-count cap *up* (next_power_of_two(5) = 8) and
        // mint 8 shards for 5 words. The cap must round down, so the
        // shard count never exceeds the configured word count — while
        // each shard still gets `ceil(l / shards)` words, keeping total
        // capacity at or above the validated `l`.
        let c = MpcbfConfig::builder()
            .memory_bits(320) // l = 5 words of 64 bits
            .expected_items(4)
            .hashes(2)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(c.shape().l, 5, "test premise: non-power-of-two l");
        let f: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 8);
        assert!(
            f.shard_count() as u64 <= 5,
            "{} shards minted for 5 words",
            f.shard_count()
        );
        assert!(
            f.shard_count() as u64 * f.words_per_shard() >= 5,
            "{} shards × {} words falls below the configured 5",
            f.shard_count(),
            f.words_per_shard()
        );
        // Still a working filter at this degenerate size.
        f.insert(&"x").unwrap();
        assert!(f.contains(&"x"));
        f.remove(&"x").unwrap();
        assert_eq!(f.total_load(), 0);
    }

    /// The scalar path's cost for each key in turn on `f`: the reference
    /// the metered batches must sum to.
    fn scalar_costs(f: &ShardedMpcbf<u64>, keys: &[Vec<u8>], op: Option<Update>) -> OpCost {
        OpCost::accumulate(keys.iter().map(|key| match op {
            None => {
                let (shard, plan) = f.plan(key);
                f.query_planned(&f.shards[shard], &plan).1
            }
            Some(op) => f.update_key(key, op).unwrap_or_default(),
        }))
    }

    fn byte_keys(range: std::ops::Range<u64>) -> Vec<Vec<u8>> {
        range.map(|i| i.to_le_bytes().to_vec()).collect()
    }

    fn views(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn metered_batches_report_the_scalar_costs() {
        let scalar = filter();
        let batch = filter();
        let sink = TallySink::default();
        let mut scratch = ShardBatch::new();
        let inserts = byte_keys(0..2_000);
        let queries = byte_keys(1_000..4_000);
        // 100 removals of never-inserted keys: refused, counted, free.
        let removes = [byte_keys(0..600), byte_keys(9_000..9_100)].concat();
        let insert_cost = scalar_costs(&scalar, &inserts, Some(Update::Insert));
        let query_cost = scalar_costs(&scalar, &queries, None);
        let remove_cost = scalar_costs(&scalar, &removes, Some(Update::Remove));

        let (results, cost) = batch.insert_batch_metered(&views(&inserts), &mut scratch, &sink);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(cost, insert_cost);
        let (hits, cost) = batch.contains_batch_metered(&views(&queries), &mut scratch, &sink);
        assert_eq!(cost, query_cost);
        assert_eq!(hits, batch.contains_batch_bytes(&views(&queries)));
        let (results, cost) = batch.remove_batch_metered(&views(&removes), &mut scratch, &sink);
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 100);
        assert_eq!(cost, remove_cost);

        assert_eq!(sink.kind(OpKind::Insert), (2_000, insert_cost));
        assert_eq!(sink.kind(OpKind::Query), (3_000, query_cost));
        assert_eq!(sink.kind(OpKind::Remove), (700, remove_cost));
        // MPCBF-1: one word per update, routing bits on every op.
        assert_eq!(insert_cost.word_accesses, 2_000);
        assert!(insert_cost.hash_bits > 2_000 * SHARD_BITS);
        for s in 0..scalar.shard_count() {
            assert_eq!(scalar.shard_raw_words(s), batch.shard_raw_words(s));
        }
    }

    #[test]
    fn metered_batches_sum_exactly_under_concurrent_callers() {
        // Each thread owns the keys of every shard `s` with `s % THREADS
        // == t`, so every shard still sees one deterministic history and
        // the shared sink's totals must equal a single-threaded scalar run
        // of the same keys — while the four callers really overlap.
        const THREADS: usize = 4;
        let f = filter();
        let twin = filter();
        let keys = byte_keys(0..8_000);
        let owned: Vec<Vec<Vec<u8>>> = (0..THREADS)
            .map(|t| {
                keys.iter()
                    .filter(|k| f.home_shard(k) % THREADS == t)
                    .cloned()
                    .collect()
            })
            .collect();
        let mut expected = [OpCost::zero(); 3];
        for mine in &owned {
            expected[1] = expected[1].add(scalar_costs(&twin, mine, Some(Update::Insert)));
            expected[0] = expected[0].add(scalar_costs(&twin, mine, None));
            let half = &mine[..mine.len() / 2];
            expected[2] = expected[2].add(scalar_costs(&twin, half, Some(Update::Remove)));
        }
        let sink = TallySink::default();
        crossbeam::scope(|s| {
            for mine in &owned {
                let (f, sink) = (&f, &sink);
                s.spawn(move |_| {
                    let mut scratch = ShardBatch::new();
                    for chunk in mine.chunks(64) {
                        let (results, _) =
                            f.insert_batch_metered(&views(chunk), &mut scratch, sink);
                        assert!(results.iter().all(Result::is_ok));
                    }
                    for chunk in mine.chunks(64) {
                        f.contains_batch_metered(&views(chunk), &mut scratch, sink);
                    }
                    for chunk in mine[..mine.len() / 2].chunks(64) {
                        f.remove_batch_metered(&views(chunk), &mut scratch, sink);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(sink.kind(OpKind::Query), (8_000, expected[0]));
        assert_eq!(sink.kind(OpKind::Insert), (8_000, expected[1]));
        let removed = owned.iter().map(|m| m.len() as u64 / 2).sum::<u64>();
        assert_eq!(sink.kind(OpKind::Remove), (removed, expected[2]));
        assert_eq!(f.total_load(), twin.total_load());
    }

    #[test]
    fn corruption_errors_carry_global_segment_indices() {
        // A failed rollback surfaces as CorruptionDetected with a
        // shard-local segment; the entry points must re-index it into the
        // verify()/scrub() global frame, and leave other errors alone.
        let f = filter();
        let per = f.segments_per_shard();
        assert_eq!(
            f.globalize_err(5, FilterError::CorruptionDetected { segment: 2 }),
            FilterError::CorruptionDetected {
                segment: 5 * per + 2
            }
        );
        assert_eq!(
            f.globalize_err(5, FilterError::WordOverflow { word: 7 }),
            FilterError::WordOverflow { word: 7 }
        );
        assert_eq!(
            f.globalize_err(5, FilterError::NotPresent),
            FilterError::NotPresent
        );
    }

    #[test]
    fn saturating_batches_refuse_without_bricking_the_shard() {
        // Drive a tiny filter far past capacity with duplicate-heavy
        // batches: every refusal must be a WordOverflow error (and only
        // those may bump the overflow counter), and the filter must keep
        // serving.
        let c = MpcbfConfig::builder()
            .memory_bits(320)
            .expected_items(4)
            .hashes(2)
            .seed(7)
            .build()
            .unwrap();
        let f: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 4);
        let keys: Vec<u64> = (0..64).map(|i| i % 4).collect();
        let mut refused = 0u64;
        for _ in 0..8 {
            for r in f.insert_batch(&keys) {
                if let Err(e) = r {
                    assert!(matches!(e, FilterError::WordOverflow { .. }), "{e:?}");
                    refused += 1;
                }
            }
        }
        assert!(refused > 0, "test premise: the filter must saturate");
        assert_eq!(f.overflows(), refused);
        assert!(f.contains(&0u64));
        while f.remove(&0u64).is_ok() {}
        assert_eq!(f.verify(), Ok(()));
    }

    #[test]
    fn remove_absent_is_clean_under_contention() {
        let f = filter();
        f.insert(&"present").unwrap();
        assert_eq!(f.remove(&"absent"), Err(FilterError::NotPresent));
        assert!(f.contains(&"present"));
    }

    #[test]
    fn a_contended_hot_key_drains_to_zero() {
        // Four threads insert and then remove the same key, over and over:
        // every CAS on its one word races the others, and no update may
        // be lost.
        let f = filter();
        let start = std::sync::Barrier::new(4);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let (f, start) = (&f, &start);
                s.spawn(move |_| {
                    start.wait();
                    for _ in 0..2_000 {
                        f.insert(&"hot-key").unwrap();
                        f.remove(&"hot-key").unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert!(!f.contains(&"hot-key"));
        assert_eq!(f.total_load(), 0);
        assert_eq!(f.overflows(), 0);
    }

    #[test]
    fn racing_overflow_rollbacks_never_panic() {
        // Insert/remove pairs of one key on two-count words, with two
        // word groups per key: an insert that overflows in its second
        // group rolls back its first, and that rollback races removes
        // that drain the counter first (a rollback that panics instead
        // fails this test within a few runs). That must surface as a
        // CorruptionDetected error, and the filter must keep serving.
        let c = MpcbfConfig::builder()
            .memory_bits(128)
            .expected_items(1)
            .hashes(2)
            .accesses(2)
            .n_max(1)
            .seed(7)
            .build()
            .unwrap();
        let f: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 2);
        let start = std::sync::Barrier::new(4);
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let (f, start) = (&f, &start);
                s.spawn(move |_| {
                    start.wait();
                    for _ in 0..2_000 {
                        for r in [f.insert(&"hot"), f.remove(&"hot")] {
                            assert!(
                                matches!(
                                    r,
                                    Ok(())
                                        | Err(FilterError::WordOverflow { .. })
                                        | Err(FilterError::NotPresent)
                                        | Err(FilterError::CorruptionDetected { .. })
                                ),
                                "{r:?}"
                            );
                        }
                    }
                });
            }
        })
        .unwrap();
        let _ = f.contains(&"hot");
        while f.remove(&"hot").is_ok() {}
        assert_eq!(f.verify(), Ok(()));
    }

    #[test]
    fn verify_is_sound_while_writers_churn() {
        // Every CAS publishes a whole, invariant-respecting word, so the
        // structural check may run beside writers and must find nothing.
        let f = filter();
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let f = &f;
                    s.spawn(move || {
                        for round in 0..20u64 {
                            let keys: Vec<u64> =
                                (0..200).map(|i| (t << 32) | (round << 16) | i).collect();
                            f.insert_batch(&keys).into_iter().for_each(|r| r.unwrap());
                            f.remove_batch(&keys).into_iter().for_each(|r| r.unwrap());
                        }
                    })
                })
                .collect();
            // A writer that panics finishes too; the scope re-raises it.
            loop {
                assert_eq!(f.verify(), Ok(()));
                if writers.iter().all(|w| w.is_finished()) {
                    break;
                }
            }
        });
        assert_eq!(f.total_load(), 0);
    }

    #[test]
    fn codec_roundtrip_is_bit_exact() {
        let f = filter();
        let keys: Vec<Vec<u8>> = (0..3_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for k in &keys {
            f.insert_bytes(k).unwrap();
        }
        let image = f.encode();
        assert_eq!(image, f.encode(), "encode must be deterministic");
        assert_eq!(f.encode_to(Vec::new()), image);
        let measured = f.encode_to(codec::Measure::default());
        assert_eq!(measured.bytes, image.len() as u64);
        let d = ShardedMpcbf::<u64>::decode(&image).unwrap();
        assert_eq!(d.shard_count(), f.shard_count());
        assert_eq!(d.words_per_shard(), f.words_per_shard());
        assert_eq!(d.overflows(), f.overflows());
        for s in 0..f.shard_count() {
            assert_eq!(d.shard_raw_words(s), f.shard_raw_words(s), "shard {s}");
        }
        for k in &keys {
            assert!(d.contains_bytes(k));
        }
        assert_eq!(d.verify(), Ok(()));
        // The decoded filter keeps routing identically.
        assert_eq!(d.home_shard(b"some key"), f.home_shard(b"some key"));
        d.remove_bytes(&keys[0]).unwrap();
    }

    /// A two-shard filter of exactly `words_per_shard` words per shard,
    /// with 2000 keys in it.
    fn filter_of(words_per_shard: u64) -> ShardedMpcbf<u64> {
        let c = MpcbfConfig::builder()
            .memory_bits(2 * 64 * words_per_shard)
            .expected_items(2 * 4 * words_per_shard)
            .hashes(3)
            .seed(0xC4)
            .build()
            .unwrap();
        let f = ShardedMpcbf::new(c, 2);
        assert_eq!(f.words_per_shard(), words_per_shard);
        for i in 0..2_000u64 {
            f.insert(&i).unwrap();
        }
        f
    }

    #[test]
    fn chunked_encode_equals_the_unchunked_image_at_every_boundary() {
        let chunk = ENCODE_CHUNK_WORDS as u64;
        for words in [chunk - 1, chunk, chunk + 1, 3 * chunk + 100] {
            let f = filter_of(words);
            let shape = f.shape;
            let mut expected = codec::Writer::new(codec::KIND_SHARDED64);
            expected.u64(shape.l);
            expected.u32(shape.k);
            expected.u32(shape.g);
            expected.u32(shape.n_max);
            expected.u64(f.seed);
            expected.u32(2);
            expected.u64(words);
            expected.u64(f.overflows());
            for s in 0..2 {
                for word in f.shard_raw_words(s) {
                    expected.bytes(&word.to_le_bytes());
                }
            }
            let expected = expected.finish();
            let image = f.encode_to(Vec::new());
            assert!(image == expected, "{words} words per shard");
            let d = ShardedMpcbf::<u64>::decode(&image).unwrap();
            for s in 0..2 {
                assert_eq!(
                    d.shard_raw_words(s),
                    f.shard_raw_words(s),
                    "{words}: shard {s}"
                );
            }
        }
    }

    #[test]
    fn codec_rejects_corrupt_images() {
        let f = filter();
        for i in 0..500u64 {
            f.insert(&i).unwrap();
        }
        let image = f.encode();
        for pos in [0usize, 4, 5, 30, image.len() / 2, image.len() - 1] {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x08;
            assert!(
                ShardedMpcbf::<u64>::decode(&corrupt).is_err(),
                "bitflip at {pos} went undetected"
            );
        }
        for cut in [0usize, 7, image.len() / 4, image.len() - 2] {
            assert!(ShardedMpcbf::<u64>::decode(&image[..cut]).is_err());
        }
    }
}
