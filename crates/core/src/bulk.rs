//! Streaming bulk build: cache-bucketed staging for billion-key ingest.
//!
//! The scalar insert path pays one *random* read-modify-write per probed
//! word. While the filter fits in cache that is the paper's one-access
//! ideal; past L3 it becomes a DRAM-latency (and, on virtual machines, a
//! page-walk) wall — every key stalls on a cold line. This module
//! rebuilds construction as a **staging pipeline** that converts those
//! random writes into near-linear memory traffic:
//!
//! ```text
//! key ─hash─▶ packed entry ─▶ L1 bucket ─▶ L2 bucket ─▶ L3 region ─▶ sweep
//!             (one u64)        (hot, 32KB)   (2MB)        (word range)
//! ```
//!
//! * **L1**: up to 64 buckets of 64 entries, indexed by the high bits of
//!   the target word — appends land in a cache-resident array.
//! * **L2**: up to 64 coarser buckets of 4096 entries. A full L1 bucket
//!   is spilled into its enclosing L2 bucket with one contiguous copy.
//! * **L3**: one bucket per *region* (a `2^s3 ≤ 32768`-word aligned
//!   range, so the region's words occupy at most 256 KB and stay
//!   cache-resident during a sweep), all striped through one flat
//!   lazily-faulted slab sized off the expected load so that in the
//!   common case a region buckets *every* one of its entries. A full L2
//!   bucket is split-appended by region; a full region bucket is
//!   **flushed** as one sweep over the region's words.
//!
//! The sweep itself has two tiers. A region's *first* sweep lands on
//! all-empty words, so it skips incremental increments entirely:
//! [`construct_entries`] histograms each word's slot counts (arrival
//! order, exact admission bookkeeping) and then serialises each word's
//! canonical encoding in one pass — the words are written once,
//! sequentially, never read. A region swept *again* (its bucket
//! overflowed mid-stream — only when pushes exceed the sizing hint) is
//! dirty, and [`apply_entries`] replays its entries in arrival order
//! through a statically inlined counter walk. No sort in that walk:
//! within a region every word access is a cache hit anyway, and arrival
//! order keeps same-word entries apart so their dependent walks
//! overlap.
//!
//! # Why sweeps preserve HCBF semantics
//!
//! Two facts about [`HcbfWord`] make out-of-order application exact:
//!
//! 1. **Every increment costs exactly one bit** (`used_bits = b1 +
//!    popcount`), so a word accepts increments while `total_count + need
//!    ≤ W::BITS − b1`. Whether a *sequential* insert succeeds therefore
//!    depends only on per-word running totals, never on bit layout — and
//!    the all-or-nothing rollback erases refused keys entirely.
//! 2. **The word encoding is canonical in the counter multiset**: any
//!    order of admitted increments produces bit-identical words.
//!
//! So it suffices to reproduce the sequential *admission decisions*; the
//! increments themselves may then be applied in any order. Two staging
//! modes cover all shapes:
//!
//! * **Deferred** (`g == 1` and the entry fits a `u64`): a key stages one
//!   packed entry `word ‖ k×slot` and admission is decided *at flush
//!   time* from the word's running total. This is exact because every
//!   bucket level preserves per-word arrival order (each word travels one
//!   FIFO bucket chain), and with `g = 1` admission is word-local.
//! * **Admitted** (`g ≥ 2`, or when the caller must learn refusals at
//!   push time, e.g. the resilient spill): a per-word occupancy array
//!   decides admission *at push time* in global arrival order — the exact
//!   sequential criterion "every distinct probed word still fits the
//!   key's whole need" — and only admitted probes are staged, so flushes
//!   apply unconditionally in any order.
//!
//! Refused keys count one `overflow` each, admitted keys one item, both
//! identical to the scalar loop — the `bulk_equivalence` suite pins
//! bit-for-bit equality across all three filter families.
//!
//! # Parallel finish
//!
//! [`BulkBuilder::finish_with`] drains L1/L2 into L3 and hands the caller
//! disjoint [`RegionJob`]s — each owns a region's staged entries *and*
//! the mutable word slice it sweeps — so an executor (see
//! `mpcbf-concurrent`) can run regions on scoped threads with no locks
//! and no false sharing. Regions are independent even in deferred mode
//! because admission is word-local there.

use crate::config::MpcbfConfig;
use crate::hcbf::HcbfWord;
use crate::mpcbf::Mpcbf;
use crate::plan::PlanBuffer;
use crate::resilient::ResilientMpcbf;
use crate::{split_hashes, GROUP_SALT, WORD_SALT};
use mpcbf_bitvec::{advise_huge_slice, AlignedVec};
use mpcbf_hash::{DoubleHasher, Hasher128, Murmur3};
use std::marker::PhantomData;
use std::sync::Arc;

/// L1 geometry: up to `2^L1_REGION_BITS` hot buckets of `L1_CAP`
/// entries — 64 × 64 × 8 B = 32 KB flat, sized to stay resident in L1d
/// so the per-key append never leaves the first cache level.
const L1_REGION_BITS: u32 = 6;
const L1_CAP: usize = 64;

/// L2 geometry: up to `2^L2_REGION_BITS` buckets of `L2_CAP` entries.
const L2_REGION_BITS: u32 = 6;
const L2_CAP: usize = 4096;

/// L3 regions span at most `2^L3_REGION_BITS` words (a 256 KB window
/// of the filter), so every word a flush's sweep probes stays resident
/// in L2 — and each L2-bucket spill fans out over few region tails,
/// keeping the append streams long and TLB-friendly on huge builds.
const L3_REGION_BITS: u32 = 15;

/// Fallback region-bucket density (staged entries per region word) when
/// the caller gives no expected-key hint. [`BulkStage::with_expected`]
/// sizes the density off the expected load instead, with head-room, so
/// that in the common case a region buckets *every* one of its entries
/// and flushes exactly once — onto still-empty words, where the sweep
/// can construct each word directly instead of walking increments
/// (see [`construct_entries`]). A bucket that does overflow mid-stream
/// flushes early and its region falls back to the incremental walk;
/// only speed is lost, never exactness.
const L3_MIN_DENSITY: usize = 2;

/// In-word slot indices are `< b1 ≤ 63`, so six bits pack one.
const SLOT_BITS: u32 = 6;

/// Staging counters (spill/flush activity; admission totals live on the
/// built filter as `items()` / `overflows()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Keys pushed into the builder.
    pub keys: u64,
    /// Full L1 buckets spilled into L2.
    pub l1_spills: u64,
    /// Full L2 buckets split-appended into L3 regions.
    pub l2_spills: u64,
    /// Region sweeps executed (mid-stream and final).
    pub flushes: u64,
}

/// How admission is decided (see the module docs).
enum Mode {
    /// `g == 1`: entries carry the whole key, refusal decided at flush.
    Deferred,
    /// Per-word occupancy decides refusal at push time; only admitted
    /// probes are staged.
    Admitted { admit: Vec<u8> },
}

/// The staging hierarchy over one word array: routes packed probe
/// entries through L1/L2/L3 cache buckets and flushes full regions as
/// cache-resident sweeps.
///
/// This is the building block shared by [`BulkBuilder`] (one `Mpcbf`
/// word array) and the sharded builder in `mpcbf-concurrent` (one stage
/// per shard sub-filter). The caller owns the words and passes them to
/// every call that may flush.
pub struct BulkStage {
    l: u64,
    k: u32,
    g: u32,
    b1: u32,
    /// Increment capacity of one word: `W::BITS − b1`.
    cap: u32,
    mode: Mode,
    /// Word-field shift of a packed entry (`6k` deferred, `6` admitted).
    word_shift: u32,
    /// Region shifts: `word >> sN` = bucket index at level N.
    s1: u32,
    s2: u32,
    s3: u32,
    l1: Vec<u64>,
    l1_len: Vec<u8>,
    l2: Vec<u64>,
    l2_len: Vec<u16>,
    /// One flat hugepage-advised slab holding every region bucket at a
    /// fixed `l3_cap`-entry stride (bucket `r3` = slab
    /// `[r3·l3_cap, r3·l3_cap + l3_len[r3])`). Flat beats a
    /// vec-of-vecs twice over: the zeroed allocation is faulted in
    /// lazily, and one `madvise(MADV_HUGEPAGE)` covers all the tails —
    /// the random 8-byte appends of the L2 split are exactly the access
    /// pattern 4 KB pages punish with a TLB miss each. A plain `Vec`,
    /// deliberately: `vec![0u64; n]` rides `calloc`'s untouched zero
    /// pages, where a cache-aligned allocation would eagerly `memset`
    /// the worst-case gigabytes (see [`advise_huge_slice`]).
    l3: Vec<u64>,
    l3_len: Vec<u32>,
    l3_cap: usize,
    /// Regions already swept at least once. A fresh region's words are
    /// still all-empty (the stage's contract: it owns every write to the
    /// word array), so its first sweep may *construct* words from slot
    /// histograms; a dirty region must take the incremental walk.
    dirty: Vec<bool>,
    /// Histogram scratch reused across this stage's own sweeps.
    scratch: SweepScratch,
    items: u64,
    refused: u64,
    stats: BulkStats,
}

/// Bits needed to index `l` words (0 for `l == 1`).
fn index_bits(l: u64) -> u32 {
    64 - (l - 1).leading_zeros()
}

impl BulkStage {
    /// A stage over an `l`-word array with the given probe shape,
    /// picking deferred staging when the shape allows it.
    ///
    /// # Panics
    /// Panics if `l == 0`, `k` or `g` are out of the planner's range, or
    /// `b1` is not in `1..64`.
    pub fn new(l: u64, k: u32, g: u32, b1: u32) -> Self {
        let deferred = g == 1 && SLOT_BITS * k + index_bits(l) <= 64;
        Self::with_mode(l, k, g, b1, deferred, L3_MIN_DENSITY)
    }

    /// [`BulkStage::new`] with region buckets sized for `expected` keys:
    /// 1.5× the expected entries-per-word plus one, so a region ingests
    /// its whole expected share without a mid-stream flush and the final
    /// sweep lands on still-empty words, unlocking direct word
    /// construction (see [`construct_entries`]).
    pub fn with_expected(l: u64, k: u32, g: u32, b1: u32, expected: u64) -> Self {
        let deferred = g == 1 && SLOT_BITS * k + index_bits(l) <= 64;
        let epw = expected.div_ceil(l.max(1)) as usize;
        let density = (epw + epw / 2 + 1).clamp(L3_MIN_DENSITY, 128);
        Self::with_mode(l, k, g, b1, deferred, density)
    }

    /// A stage that always decides admission at push time, for callers
    /// that must observe refusals per key (the resilient spill path).
    pub fn admitted(l: u64, k: u32, g: u32, b1: u32) -> Self {
        Self::with_mode(l, k, g, b1, false, L3_MIN_DENSITY)
    }

    /// [`BulkStage::admitted`] with expectation-sized region buckets
    /// (`k` staged probes per key — admitted entries carry one probe
    /// each, unlike the one-entry-per-key deferred packing).
    pub fn admitted_with_expected(l: u64, k: u32, g: u32, b1: u32, expected: u64) -> Self {
        let epw = (expected.saturating_mul(u64::from(k))).div_ceil(l.max(1)) as usize;
        let density = (epw + epw / 2 + 1).clamp(L3_MIN_DENSITY, 128);
        Self::with_mode(l, k, g, b1, false, density)
    }

    fn with_mode(l: u64, k: u32, g: u32, b1: u32, deferred: bool, density: usize) -> Self {
        assert!(l >= 1, "empty word array");
        assert!((1..=64).contains(&k) && g >= 1 && g <= k, "probe shape");
        assert!((1..64).contains(&b1), "b1 = {b1} out of 1..64");
        let wb = index_bits(l);
        let s1 = wb.saturating_sub(L1_REGION_BITS);
        let s2 = wb.saturating_sub(L2_REGION_BITS);
        let s3 = wb.min(L3_REGION_BITS);
        let r1 = l.div_ceil(1 << s1) as usize;
        let r2 = l.div_ceil(1 << s2) as usize;
        let r3 = l.div_ceil(1 << s3) as usize;
        let (mode, word_shift) = if deferred {
            (Mode::Deferred, SLOT_BITS * k)
        } else {
            (
                Mode::Admitted {
                    admit: vec![0u8; l as usize],
                },
                SLOT_BITS,
            )
        };
        BulkStage {
            l,
            k,
            g,
            b1,
            cap: 64 - b1,
            mode,
            word_shift,
            s1,
            s2,
            s3,
            l1: vec![0; r1 * L1_CAP],
            l1_len: vec![0; r1],
            l2: vec![0; r2 * L2_CAP],
            l2_len: vec![0; r2],
            l3: {
                let mut slab = vec![0u64; r3 * (density << s3)];
                advise_huge_slice(&mut slab);
                slab
            },
            l3_len: vec![0; r3],
            l3_cap: density << s3,
            dirty: vec![false; r3],
            scratch: SweepScratch::new(),
            items: 0,
            refused: 0,
            stats: BulkStats::default(),
        }
    }

    /// True when admission is decided at flush time.
    pub fn is_deferred(&self) -> bool {
        matches!(self.mode, Mode::Deferred)
    }

    /// Keys admitted so far. Exact only after the stage is drained
    /// (deferred refusals are discovered at flush time).
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Keys refused so far (same caveat as [`BulkStage::items`]).
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Spill/flush counters.
    pub fn stats(&self) -> BulkStats {
        self.stats
    }

    /// Hashes and stages one probe digest (the full 128-bit digest for a
    /// plain filter, the low 112 bits for a shard sub-filter). Returns
    /// `false` iff the key was refused — only ever at push time in
    /// admitted mode; deferred mode always returns `true` and tallies
    /// refusals during flushes.
    #[inline]
    pub fn push_digest(&mut self, words: &mut [HcbfWord<u64>], digest: u128) -> bool {
        self.stats.keys += 1;
        let mut picker = DoubleHasher::with_salt(digest, WORD_SALT, self.l);
        if matches!(self.mode, Mode::Deferred) {
            let word = picker.next_index() as u64;
            let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT, self.b1 as u64);
            let mut entry = word << self.word_shift;
            for j in 0..self.k {
                entry |= (inner.next_index() as u64) << (SLOT_BITS * j);
            }
            self.route(words, entry);
            true
        } else {
            let mut probe_words = [0u32; 64];
            let mut slots = [0u32; 64];
            let mut cursor = 0usize;
            for t in 0..self.g {
                let word = picker.next_index() as u32;
                let k_t = split_hashes(self.k, self.g, t);
                let mut inner =
                    DoubleHasher::with_salt(digest, GROUP_SALT ^ u64::from(t), self.b1 as u64);
                for _ in 0..k_t {
                    probe_words[cursor] = word;
                    slots[cursor] = inner.next_index() as u32;
                    cursor += 1;
                }
            }
            self.stage_admitted(words, &probe_words[..cursor], &slots[..cursor])
        }
    }

    /// Hashes and stages a whole chunk of probe digests, returning how
    /// many were admitted so far (see [`BulkStage::push_digest`] for the
    /// deferred-mode caveat). Behaves exactly like pushing each digest
    /// singly, but keeps the deferred hot loop inside one call — the
    /// per-key entry point costs a cross-crate call per key, which at
    /// streaming rates is a measurable fraction of the budget.
    pub fn push_digests(&mut self, words: &mut [HcbfWord<u64>], digests: &[u128]) -> u64 {
        if matches!(self.mode, Mode::Deferred) {
            self.stats.keys += digests.len() as u64;
            if self.k == 3 {
                // Unrolled MPCBF-1 shape: three probe draws, no slot loop.
                for &digest in digests {
                    let mut picker = DoubleHasher::with_salt(digest, WORD_SALT, self.l);
                    let word = picker.next_index() as u64;
                    let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT, self.b1 as u64);
                    let entry = (word << self.word_shift)
                        | (inner.next_index() as u64)
                        | ((inner.next_index() as u64) << SLOT_BITS)
                        | ((inner.next_index() as u64) << (2 * SLOT_BITS));
                    self.route(words, entry);
                }
            } else {
                for &digest in digests {
                    let mut picker = DoubleHasher::with_salt(digest, WORD_SALT, self.l);
                    let word = picker.next_index() as u64;
                    let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT, self.b1 as u64);
                    let mut entry = word << self.word_shift;
                    for j in 0..self.k {
                        entry |= (inner.next_index() as u64) << (SLOT_BITS * j);
                    }
                    self.route(words, entry);
                }
            }
            digests.len() as u64
        } else {
            let mut admitted = 0u64;
            for &digest in digests {
                admitted += u64::from(self.push_digest(words, digest));
            }
            admitted
        }
    }

    /// Stages one pre-planned key: `plan_words` are its `g` target words
    /// and `slots` its `k` in-word positions, both in
    /// [`PlanBuffer`] layout (group `t` owns the next
    /// `split_hashes(k, g, t)` slots). Same contract as
    /// [`BulkStage::push_digest`].
    #[inline]
    pub fn push_planned(
        &mut self,
        words: &mut [HcbfWord<u64>],
        plan_words: &[u32],
        slots: &[u32],
    ) -> bool {
        debug_assert_eq!(plan_words.len(), self.g as usize);
        debug_assert_eq!(slots.len(), self.k as usize);
        self.stats.keys += 1;
        if matches!(self.mode, Mode::Deferred) {
            let mut entry = u64::from(plan_words[0]) << self.word_shift;
            for (j, &slot) in slots.iter().enumerate() {
                entry |= u64::from(slot) << (SLOT_BITS * j as u32);
            }
            self.route(words, entry);
            true
        } else {
            let mut probe_words = [0u32; 64];
            let mut cursor = 0usize;
            for t in 0..self.g {
                let k_t = split_hashes(self.k, self.g, t);
                for _ in 0..k_t {
                    probe_words[cursor] = plan_words[t as usize];
                    cursor += 1;
                }
            }
            self.stage_admitted(words, &probe_words[..cursor], slots)
        }
    }

    /// Admitted-mode admission: the key needs `probe_words.iter().count()`
    /// increments spread over its distinct words; admit iff every
    /// distinct word still has room for its whole share — exactly the
    /// sequential criterion (rollback makes partial application
    /// unobservable, and each increment costs one bit).
    fn stage_admitted(
        &mut self,
        words: &mut [HcbfWord<u64>],
        probe_words: &[u32],
        slots: &[u32],
    ) -> bool {
        let Mode::Admitted { admit } = &mut self.mode else {
            unreachable!("stage_admitted called in deferred mode");
        };
        // Per-distinct-word need (k ≤ 64, g typically ≤ 4 — a scan wins).
        let mut distinct = [0u32; 64];
        let mut need = [0u8; 64];
        let mut n = 0usize;
        for &w in probe_words {
            match distinct[..n].iter().position(|&d| d == w) {
                Some(i) => need[i] += 1,
                None => {
                    distinct[n] = w;
                    need[n] = 1;
                    n += 1;
                }
            }
        }
        for i in 0..n {
            if u32::from(admit[distinct[i] as usize]) + u32::from(need[i]) > self.cap {
                self.refused += 1;
                return false;
            }
        }
        for i in 0..n {
            admit[distinct[i] as usize] += need[i];
        }
        self.items += 1;
        for (&w, &slot) in probe_words.iter().zip(slots) {
            let entry = (u64::from(w) << SLOT_BITS) | u64::from(slot);
            self.route(words, entry);
        }
        true
    }

    /// Appends one packed entry to its L1 bucket, spilling on overflow.
    #[inline]
    fn route(&mut self, words: &mut [HcbfWord<u64>], entry: u64) {
        let r1 = ((entry >> self.word_shift) >> self.s1) as usize;
        let len = self.l1_len[r1] as usize;
        self.l1[r1 * L1_CAP + len] = entry;
        self.l1_len[r1] = (len + 1) as u8;
        if len + 1 == L1_CAP {
            self.spill_l1(words, r1);
        }
    }

    /// Copies L1 bucket `r1` into its enclosing L2 bucket (one
    /// contiguous move; `s2 ≥ s1` makes the destination unique).
    /// Out-of-line: runs once per `L1_CAP` pushes — keeping it out of
    /// the inlined hot path lets the append loop stay tight.
    #[inline(never)]
    fn spill_l1(&mut self, words: &mut [HcbfWord<u64>], r1: usize) {
        let n = self.l1_len[r1] as usize;
        if n == 0 {
            return;
        }
        self.stats.l1_spills += 1;
        let r2 = r1 >> (self.s2 - self.s1);
        if self.l2_len[r2] as usize + n > L2_CAP {
            self.spill_l2(words, r2);
        }
        let dst = r2 * L2_CAP + self.l2_len[r2] as usize;
        let src = r1 * L1_CAP;
        self.l2[dst..dst + n].copy_from_slice(&self.l1[src..src + n]);
        self.l2_len[r2] += n as u16;
        self.l1_len[r1] = 0;
    }

    /// Splits L2 bucket `r2` into its regions' L3 buckets, flushing any
    /// region bucket that reaches the density cap.
    fn spill_l2(&mut self, words: &mut [HcbfWord<u64>], r2: usize) {
        let n = self.l2_len[r2] as usize;
        if n == 0 {
            return;
        }
        self.stats.l2_spills += 1;
        for i in 0..n {
            let entry = self.l2[r2 * L2_CAP + i];
            let r3 = ((entry >> self.word_shift) >> self.s3) as usize;
            let len = self.l3_len[r3] as usize;
            self.l3[r3 * self.l3_cap + len] = entry;
            self.l3_len[r3] = (len + 1) as u32;
            if len + 1 == self.l3_cap {
                self.flush_region(words, r3);
            }
        }
        self.l2_len[r2] = 0;
    }

    /// Applies region `r3`'s staged entries as one cache-resident sweep:
    /// direct word construction on the region's first sweep (its words
    /// are still empty), the incremental walk afterwards.
    fn flush_region(&mut self, words: &mut [HcbfWord<u64>], r3: usize) {
        let len = self.l3_len[r3] as usize;
        if len == 0 {
            return;
        }
        self.stats.flushes += 1;
        let base = (r3 as u64) << self.s3;
        let rw = ((1u64 << self.s3).min(self.l - base)) as usize;
        let region = &mut words[base as usize..base as usize + rw];
        let deferred = self.is_deferred().then_some(self.k);
        let start = r3 * self.l3_cap;
        let entries = &self.l3[start..start + len];
        let fresh = !std::mem::replace(&mut self.dirty[r3], true);
        let (items, refused) = if fresh {
            construct_entries(
                entries,
                region,
                base,
                self.word_shift,
                deferred,
                self.b1,
                self.cap,
                &mut self.scratch,
            )
        } else {
            apply_entries(
                entries,
                region,
                base,
                self.word_shift,
                deferred,
                self.b1,
                self.cap,
            )
        };
        self.items += items;
        self.refused += refused;
        self.l3_len[r3] = 0;
    }

    /// Drains every bucket level and sweeps every region, completing the
    /// build against `words` on the calling thread.
    pub fn finish_into(&mut self, words: &mut [HcbfWord<u64>]) {
        let mut jobs = self.finish_jobs(words);
        let mut scratch = SweepScratch::new();
        for job in &mut jobs {
            job.run_with(&mut scratch);
        }
        self.absorb_jobs(&jobs);
    }

    /// Drains L1 and L2 into the region buckets, then hands out one
    /// [`RegionJob`] per non-empty region. Jobs own disjoint word slices
    /// and may run on different threads; afterwards pass them to
    /// [`BulkStage::absorb_jobs`] to fold their admission tallies back.
    pub fn finish_jobs<'w>(&mut self, words: &'w mut [HcbfWord<u64>]) -> Vec<RegionJob<'w>> {
        for r1 in 0..self.l1_len.len() {
            self.spill_l1(words, r1);
        }
        for r2 in 0..self.l2_len.len() {
            self.spill_l2(words, r2);
        }
        let deferred = self.is_deferred().then_some(self.k);
        // Freeze the slab behind an `Arc` so every job can read its own
        // bucket range while the jobs run on different threads; the
        // stage keeps going afterwards with an empty slab (it is fully
        // drained — nothing routes to L3 after the spills above).
        let slab = Arc::new(std::mem::take(&mut self.l3));
        let mut jobs = Vec::new();
        let mut rest = words;
        for r3 in 0..self.l3_len.len() {
            let base = (r3 as u64) << self.s3;
            let rw = ((1u64 << self.s3).min(self.l - base)) as usize;
            let (region, tail) = rest.split_at_mut(rw);
            rest = tail;
            let len = self.l3_len[r3] as usize;
            if len == 0 {
                continue;
            }
            self.l3_len[r3] = 0;
            self.stats.flushes += 1;
            jobs.push(RegionJob {
                slab: slab.clone(),
                start: r3 * self.l3_cap,
                len,
                region,
                base,
                word_shift: self.word_shift,
                deferred,
                fresh: !std::mem::replace(&mut self.dirty[r3], true),
                b1: self.b1,
                cap: self.cap,
                items: 0,
                refused: 0,
            });
        }
        jobs
    }

    /// Folds executed jobs' admission tallies into the stage totals.
    pub fn absorb_jobs(&mut self, jobs: &[RegionJob<'_>]) {
        for job in jobs {
            self.items += job.items;
            self.refused += job.refused;
        }
    }
}

/// One region's final sweep, detached from the stage so an executor can
/// run disjoint regions on scoped threads: owns the staged entries and
/// the mutable word slice they target.
pub struct RegionJob<'w> {
    /// The stage's frozen staging slab, shared read-only between jobs;
    /// this job's entries are `slab[start..start + len]`.
    slab: Arc<Vec<u64>>,
    start: usize,
    len: usize,
    region: &'w mut [HcbfWord<u64>],
    base: u64,
    word_shift: u32,
    deferred: Option<u32>,
    /// True when this region has never been swept: its words are still
    /// empty, so the sweep may construct them from slot histograms.
    fresh: bool,
    b1: u32,
    cap: u32,
    /// Keys admitted by this sweep (deferred mode only).
    pub items: u64,
    /// Keys refused by this sweep (deferred mode only).
    pub refused: u64,
}

impl RegionJob<'_> {
    /// Staged entries this job will apply.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the job has nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Applies the region's entries. Idempotence is *not* provided —
    /// run once.
    pub fn run(&mut self) {
        self.run_with(&mut SweepScratch::new());
    }

    /// [`RegionJob::run`] with caller-owned histogram scratch, so an
    /// executor draining many jobs on one thread allocates it once.
    pub fn run_with(&mut self, scratch: &mut SweepScratch) {
        let entries = &self.slab[self.start..self.start + self.len];
        let (items, refused) = if self.fresh {
            construct_entries(
                entries,
                &mut *self.region,
                self.base,
                self.word_shift,
                self.deferred,
                self.b1,
                self.cap,
                scratch,
            )
        } else {
            apply_entries(
                entries,
                &mut *self.region,
                self.base,
                self.word_shift,
                self.deferred,
                self.b1,
                self.cap,
            )
        };
        self.items += items;
        self.refused += refused;
        self.len = 0;
    }
}

/// Applies `entries` to their region in staged (arrival) order as one
/// cache-resident sweep, returning the (items, refused) admission tally
/// — nonzero only in deferred mode, where each entry is one whole key
/// and admission is decided here against the word's running total. The
/// bucket hierarchy appends FIFO at every level, so a bucket holds each
/// word's entries in arrival order and the tally matches the scalar
/// loop exactly. No sort: the region spans at most `2^L3_REGION_BITS`
/// words, small enough that every probed word stays cache-hot, and
/// applying in bucket order lets the walks of neighbouring entries
/// overlap (sorting by word was measured slower — it puts same-word
/// entries back to back, serialising their dependent hierarchy walks,
/// and pays three extra passes over the entries to boot).
fn apply_entries(
    entries: &[u64],
    region: &mut [HcbfWord<u64>],
    base: u64,
    word_shift: u32,
    deferred: Option<u32>,
    b1: u32,
    cap: u32,
) -> (u64, u64) {
    let mut items = 0u64;
    let mut refused = 0u64;
    // Warm the region's cachelines with one linear pass before the
    // random-order sweep: the words have been cold since this region's
    // previous flush, and a bandwidth-bound stream beats ~one
    // latency-bound DRAM miss per line scattered through the sweep.
    // (One load per 64-byte line; `black_box` keeps the pass alive.)
    if entries.len() >= region.len() / 4 {
        let mut warm = 0u64;
        for word in region.iter().step_by(8) {
            warm ^= u64::from(word.total_count());
        }
        std::hint::black_box(warm);
    }
    match deferred {
        // `k == 3` is the classic MPCBF-1 shape (and the bench config);
        // unrolling it drops the per-slot loop counter and lets the
        // three dependent walks schedule as straight-line code.
        Some(3) => {
            for &e in entries {
                let w = ((e >> word_shift) - base) as usize;
                // Work on a register-held copy: the `k` dependent walks
                // then never round-trip through the store buffer.
                let mut word = region[w];
                if word.total_count() + 3 > cap {
                    refused += 1;
                    continue;
                }
                word.increment((e & 0x3f) as u32, b1)
                    .expect("capacity checked against the running total");
                word.increment(((e >> SLOT_BITS) & 0x3f) as u32, b1)
                    .expect("capacity checked against the running total");
                word.increment(((e >> (2 * SLOT_BITS)) & 0x3f) as u32, b1)
                    .expect("capacity checked against the running total");
                region[w] = word;
                items += 1;
            }
        }
        Some(k) => {
            for &e in entries {
                let w = ((e >> word_shift) - base) as usize;
                let mut word = region[w];
                if word.total_count() + k > cap {
                    refused += 1;
                    continue;
                }
                for j in 0..k {
                    let slot = ((e >> (SLOT_BITS * j)) & 0x3f) as u32;
                    word.increment(slot, b1)
                        .expect("capacity checked against the running total");
                }
                region[w] = word;
                items += 1;
            }
        }
        None => {
            for &e in entries {
                let w = ((e >> word_shift) - base) as usize;
                let slot = (e & 0x3f) as u32;
                region[w]
                    .increment(slot, b1)
                    .expect("entry was admitted at push time");
            }
        }
    }
    (items, refused)
}

/// Reusable per-thread scratch for [`construct_entries`]: slot
/// histograms for every word of one region (≤ `2^L3_REGION_BITS` words,
/// so ≤ 2 MB of counts — cache-resident through a sweep). Kept all-zero
/// between sweeps: the serialisation pass re-zeroes exactly the rows it
/// consumed, so reuse costs nothing.
pub struct SweepScratch {
    /// Per word: running increment total (admission bookkeeping).
    totals: Vec<u8>,
    /// Per word: bitmap of touched slots. A word's 64 slot counts span
    /// exactly one cache line, and the bitmap lets serialisation visit
    /// only the populated ones.
    mask: Vec<u64>,
    /// Per word × 64 slots: the count histogram (counts ≤ `cap` < 64).
    counts: Vec<u8>,
}

impl SweepScratch {
    /// Empty scratch; grows on first use.
    pub fn new() -> Self {
        SweepScratch {
            totals: Vec::new(),
            mask: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ensure(&mut self, words: usize) {
        if self.totals.len() < words {
            self.totals.resize(words, 0);
            self.mask.resize(words, 0);
            self.counts.resize(words * 64, 0);
        }
    }
}

impl Default for SweepScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// [`apply_entries`] for a region whose words are **all still empty**
/// (its first sweep): instead of walking `k` dependent carried-rank
/// increments per key, histogram the slot counts per word and emit each
/// word's canonical encoding in one serialisation pass.
///
/// Exactness rests on the same two invariants as the walk (see the
/// module docs): admission depends only on per-word running totals —
/// reproduced here entry-by-entry in arrival order — and the HCBF word
/// encoding is canonical in the counter multiset, so building the final
/// multiset directly yields bit-identical words. The encoding itself
/// follows the level layout: level 1 is the slot bitmap; level `j ≥ 2`
/// holds one bit per chain that reached depth `j − 1`, in ascending
/// slot order (children are allocated in rank order, which inductively
/// preserves slot order), set iff the chain continues to depth `j`.
///
/// The payoff over the walk is structural: the entry pass touches three
/// resident scratch lines per key instead of executing ~`k` serial
/// 20-to-40-cycle rank walks, and the region's words are *written once,
/// sequentially* — never read, never warmed.
#[allow(clippy::too_many_arguments)]
fn construct_entries(
    entries: &[u64],
    region: &mut [HcbfWord<u64>],
    base: u64,
    word_shift: u32,
    deferred: Option<u32>,
    b1: u32,
    cap: u32,
    scratch: &mut SweepScratch,
) -> (u64, u64) {
    scratch.ensure(region.len());
    let SweepScratch {
        totals,
        mask,
        counts,
    } = scratch;
    let mut items = 0u64;
    let mut refused = 0u64;
    match deferred {
        // The unrolled MPCBF-1 shape, mirroring `apply_entries`.
        Some(3) => {
            for &e in entries {
                let w = ((e >> word_shift) - base) as usize;
                let t = u32::from(totals[w]);
                if t + 3 > cap {
                    refused += 1;
                    continue;
                }
                totals[w] = (t + 3) as u8;
                items += 1;
                let (s0, s1, s2) = (
                    (e & 0x3f) as usize,
                    ((e >> SLOT_BITS) & 0x3f) as usize,
                    ((e >> (2 * SLOT_BITS)) & 0x3f) as usize,
                );
                let row = w * 64;
                counts[row + s0] += 1;
                counts[row + s1] += 1;
                counts[row + s2] += 1;
                mask[w] |= (1 << s0) | (1 << s1) | (1 << s2);
            }
        }
        Some(k) => {
            for &e in entries {
                let w = ((e >> word_shift) - base) as usize;
                let t = u32::from(totals[w]);
                if t + k > cap {
                    refused += 1;
                    continue;
                }
                totals[w] = (t + k) as u8;
                items += 1;
                let row = w * 64;
                for j in 0..k {
                    let s = ((e >> (SLOT_BITS * j)) & 0x3f) as usize;
                    counts[row + s] += 1;
                    mask[w] |= 1 << s;
                }
            }
        }
        // Admitted mode: one pre-admitted probe per entry, no tally.
        None => {
            for &e in entries {
                let w = ((e >> word_shift) - base) as usize;
                let s = (e & 0x3f) as usize;
                counts[w * 64 + s] += 1;
                mask[w] |= 1 << s;
            }
        }
    }
    // Serialise: one sequential pass over the region, writing only
    // populated words and re-zeroing their scratch rows behind itself.
    for (w, word) in region.iter_mut().enumerate() {
        let m = mask[w];
        if m == 0 {
            continue;
        }
        mask[w] = 0;
        totals[w] = 0;
        let row = w * 64;
        // Chains in ascending slot order, consuming the histogram.
        let mut chain = [0u8; 64];
        let mut n = 0usize;
        let mut rest = m;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            chain[n] = counts[row + s];
            counts[row + s] = 0;
            n += 1;
            rest &= rest - 1;
        }
        // Level 1 is the slot bitmap itself; level j ≥ 2 appends one
        // bit per chain of depth ≥ j − 1, set iff depth ≥ j.
        let mut bits = m;
        let mut pos = b1;
        let mut j = 2u8;
        while n > 0 {
            let mut kept = 0usize;
            for i in 0..n {
                let c = chain[i];
                if c >= j {
                    bits |= 1 << pos;
                    chain[kept] = c;
                    kept += 1;
                }
                pos += 1;
            }
            n = kept;
            j += 1;
        }
        debug_assert!(word.is_empty(), "construct sweep over a non-empty word");
        *word = HcbfWord::from_raw(bits);
    }
    (items, refused)
}

/// Streaming bulk builder for [`Mpcbf`]: push keys (singly or in
/// batches), then [`BulkBuilder::finish`] into a filter bit-for-bit
/// identical to a scalar insert loop over the same key stream.
///
/// ```
/// use mpcbf_core::{BulkBuilder, MpcbfConfig};
///
/// let config = MpcbfConfig::builder()
///     .memory_bits(1 << 20)
///     .expected_items(10_000)
///     .hashes(3)
///     .build()
///     .unwrap();
/// let mut builder: BulkBuilder = BulkBuilder::new(config);
/// for i in 0..10_000u64 {
///     builder.push(&i.to_le_bytes());
/// }
/// let filter = builder.finish();
/// // Every key is accounted for: admitted or (rarely) refused by a
/// // full word — exactly as the scalar insert loop would tally them.
/// assert_eq!(filter.items() + filter.overflows(), 10_000);
/// ```
pub struct BulkBuilder<H: Hasher128 = Murmur3> {
    config: MpcbfConfig,
    seed: u64,
    words: AlignedVec<HcbfWord<u64>>,
    stage: BulkStage,
    plans: PlanBuffer,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> BulkBuilder<H> {
    /// A builder for the configuration's shape (64-bit words).
    ///
    /// # Panics
    /// Panics if the configuration derives a non-64-bit word.
    pub fn new(config: MpcbfConfig) -> Self {
        let expected = config.expected_items();
        Self::with_stage(config, |s| {
            BulkStage::with_expected(s.0, s.1, s.2, s.3, expected)
        })
    }

    /// A builder whose stage always resolves admission at push time (the
    /// resilient bulk path needs per-key refusal feedback).
    fn admitted(config: MpcbfConfig) -> Self {
        let expected = config.expected_items();
        Self::with_stage(config, |s| {
            BulkStage::admitted_with_expected(s.0, s.1, s.2, s.3, expected)
        })
    }

    fn with_stage(
        config: MpcbfConfig,
        make: impl FnOnce((u64, u32, u32, u32)) -> BulkStage,
    ) -> Self {
        let shape = config.shape();
        assert_eq!(shape.w, 64, "bulk build requires 64-bit words");
        BulkBuilder {
            seed: config.seed(),
            // Hugepage-advised before the eager fill: at bulk scale the
            // word array runs to gigabytes, where 4 KB-fault churn costs
            // more than the fill itself — and the final sweeps write it
            // at scattered offsets.
            words: AlignedVec::filled_huge(shape.l as usize, HcbfWord::new()),
            stage: make((shape.l, shape.k, shape.g, shape.b1)),
            plans: PlanBuffer::new(),
            config,
            _hasher: PhantomData,
        }
    }

    /// Stages one key. Returns `false` iff the key is already known to
    /// be refused (admitted-mode stages only; deferred stages tally
    /// refusals at flush time and always return `true` here).
    pub fn push(&mut self, key: &[u8]) -> bool {
        let digest = H::hash128(self.seed, key);
        self.stage.push_digest(self.words.as_mut_slice(), digest)
    }

    /// Stages a chunk of keys through the tight digest loop
    /// ([`BulkStage::push_digests`]); the streaming entry point for
    /// ingest at rate. Digests are buffered in `plans`' scratch-free
    /// sibling: a plain reusable vector owned by the stage caller would
    /// do, but hashing into a local buffer per chunk keeps the API
    /// allocation-free for the common 8 Ki-key chunk size.
    pub fn push_chunk<K: AsRef<[u8]>>(&mut self, keys: &[K]) {
        let mut digests = [0u128; 256];
        for block in keys.chunks(digests.len()) {
            for (slot, key) in digests.iter_mut().zip(block) {
                *slot = H::hash128(self.seed, key.as_ref());
            }
            self.stage
                .push_digests(self.words.as_mut_slice(), &digests[..block.len()]);
        }
    }

    /// Stages a batch, hashing through the shared [`PlanBuffer`]
    /// pipeline (one planning pass, then staged appends).
    pub fn push_batch(&mut self, keys: &[&[u8]]) {
        let shape = self.config.shape();
        self.plans.plan_partitioned(
            keys.iter().map(|key| H::hash128(self.seed, key)),
            shape.l,
            shape.k,
            shape.g,
            u64::from(shape.b1),
        );
        for i in 0..self.plans.keys() {
            self.stage.push_planned(
                self.words.as_mut_slice(),
                self.plans.words_of(i),
                self.plans.slots_of(i),
            );
        }
    }

    /// Staging counters so far.
    pub fn stats(&self) -> BulkStats {
        self.stage.stats()
    }

    /// True when this builder's stage defers admission to flush time
    /// (see [`BulkStage::is_deferred`]).
    pub fn is_deferred(&self) -> bool {
        self.stage.is_deferred()
    }

    /// Completes the build on the calling thread.
    pub fn finish(self) -> Mpcbf<u64, H> {
        self.finish_with(|jobs| {
            let mut scratch = SweepScratch::new();
            for job in jobs {
                job.run_with(&mut scratch);
            }
        })
    }

    /// Completes the build through a caller-supplied executor: the
    /// closure receives one [`RegionJob`] per non-empty region (disjoint
    /// word slices — safe to run on scoped threads) and must run each
    /// exactly once. `mpcbf-concurrent` provides the threaded executor.
    pub fn finish_with(mut self, exec: impl for<'w> FnOnce(&mut [RegionJob<'w>])) -> Mpcbf<u64, H> {
        let mut jobs = self.stage.finish_jobs(self.words.as_mut_slice());
        exec(&mut jobs);
        self.stage.absorb_jobs(&jobs);
        drop(jobs);
        Mpcbf::from_bulk_parts(
            self.config,
            self.words,
            self.stage.items(),
            self.stage.refused(),
        )
    }
}

/// Bulk builder for [`ResilientMpcbf`]: keys the main shape refuses are
/// spilled losslessly at push time (gate + exact map), in arrival order,
/// exactly as the scalar resilient insert would.
pub struct ResilientBulkBuilder<H: Hasher128 = Murmur3> {
    builder: BulkBuilder<H>,
    resilient: ResilientMpcbf<H>,
}

impl<H: Hasher128> ResilientBulkBuilder<H> {
    /// A builder for the configuration's shape.
    pub fn new(config: MpcbfConfig) -> Self {
        ResilientBulkBuilder {
            builder: BulkBuilder::admitted(config),
            resilient: ResilientMpcbf::new(config),
        }
    }

    /// Stages one key; a refused key is spilled immediately (the build
    /// is lossless — this never fails).
    pub fn push(&mut self, key: &[u8]) {
        if !self.builder.push(key) {
            self.resilient.bulk_spill_insert(key);
        }
    }

    /// Staging counters so far.
    pub fn stats(&self) -> BulkStats {
        self.builder.stats()
    }

    /// Completes the build on the calling thread.
    pub fn finish(self) -> ResilientMpcbf<H> {
        let ResilientBulkBuilder {
            builder,
            mut resilient,
        } = self;
        resilient.bulk_replace_main(builder.finish());
        resilient
    }

    /// Completes the build through a caller-supplied executor (see
    /// [`BulkBuilder::finish_with`]).
    pub fn finish_with(self, exec: impl for<'w> FnOnce(&mut [RegionJob<'w>])) -> ResilientMpcbf<H> {
        let ResilientBulkBuilder {
            builder,
            mut resilient,
        } = self;
        resilient.bulk_replace_main(builder.finish_with(exec));
        resilient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Filter;

    fn config(memory: u64, items: u64, k: u32, g: u32, seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(memory)
            .expected_items(items)
            .hashes(k)
            .accesses(g)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn keys(n: u64, salt: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("bulk-{salt}-{i}").into_bytes())
            .collect()
    }

    #[test]
    fn deferred_mode_selected_for_g1() {
        let c = config(1 << 20, 10_000, 3, 1, 7);
        let b: BulkBuilder = BulkBuilder::new(c);
        assert!(b.stage.is_deferred());
        let c = config(1 << 20, 10_000, 3, 2, 7);
        let b: BulkBuilder = BulkBuilder::new(c);
        assert!(!b.stage.is_deferred());
    }

    #[test]
    fn bulk_equals_sequential_g1() {
        let c = config(1 << 20, 50_000, 3, 1, 11);
        let keys = keys(50_000, 1);
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.overflows(), seq.overflows());
    }

    #[test]
    fn bulk_equals_sequential_g2_with_overflow_pressure() {
        // A deliberately overfull shape so refusals actually occur.
        let c = config(4_096, 600, 4, 2, 3);
        let keys = keys(600, 2);
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert!(seq.overflows() > 0, "test premise: shape must saturate");
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.overflows(), seq.overflows());
    }

    #[test]
    fn batch_push_matches_scalar_push() {
        let c = config(1 << 18, 10_000, 3, 1, 5);
        let keys = keys(10_000, 3);
        let mut scalar: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            scalar.push(k);
        }
        let mut batched: BulkBuilder = BulkBuilder::new(c);
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for chunk in views.chunks(777) {
            batched.push_batch(chunk);
        }
        assert_eq!(scalar.finish().raw_words(), batched.finish().raw_words());
    }

    #[test]
    fn resilient_bulk_is_lossless() {
        // Push past the configured capacity so the spill path engages.
        let c = config(2_048, 400, 3, 1, 9);
        let keys = keys(1_200, 4);
        let mut seq: ResilientMpcbf = ResilientMpcbf::new(c);
        for k in &keys {
            seq.insert_bytes(k).unwrap();
        }
        let mut bulk: ResilientBulkBuilder = ResilientBulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert!(seq.spilled_inserts() > 0, "test premise: must spill");
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.spilled_inserts(), seq.spilled_inserts());
        assert_eq!(built.spill_occupancy(), seq.spill_occupancy());
        assert_eq!(built.main().raw_words(), seq.main().raw_words());
        for k in &keys {
            assert!(built.contains_bytes(k), "lost a key in bulk build");
        }
    }

    #[test]
    fn duplicate_keys_mid_stream() {
        let c = config(8_192, 1_000, 3, 1, 13);
        let mut keys = keys(500, 5);
        // Interleave a hot key 200 times.
        for i in 0..200 {
            keys.insert(i * 2, b"hot-key".to_vec());
        }
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.overflows(), seq.overflows());
    }

    /// Splitmix-style scrambler for deterministic pseudo-random tests.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    #[test]
    fn construct_matches_walk_on_fresh_regions() {
        // Differential: on an all-empty region, the histogram
        // construction must emit bit-identical words and tallies to the
        // incremental walk, including under overflow pressure.
        for (k, b1, rw, n) in [
            (3u32, 55u32, 64usize, 2_000usize),
            (4, 40, 16, 1_500),
            (1, 60, 8, 400),
        ] {
            let word_shift = SLOT_BITS * k;
            let entries: Vec<u64> = (0..n)
                .map(|i| {
                    let r = mix(i as u64 ^ u64::from(k) << 32);
                    let mut e = (r % rw as u64) << word_shift;
                    for j in 0..k {
                        e |= ((r >> (8 + 6 * j)) % u64::from(b1)) << (SLOT_BITS * j);
                    }
                    e
                })
                .collect();
            let cap = 64 - b1;
            let mut walked = vec![HcbfWord::<u64>::new(); rw];
            let walk_tally = apply_entries(&entries, &mut walked, 0, word_shift, Some(k), b1, cap);
            let mut constructed = vec![HcbfWord::<u64>::new(); rw];
            let mut scratch = SweepScratch::new();
            let built_tally = construct_entries(
                &entries,
                &mut constructed,
                0,
                word_shift,
                Some(k),
                b1,
                cap,
                &mut scratch,
            );
            assert_eq!(walk_tally, built_tally, "tallies diverged (k={k}, b1={b1})");
            assert_eq!(walked, constructed, "words diverged (k={k}, b1={b1})");
            // Scratch self-cleans: a second, different sweep through the
            // same scratch must stay exact.
            let mut again = vec![HcbfWord::<u64>::new(); rw];
            let mut reference = vec![HcbfWord::<u64>::new(); rw];
            let half = &entries[..n / 2];
            apply_entries(half, &mut reference, 0, word_shift, Some(k), b1, cap);
            construct_entries(
                half,
                &mut again,
                0,
                word_shift,
                Some(k),
                b1,
                cap,
                &mut scratch,
            );
            assert_eq!(reference, again, "reused scratch diverged (k={k}, b1={b1})");
        }
    }

    #[test]
    fn construct_matches_walk_in_admitted_mode() {
        let b1 = 50u32;
        let rw = 32usize;
        // Admitted-mode entries: one probe each, pre-admitted — cap the
        // per-word load below capacity while generating.
        let mut load = vec![0u32; rw];
        let mut entries = Vec::new();
        for i in 0..4_000u64 {
            let r = mix(i);
            let w = (r % rw as u64) as usize;
            if load[w] + 1 > 64 - b1 {
                continue;
            }
            load[w] += 1;
            entries.push(((w as u64) << SLOT_BITS) | ((r >> 8) % u64::from(b1)));
        }
        let mut walked = vec![HcbfWord::<u64>::new(); rw];
        apply_entries(&entries, &mut walked, 0, SLOT_BITS, None, b1, 64 - b1);
        let mut constructed = vec![HcbfWord::<u64>::new(); rw];
        let mut scratch = SweepScratch::new();
        construct_entries(
            &entries,
            &mut constructed,
            0,
            SLOT_BITS,
            None,
            b1,
            64 - b1,
            &mut scratch,
        );
        assert_eq!(walked, constructed);
    }

    #[test]
    fn overfull_push_falls_back_to_walk_and_stays_exact() {
        // A hot key repeated far past one word's capacity drives its
        // bucket chain through mid-stream region flushes; every later
        // sweep of that region must take the incremental-walk path
        // (dirty region) — still bit-exact, refusals included.
        let c = config(4_096, 500, 3, 1, 29);
        let mut keys = keys(500, 7);
        keys.extend(std::iter::repeat_n(b"molten-key".to_vec(), 9_000));
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        assert!(
            bulk.stats().flushes > 0,
            "test premise: overfull push must flush mid-stream"
        );
        let built = bulk.finish();
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.overflows(), seq.overflows());
    }

    #[test]
    fn finish_with_jobs_matches_sequential_finish() {
        let c = config(1 << 20, 40_000, 3, 1, 17);
        let keys = keys(40_000, 6);
        let mut a: BulkBuilder = BulkBuilder::new(c);
        let mut b: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            a.push(k);
            b.push(k);
        }
        let seq = a.finish();
        // Run jobs in reverse order — admission must be region-local.
        let rev = b.finish_with(|jobs| {
            for job in jobs.iter_mut().rev() {
                job.run();
            }
        });
        assert_eq!(seq.raw_words(), rev.raw_words());
        assert_eq!(seq.items(), rev.items());
    }
}
