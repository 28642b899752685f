//! Probe planning: the hash stage of the batch pipeline.
//!
//! Scalar filter operations interleave hashing and probing per key. The
//! batch pipeline splits them: the hash stage materialises every target
//! word and every in-word position up front, so the probe stage can stream
//! through independent memory accesses without a hash computation stalling
//! between them.
//!
//! Two shapes cover every filter in the workspace:
//!
//! * **partitioned** — the §III layout shared by BF-g, PCBF-g and MPCBF-g:
//!   a word-selector stream (`WORD_SALT`) picks `g` words out of `l`, and
//!   per word `t` an independent salted stream (`GROUP_SALT ^ t`) yields
//!   that group's in-word positions, with the `k` hashes spread over
//!   groups by `split_hashes`.
//! * **flat** — the classic unpartitioned layout of Bloom/CBF: one
//!   unsalted double-hashing stream over the whole array.
//!
//! Two containers hold plans:
//!
//! * [`ProbePlan`] — one key's plan as a flat fixed-size value, for the
//!   single-key planned paths (e.g. the sharded filter's scalar
//!   operations).
//! * [`PlanBuffer`] — a whole batch's plans in compact structure-of-arrays
//!   storage that callers hold across batches. Per key it stores exactly
//!   `g` word indices and `k` slots (the group layout is uniform across
//!   keys, so it is stored once), and a reused buffer performs **zero
//!   allocations** after warm-up. This replaced a `Vec<ProbePlan>` per
//!   batch: at ~580 zero-initialised bytes per key for a k=3 plan, the
//!   old representation's memset + allocation cost alone pushed batch
//!   queries below scalar speed.
//!
//! Plans cost pure hashing; the paper's access-bandwidth metering charges
//! only *evaluated* address bits, so planning eagerly does not change any
//! reported [`OpCost`](crate::OpCost) — the probe stage replays the plan
//! in exactly the scalar order, including query short-circuiting.

use crate::{split_hashes, GROUP_SALT, WORD_SALT};
use mpcbf_hash::DoubleHasher;

/// Upper bound on probe groups per plan (`g ≤ k ≤ 64`).
pub const MAX_GROUPS: usize = 64;

/// Upper bound on total probes per plan (`k ≤ 64`).
pub const MAX_PROBES: usize = 64;

/// Batches smaller than this degrade to the scalar path.
///
/// Planning a batch costs a pass over the keys before any probing starts;
/// for one- or two-key "batches" that staging overhead is pure loss (the
/// measured batch-1 query ran at 0.51x scalar before this threshold
/// existed). Four keys is where the pipelined pass starts winning on the
/// bench harness; below it, every filter's `_with` override falls back to
/// the plain scalar loop — which is observationally identical by the batch
/// contract.
pub const SMALL_BATCH: usize = 4;

/// The precomputed probe targets of one key: the hash stage of the batch
/// pipeline, separated from the probe stage.
///
/// A plan is a flat fixed-size value (no heap). Batch paths do **not**
/// build one per key any more — they fill a [`PlanBuffer`] — but the
/// single-key planned paths (sharded scalar operations, the lock-free
/// filter's scalar CAS loops) still use it.
#[derive(Debug, Clone, Copy)]
pub struct ProbePlan {
    /// Target word per group (partitioned plans); unused for flat plans.
    words: [u32; MAX_GROUPS],
    /// Probe count per group; group `t`'s probes are the next
    /// `group_len[t]` entries of `slots`.
    group_len: [u8; MAX_GROUPS],
    groups: u8,
    /// In-word positions (partitioned) or global positions (flat), in
    /// exactly the order the scalar path would evaluate them.
    slots: [u32; MAX_PROBES],
    probes: u8,
}

/// Distinct values in `words` — the fused batch paths' replacement for a
/// per-key `WordTouches` tracker: same dedup semantics (a plan has at
/// most 64 groups, so the scalar tracker never saturates either), but
/// computed by an O(g²) scan over the plan's word slice instead of
/// maintaining a 520-byte zero-initialised tracker per key.
#[inline]
pub fn distinct_words(words: &[u32]) -> u32 {
    let mut n = 0u32;
    for (i, &w) in words.iter().enumerate() {
        if !words[..i].contains(&w) {
            n += 1;
        }
    }
    n
}

/// Validates the shared shape arguments of partitioned planning.
#[inline]
fn check_partitioned_shape(l: u64, k: u32, g: u32, inner_range: u64) {
    assert!(k >= 1 && k <= MAX_PROBES as u32, "k = {k} out of 1..=64");
    assert!(g >= 1 && g <= k, "g = {g} out of 1..=k");
    assert!(l <= 1 << 32, "word count {l} exceeds u32 plan entries");
    assert!(
        inner_range <= 1 << 32,
        "inner range {inner_range} exceeds u32 plan entries"
    );
}

impl ProbePlan {
    /// Plans a key for the partitioned layout: `g` words drawn from
    /// `[0, l)` by the `WORD_SALT`-salted selector stream, and
    /// per group `t` the `split_hashes(k, g, t)` positions in
    /// `[0, inner_range)` drawn from the `GROUP_SALT ^ t` stream.
    ///
    /// This is bit-for-bit the hashing of the scalar `for_each_position`
    /// walks in `BfG`, `Pcbf` and `Mpcbf`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64`, `g == 0` or `g > k`.
    pub fn partitioned(digest: u128, l: u64, k: u32, g: u32, inner_range: u64) -> Self {
        check_partitioned_shape(l, k, g, inner_range);
        let mut plan = ProbePlan {
            words: [0; MAX_GROUPS],
            group_len: [0; MAX_GROUPS],
            groups: g as u8,
            slots: [0; MAX_PROBES],
            probes: 0,
        };
        let mut word_picker = DoubleHasher::with_salt(digest, WORD_SALT, l);
        for t in 0..g {
            plan.words[t as usize] = word_picker.next_index() as u32;
            let k_t = split_hashes(k, g, t);
            plan.group_len[t as usize] = k_t as u8;
            let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT ^ u64::from(t), inner_range);
            for _ in 0..k_t {
                plan.slots[plan.probes as usize] = inner.next_index() as u32;
                plan.probes += 1;
            }
        }
        plan
    }

    /// Plans a key for the flat layout: `k` positions in `[0, range)` from
    /// the unsalted double-hashing stream — the hashing of `BloomFilter`
    /// and `Cbf`.
    ///
    /// Flat plans have no groups; [`ProbePlan::probes`] is the whole plan.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64` or `range > u32::MAX + 1`.
    pub fn flat(digest: u128, k: u32, range: u64) -> Self {
        assert!(k >= 1 && k <= MAX_PROBES as u32, "k = {k} out of 1..=64");
        assert!(
            range <= 1 << 32,
            "flat plan range {range} exceeds u32 positions"
        );
        let mut plan = ProbePlan {
            words: [0; MAX_GROUPS],
            group_len: [0; MAX_GROUPS],
            groups: 0,
            slots: [0; MAX_PROBES],
            probes: k as u8,
        };
        let mut stream = DoubleHasher::new(digest, range);
        for slot in plan.slots.iter_mut().take(k as usize) {
            *slot = stream.next_index() as u32;
        }
        plan
    }

    /// Number of probe groups (`g`; 0 for flat plans).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups as usize
    }

    /// Total probe count (`k`).
    #[inline]
    pub fn probe_count(&self) -> u32 {
        u32::from(self.probes)
    }

    /// All planned positions in scalar evaluation order. For flat plans
    /// these are global positions; for partitioned plans, in-word offsets
    /// concatenated group by group.
    #[inline]
    pub fn probes(&self) -> &[u32] {
        &self.slots[..self.probes as usize]
    }

    /// The target words of a partitioned plan (empty for flat plans).
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words[..self.groups as usize]
    }

    /// Group `t` of a partitioned plan as `(word, in-word probes)`.
    #[inline]
    pub fn group(&self, t: usize) -> (usize, &[u32]) {
        debug_assert!(t < self.groups as usize);
        let start: usize = self.group_len[..t].iter().map(|&n| n as usize).sum();
        let len = self.group_len[t] as usize;
        (self.words[t] as usize, &self.slots[start..start + len])
    }

    /// Iterates a partitioned plan's groups as `(word, in-word probes)`,
    /// in scalar evaluation order.
    #[inline]
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let mut cursor = 0usize;
        (0..self.groups as usize).map(move |t| {
            let len = self.group_len[t] as usize;
            let probes = &self.slots[cursor..cursor + len];
            cursor += len;
            (self.words[t] as usize, probes)
        })
    }
}

/// Reusable, allocation-free storage for a whole batch's probe plans.
///
/// Structure-of-arrays layout: one `u32` per planned word and one per
/// planned slot, contiguous across keys. Because every key of a batch
/// shares the same `(k, g)` shape, the group layout (`split_hashes`
/// lengths and their prefix offsets) is stored once, not per key.
///
/// Callers hold a `PlanBuffer` across batches — each `plan_*` call clears
/// and refills it, so after the first batch at a given size the fill does
/// no allocation at all. The `_with` batch methods on
/// [`Filter`](crate::Filter) / [`CountingFilter`](crate::CountingFilter)
/// take the buffer explicitly; the plain `_batch_cost` entry points
/// allocate a fresh one per call for API compatibility.
#[derive(Debug, Clone)]
pub struct PlanBuffer {
    /// `g` target words per key, contiguous (empty for flat plans).
    words: Vec<u32>,
    /// `k` slots per key, contiguous, in scalar evaluation order.
    slots: Vec<u32>,
    /// Probe count per group (uniform across keys).
    group_len: [u8; MAX_GROUPS],
    /// Prefix offsets of each group inside a key's slot run.
    group_off: [u8; MAX_GROUPS],
    g: u32,
    k: u32,
    keys: usize,
}

impl PlanBuffer {
    /// An empty buffer; the first `plan_*` call sizes it.
    pub fn new() -> Self {
        PlanBuffer {
            words: Vec::new(),
            slots: Vec::new(),
            group_len: [0; MAX_GROUPS],
            group_off: [0; MAX_GROUPS],
            g: 0,
            k: 0,
            keys: 0,
        }
    }

    /// Number of keys planned by the last `plan_*` call.
    #[inline]
    pub fn keys(&self) -> usize {
        self.keys
    }

    /// True when the buffer holds flat (ungrouped) plans.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.g == 0
    }

    /// Groups per key (`g`; 0 for flat plans).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.g as usize
    }

    /// Probes per key (`k`).
    #[inline]
    pub fn probe_count(&self) -> u32 {
        self.k
    }

    /// Drops all planned keys, keeping the storage.
    pub fn clear(&mut self) {
        self.words.clear();
        self.slots.clear();
        self.keys = 0;
    }

    /// Plans a batch for the partitioned layout — the exact hashing of
    /// [`ProbePlan::partitioned`], one entry per digest, reusing storage.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64`, `g == 0` or `g > k`.
    pub fn plan_partitioned(
        &mut self,
        digests: impl Iterator<Item = u128>,
        l: u64,
        k: u32,
        g: u32,
        inner_range: u64,
    ) {
        check_partitioned_shape(l, k, g, inner_range);
        self.clear();
        self.g = g;
        self.k = k;
        let mut off = 0u8;
        for t in 0..g {
            let k_t = split_hashes(k, g, t) as u8;
            self.group_len[t as usize] = k_t;
            self.group_off[t as usize] = off;
            off += k_t;
        }
        if let (_, Some(upper)) = digests.size_hint() {
            self.words.reserve(upper * g as usize);
            self.slots.reserve(upper * k as usize);
        }
        for digest in digests {
            let mut word_picker = DoubleHasher::with_salt(digest, WORD_SALT, l);
            for t in 0..g {
                self.words.push(word_picker.next_index() as u32);
                let k_t = split_hashes(k, g, t);
                let mut inner =
                    DoubleHasher::with_salt(digest, GROUP_SALT ^ u64::from(t), inner_range);
                for _ in 0..k_t {
                    self.slots.push(inner.next_index() as u32);
                }
            }
            self.keys += 1;
        }
    }

    /// Plans a batch for the flat layout — the exact hashing of
    /// [`ProbePlan::flat`], one entry per digest, reusing storage. Flat
    /// plans carry no group bookkeeping at all: consumers walk
    /// [`PlanBuffer::slots_of`] directly.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > 64` or `range > u32::MAX + 1`.
    pub fn plan_flat(&mut self, digests: impl Iterator<Item = u128>, k: u32, range: u64) {
        assert!(k >= 1 && k <= MAX_PROBES as u32, "k = {k} out of 1..=64");
        assert!(
            range <= 1 << 32,
            "flat plan range {range} exceeds u32 positions"
        );
        self.clear();
        self.g = 0;
        self.k = k;
        if let (_, Some(upper)) = digests.size_hint() {
            self.slots.reserve(upper * k as usize);
        }
        for digest in digests {
            let mut stream = DoubleHasher::new(digest, range);
            for _ in 0..k {
                self.slots.push(stream.next_index() as u32);
            }
            self.keys += 1;
        }
    }

    /// Key `i`'s `k` slots in scalar evaluation order.
    #[inline]
    pub fn slots_of(&self, i: usize) -> &[u32] {
        let k = self.k as usize;
        &self.slots[i * k..(i + 1) * k]
    }

    /// Key `i`'s `g` target words (empty for flat plans).
    #[inline]
    pub fn words_of(&self, i: usize) -> &[u32] {
        let g = self.g as usize;
        &self.words[i * g..(i + 1) * g]
    }

    /// Key `i`'s group `t` as `(word, in-word probes)`.
    #[inline]
    pub fn group(&self, i: usize, t: usize) -> (usize, &[u32]) {
        debug_assert!(t < self.g as usize);
        let word = self.words[i * self.g as usize + t] as usize;
        let base = i * self.k as usize + self.group_off[t] as usize;
        (word, &self.slots[base..base + self.group_len[t] as usize])
    }

    /// Iterates key `i`'s groups as `(word, in-word probes)`, in scalar
    /// evaluation order.
    #[inline]
    pub fn groups_of(&self, i: usize) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.g as usize).map(move |t| self.group(i, t))
    }
}

impl Default for PlanBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_hash::{Hasher128, Murmur3};

    fn digest(key: u64) -> u128 {
        Murmur3::hash128(7, &key.to_le_bytes())
    }

    #[test]
    fn partitioned_matches_scalar_hashing() {
        // The plan must replay exactly the word-selector and per-group
        // streams the scalar for_each_position walks.
        let (l, k, g, b1) = (4096u64, 3u32, 2u32, 40u64);
        for key in 0..200u64 {
            let d = digest(key);
            let plan = ProbePlan::partitioned(d, l, k, g, b1);
            assert_eq!(plan.group_count(), g as usize);
            assert_eq!(plan.probe_count(), k);
            let mut picker = DoubleHasher::with_salt(d, WORD_SALT, l);
            let mut seen = 0u32;
            for (t, (word, probes)) in plan.groups().enumerate() {
                assert_eq!(word, picker.next_index());
                let k_t = split_hashes(k, g, t as u32);
                assert_eq!(probes.len() as u32, k_t);
                let mut inner = DoubleHasher::with_salt(d, GROUP_SALT ^ t as u64, b1);
                for &p in probes {
                    assert_eq!(p as usize, inner.next_index());
                }
                seen += k_t;
            }
            assert_eq!(seen, k);
        }
    }

    #[test]
    fn flat_matches_scalar_hashing() {
        let (k, m) = (5u32, 1u64 << 20);
        for key in 0..200u64 {
            let d = digest(key);
            let plan = ProbePlan::flat(d, k, m);
            assert_eq!(plan.group_count(), 0);
            let mut stream = DoubleHasher::new(d, m);
            for &p in plan.probes() {
                assert_eq!(p as usize, stream.next_index());
            }
        }
    }

    #[test]
    fn groups_cover_all_probes_in_order() {
        let plan = ProbePlan::partitioned(digest(9), 1 << 16, 7, 3, 61);
        let via_groups: Vec<u32> = plan
            .groups()
            .flat_map(|(_, probes)| probes.iter().copied())
            .collect();
        assert_eq!(via_groups.as_slice(), plan.probes());
        // split_hashes(7, 3, ·) = [3, 2, 2].
        let lens: Vec<usize> = plan.groups().map(|(_, p)| p.len()).collect();
        assert_eq!(lens, vec![3, 2, 2]);
        for (t, group) in plan.groups().enumerate() {
            assert_eq!(plan.group(t), group, "group {t}");
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = ProbePlan::partitioned(digest(3), 500, 4, 2, 33);
        let b = ProbePlan::partitioned(digest(3), 500, 4, 2, 33);
        assert_eq!(a.words(), b.words());
        assert_eq!(a.probes(), b.probes());
    }

    #[test]
    fn buffer_matches_per_key_plans_partitioned() {
        let (l, k, g, b1) = (4096u64, 7u32, 3u32, 40u64);
        let mut buf = PlanBuffer::new();
        buf.plan_partitioned((0..100u64).map(digest), l, k, g, b1);
        assert_eq!(buf.keys(), 100);
        assert_eq!(buf.group_count(), g as usize);
        assert!(!buf.is_flat());
        for i in 0..100usize {
            let plan = ProbePlan::partitioned(digest(i as u64), l, k, g, b1);
            assert_eq!(buf.words_of(i), plan.words(), "key {i}");
            assert_eq!(buf.slots_of(i), plan.probes(), "key {i}");
            let from_buf: Vec<_> = buf.groups_of(i).collect();
            let from_plan: Vec<_> = plan.groups().collect();
            assert_eq!(from_buf, from_plan, "key {i}");
            for (t, expect) in plan.groups().enumerate() {
                assert_eq!(buf.group(i, t), expect, "key {i} group {t}");
            }
        }
    }

    #[test]
    fn buffer_matches_per_key_plans_flat() {
        let (k, m) = (5u32, 1u64 << 20);
        let mut buf = PlanBuffer::new();
        buf.plan_flat((0..50u64).map(digest), k, m);
        assert_eq!(buf.keys(), 50);
        assert!(buf.is_flat());
        assert_eq!(buf.group_count(), 0);
        for i in 0..50usize {
            let plan = ProbePlan::flat(digest(i as u64), k, m);
            assert_eq!(buf.slots_of(i), plan.probes(), "key {i}");
        }
    }

    #[test]
    fn buffer_reuse_is_bit_identical_across_shapes() {
        // Refilling a used buffer — same shape, different shape, different
        // batch size — must behave exactly like a fresh buffer.
        let mut reused = PlanBuffer::new();
        reused.plan_partitioned((0..64u64).map(digest), 1 << 16, 3, 2, 61);
        reused.plan_flat((0..10u64).map(digest), 4, 1 << 20);
        reused.plan_partitioned((5..37u64).map(digest), 4096, 7, 3, 40);

        let mut fresh = PlanBuffer::new();
        fresh.plan_partitioned((5..37u64).map(digest), 4096, 7, 3, 40);
        assert_eq!(reused.keys(), fresh.keys());
        for i in 0..fresh.keys() {
            assert_eq!(reused.words_of(i), fresh.words_of(i));
            assert_eq!(reused.slots_of(i), fresh.slots_of(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=k")]
    fn partitioned_rejects_g_above_k() {
        let _ = ProbePlan::partitioned(1, 64, 2, 3, 8);
    }

    #[test]
    #[should_panic(expected = "out of 1..=k")]
    fn buffer_rejects_g_above_k() {
        PlanBuffer::new().plan_partitioned(std::iter::once(1), 64, 2, 3, 8);
    }
}
