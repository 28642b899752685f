//! Access metering: the paper's "processing overhead" metrics.
//!
//! The paper characterises every filter by (a) **memory accesses** per
//! operation — the number of distinct machine words fetched — and (b)
//! **access bandwidth** — the number of hash/address bits the operation
//! consumes (Tables I–III, Fig. 11). Queries *short-circuit*: a membership
//! check stops at the first zero position, which is why the paper's
//! measured per-query averages are fractional (e.g. 2.1 accesses for CBF
//! and 1.8 for MPCBF-2 at k = 3).
//!
//! Each filter operation returns an [`OpCost`]; harnesses fold them into an
//! [`AccessStats`] ledger per operation kind.

/// The kind of a filter operation, for sinks that ledger per kind (the
/// split the paper's tables use: queries vs. updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Membership query.
    Query,
    /// Insertion.
    Insert,
    /// Deletion.
    Remove,
}

impl OpKind {
    /// Stable lowercase label (used as a metric label by exporters).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
        }
    }

    /// All kinds, in ledger order.
    pub const ALL: [OpKind; 3] = [OpKind::Query, OpKind::Insert, OpKind::Remove];
}

/// A consumer of operation telemetry: the metered batch methods on
/// [`Filter`](crate::traits::Filter) report each batch call here as
/// `(kind, ops, summed cost, wall nanos)`.
///
/// Takes `&self` so one sink can be shared across threads; implementations
/// are expected to use interior mutability (atomics). The telemetry crate's
/// registry is the primary implementation; [`NoopSink`] is the zero-cost
/// default.
pub trait OpSink {
    /// Records one batch call: `ops` operations of `kind`, their summed
    /// [`OpCost`], and the wall-clock nanoseconds the batch took.
    fn record_batch(&self, kind: OpKind, ops: u64, cost: OpCost, nanos: u64);
}

/// An [`OpSink`] that discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl OpSink for NoopSink {
    #[inline]
    fn record_batch(&self, _kind: OpKind, _ops: u64, _cost: OpCost, _nanos: u64) {}
}

/// The metered cost of one filter operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Distinct machine words fetched.
    pub word_accesses: u32,
    /// Hash/address bits consumed (the paper's access bandwidth).
    pub hash_bits: u32,
}

impl OpCost {
    /// A zero cost.
    #[inline]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise sum.
    #[inline]
    #[allow(clippy::should_implement_trait)] // not an `Add` impl: takes/returns by value for metering folds
    pub fn add(self, other: OpCost) -> OpCost {
        OpCost {
            word_accesses: self.word_accesses + other.word_accesses,
            hash_bits: self.hash_bits + other.hash_bits,
        }
    }

    /// Folds per-key costs into one batch total.
    ///
    /// Batch operations report a single summed [`OpCost`]; this is the
    /// canonical fold so every batch path aggregates identically to a
    /// scalar loop calling [`OpCost::add`] per key.
    #[inline]
    pub fn accumulate<I: IntoIterator<Item = OpCost>>(costs: I) -> OpCost {
        costs.into_iter().fold(OpCost::zero(), OpCost::add)
    }
}

/// Running totals for one kind of operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    ops: u64,
    word_accesses: u64,
    hash_bits: u64,
}

impl OpTally {
    /// Records one operation's cost.
    #[inline]
    pub fn record(&mut self, cost: OpCost) {
        self.ops += 1;
        self.word_accesses += u64::from(cost.word_accesses);
        self.hash_bits += u64::from(cost.hash_bits);
    }

    /// Number of operations recorded.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total distinct-word accesses recorded.
    #[inline]
    pub fn total_accesses(&self) -> u64 {
        self.word_accesses
    }

    /// Total hash/address bits recorded.
    #[inline]
    pub fn total_hash_bits(&self) -> u64 {
        self.hash_bits
    }

    /// Mean memory accesses per operation (0 if none recorded).
    #[inline]
    pub fn mean_accesses(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.word_accesses as f64 / self.ops as f64
        }
    }

    /// Mean access bandwidth (hash bits) per operation.
    #[inline]
    pub fn mean_hash_bits(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.hash_bits as f64 / self.ops as f64
        }
    }

    /// Merges another tally into this one.
    #[inline]
    pub fn merge(&mut self, other: &OpTally) {
        self.ops += other.ops;
        self.word_accesses += other.word_accesses;
        self.hash_bits += other.hash_bits;
    }
}

/// Ledger of operation costs, split by kind as the paper's tables are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Membership queries.
    pub queries: OpTally,
    /// Insertions.
    pub inserts: OpTally,
    /// Deletions.
    pub removes: OpTally,
}

impl AccessStats {
    /// A fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Combined update tally (inserts + removes), as Table II reports.
    pub fn updates(&self) -> OpTally {
        let mut t = self.inserts;
        t.merge(&self.removes);
        t
    }

    /// Merges another ledger.
    pub fn merge(&mut self, other: &AccessStats) {
        self.queries.merge(&other.queries);
        self.inserts.merge(&other.inserts);
        self.removes.merge(&other.removes);
    }
}

/// A point-in-time saturation snapshot of a counting filter.
///
/// The paper sizes words so overflow "never" happens on the expected
/// workload; production traffic is skewed, so operators need to *see* how
/// close a filter is to that cliff. `fill_ratio` and `max_word_load` track
/// the main structure; the `spill_*` fields are nonzero only for
/// [`ResilientMpcbf`](crate::resilient::ResilientMpcbf), which absorbs
/// overflowing keys into a side structure instead of refusing them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// Net elements currently stored (main structure).
    pub items: u64,
    /// Stored increments over total hierarchy capacity, in `[0, 1]`.
    pub fill_ratio: f64,
    /// Increments stored in the most loaded word.
    pub max_word_load: u32,
    /// Increments one word can hold (`w − b1`).
    pub word_capacity: u32,
    /// Inserts the main structure refused because a word overflowed.
    pub overflows: u64,
    /// Distinct keys currently living in the spill structure.
    pub spill_keys: u64,
    /// Total multiplicity stored in the spill structure.
    pub spill_occupancy: u64,
    /// Lifetime count of inserts routed to the spill structure.
    pub spilled_inserts: u64,
}

impl HealthReport {
    /// True if any key currently lives in the spill structure.
    pub fn is_spilling(&self) -> bool {
        self.spill_occupancy > 0
    }

    /// True if the most loaded word has no room for another increment —
    /// the next insert hashing there will overflow (or spill).
    pub fn is_saturated(&self) -> bool {
        self.max_word_load >= self.word_capacity
    }

    /// One-number capacity-pressure summary in `[0, 1]` and beyond.
    ///
    /// Defined as the worst of the average fill ratio and the hottest
    /// word's load fraction, clamped up to at least `1.0` whenever the
    /// structure has already overflowed or is spilling — those states mean
    /// the shape has *demonstrably* run out of room regardless of what
    /// the averages claim. A
    /// [`CapacityPolicy`](crate::policy::CapacityPolicy) compares this
    /// summary (plus the raw spill gauges) against its thresholds to
    /// decide when an elastic filter must grow.
    pub fn pressure(&self) -> f64 {
        let word_pressure = if self.word_capacity == 0 {
            0.0
        } else {
            f64::from(self.max_word_load) / f64::from(self.word_capacity)
        };
        let p = self.fill_ratio.max(word_pressure);
        if self.overflows > 0 || self.is_spilling() {
            p.max(1.0)
        } else {
            p
        }
    }
}

/// Deduplicating tracker for word indices touched within one operation.
///
/// Operations touch at most a handful of words (`g ≤ 8` for MPCBF, `k ≤ 64`
/// for CBF), so a linear scan over a stack buffer beats any hash set.
#[derive(Debug)]
pub struct WordTouches {
    seen: [usize; 64],
    len: usize,
}

impl WordTouches {
    /// An empty tracker.
    #[inline]
    pub fn new() -> Self {
        WordTouches {
            seen: [0; 64],
            len: 0,
        }
    }

    /// Records a touch of `word`; duplicate touches are free (a word
    /// already fetched this operation stays in registers/cache).
    #[inline]
    pub fn touch(&mut self, word: usize) {
        if self.seen[..self.len].contains(&word) {
            return;
        }
        // If an operation somehow touches more than 64 distinct words we
        // saturate rather than panic; no paper configuration approaches it.
        if self.len < self.seen.len() {
            self.seen[self.len] = word;
            self.len += 1;
        }
    }

    /// Number of distinct words touched.
    #[inline]
    pub fn count(&self) -> u32 {
        self.len as u32
    }
}

impl Default for WordTouches {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_adds() {
        let a = OpCost {
            word_accesses: 1,
            hash_bits: 22,
        };
        let b = OpCost {
            word_accesses: 2,
            hash_bits: 10,
        };
        assert_eq!(
            a.add(b),
            OpCost {
                word_accesses: 3,
                hash_bits: 32
            }
        );
        assert_eq!(OpCost::zero().add(a), a);
    }

    #[test]
    fn op_cost_accumulates() {
        let costs = [
            OpCost {
                word_accesses: 1,
                hash_bits: 22,
            },
            OpCost {
                word_accesses: 2,
                hash_bits: 10,
            },
            OpCost {
                word_accesses: 4,
                hash_bits: 8,
            },
        ];
        assert_eq!(
            OpCost::accumulate(costs),
            OpCost {
                word_accesses: 7,
                hash_bits: 40
            }
        );
        assert_eq!(OpCost::accumulate(std::iter::empty()), OpCost::zero());
    }

    #[test]
    fn tally_means() {
        let mut t = OpTally::default();
        t.record(OpCost {
            word_accesses: 1,
            hash_bits: 30,
        });
        t.record(OpCost {
            word_accesses: 3,
            hash_bits: 50,
        });
        assert_eq!(t.ops(), 2);
        assert!((t.mean_accesses() - 2.0).abs() < 1e-12);
        assert!((t.mean_hash_bits() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_is_zero() {
        let t = OpTally::default();
        assert_eq!(t.mean_accesses(), 0.0);
        assert_eq!(t.mean_hash_bits(), 0.0);
    }

    #[test]
    fn updates_combines_inserts_and_removes() {
        let mut s = AccessStats::new();
        s.inserts.record(OpCost {
            word_accesses: 1,
            hash_bits: 10,
        });
        s.removes.record(OpCost {
            word_accesses: 3,
            hash_bits: 20,
        });
        let u = s.updates();
        assert_eq!(u.ops(), 2);
        assert!((u.mean_accesses() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn word_touches_dedupes() {
        let mut t = WordTouches::new();
        t.touch(5);
        t.touch(9);
        t.touch(5);
        t.touch(9);
        t.touch(1);
        assert_eq!(t.count(), 3);
    }

    #[test]
    fn word_touches_saturates_safely() {
        let mut t = WordTouches::new();
        for w in 0..100 {
            t.touch(w);
        }
        assert_eq!(t.count(), 64);
    }

    #[test]
    fn stats_merge() {
        let mut a = AccessStats::new();
        a.queries.record(OpCost {
            word_accesses: 1,
            hash_bits: 1,
        });
        let mut b = AccessStats::new();
        b.queries.record(OpCost {
            word_accesses: 3,
            hash_bits: 3,
        });
        a.merge(&b);
        assert_eq!(a.queries.ops(), 2);
        assert!((a.queries.mean_accesses() - 2.0).abs() < 1e-12);
    }
}
