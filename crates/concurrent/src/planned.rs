//! The planned operation bodies both concurrent filters share.
//!
//! A key is planned once — alone into a [`ProbePlan`] (scalar entry
//! points) or as one row of a batch's [`PlanBuffer`] — and each body below
//! runs over that plan group by group and returns the operation's
//! [`OpCost`]. The plain entry points discard the cost; the `*_metered`
//! batch entry points sum it and report it to an [`OpSink`]. The two
//! filters differ only in how one group reaches its word: under the shard
//! lock ([`ShardedMpcbf`](crate::ShardedMpcbf)) or inside a CAS loop
//! ([`AtomicMpcbf`](crate::AtomicMpcbf)).

use mpcbf_bitvec::Word;
use mpcbf_core::hcbf::{HcbfWord, WordError};
use mpcbf_core::metrics::{OpCost, OpKind, OpSink};
use mpcbf_core::plan::distinct_words;
use mpcbf_core::scrub::segment_of;
use mpcbf_core::{FilterError, PlanBuffer, ProbePlan};
use std::time::Instant;

/// One key's probe plan, indexed by group.
pub(crate) trait KeyPlan {
    /// The key's target words, one per group, in plan order.
    fn words(&self) -> &[u32];
    /// Group `t` as `(word, in-word probes)`.
    fn group(&self, t: usize) -> (usize, &[u32]);
}

impl KeyPlan for ProbePlan {
    #[inline]
    fn words(&self) -> &[u32] {
        ProbePlan::words(self)
    }

    #[inline]
    fn group(&self, t: usize) -> (usize, &[u32]) {
        ProbePlan::group(self, t)
    }
}

/// Row `i` of a batch's plan buffer.
pub(crate) struct Row<'a>(pub(crate) &'a PlanBuffer, pub(crate) usize);

impl KeyPlan for Row<'_> {
    #[inline]
    fn words(&self) -> &[u32] {
        self.0.words_of(self.1)
    }

    #[inline]
    fn group(&self, t: usize) -> (usize, &[u32]) {
        self.0.group(self.1, t)
    }
}

/// The hash-bit prices of one planned operation, fixed by the filter's
/// shape. An operation costs its distinct words touched, plus
/// `route_bits` + `word_bits` per evaluated group + `pos_bits` per
/// evaluated probe + any counter-traversal bits an update reports — the
/// sequential filter's accounting, with `route_bits` for any address
/// entropy spent before planning.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Meter {
    /// Bits spent routing the key before planning (the shard selector).
    pub(crate) route_bits: u32,
    /// Bits per evaluated word-picker draw.
    pub(crate) word_bits: u32,
    /// Bits per evaluated in-word position.
    pub(crate) pos_bits: u32,
    /// Probes an update evaluates (`k`).
    pub(crate) probes: u32,
}

impl Meter {
    #[inline]
    fn cost(&self, words: &[u32], pos_eval: u32, traversal_bits: u32) -> OpCost {
        OpCost {
            word_accesses: distinct_words(words),
            hash_bits: self.route_bits
                + words.len() as u32 * self.word_bits
                + pos_eval * self.pos_bits
                + traversal_bits,
        }
    }
}

/// Which update a planned body applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Update {
    Insert,
    Remove,
}

impl Update {
    /// The update that undoes this one.
    #[inline]
    fn inverse(self) -> Update {
        match self {
            Update::Insert => Update::Remove,
            Update::Remove => Update::Insert,
        }
    }

    /// Runs this update on every probe of one word group, all-or-nothing;
    /// returns the summed traversal bits.
    #[inline]
    pub(crate) fn walk<W: Word>(
        self,
        word: &mut HcbfWord<W>,
        probes: &[u32],
        b1: u32,
    ) -> Result<u32, WordError> {
        match self {
            Update::Insert => word.increment_all(probes, b1),
            Update::Remove => word.decrement_all(probes, b1),
        }
    }
}

/// Queries a planned key through `probe`, which evaluates one group's
/// probes against its word and returns `(all set, probes evaluated)`.
/// Stops at the first zero, exactly as the scalar walk does.
#[inline]
pub(crate) fn query(
    plan: &impl KeyPlan,
    meter: Meter,
    mut probe: impl FnMut(usize, &[u32]) -> (bool, u32),
) -> (bool, OpCost) {
    let words = plan.words();
    let mut pos_eval = 0u32;
    for t in 0..words.len() {
        let (word, probes) = plan.group(t);
        let (all_set, evaluated) = probe(word, probes);
        pos_eval += evaluated;
        if !all_set {
            return (false, meter.cost(&words[..=t], pos_eval, 0));
        }
    }
    (true, meter.cost(words, pos_eval, 0))
}

/// Applies `op` to a planned key group by group through `apply`, which
/// runs the given [`Update::walk`] on one group's word.
///
/// If a group refuses, the groups already applied are undone in reverse
/// and the refusal returned: `WordOverflow` at the refusing word for an
/// insert, `NotPresent` for a remove. A refused operation costs nothing.
/// An undo that itself fails means a word no longer holds what this call
/// wrote — damage, or on the lock-free filter a racing writer — and is
/// reported as `CorruptionDetected` at that word's segment (local to the
/// word array `apply` indexes) instead of a panic.
#[inline]
pub(crate) fn update(
    plan: &impl KeyPlan,
    op: Update,
    meter: Meter,
    mut apply: impl FnMut(usize, &[u32], Update) -> Result<u32, WordError>,
) -> Result<OpCost, FilterError> {
    let words = plan.words();
    let mut traversal_bits = 0u32;
    for t in 0..words.len() {
        let (word, probes) = plan.group(t);
        match apply(word, probes, op) {
            Ok(bits) => traversal_bits += bits,
            Err(_) => {
                for u in (0..t).rev() {
                    let (rw, rp) = plan.group(u);
                    if apply(rw, rp, op.inverse()).is_err() {
                        return Err(FilterError::CorruptionDetected {
                            segment: segment_of(rw),
                        });
                    }
                }
                return Err(match op {
                    Update::Insert => FilterError::WordOverflow { word },
                    Update::Remove => FilterError::NotPresent,
                });
            }
        }
    }
    Ok(meter.cost(words, meter.probes, traversal_bits))
}

/// Runs one batch and reports it to `sink` as a single `(kind, ops, cost,
/// wall nanos)` sample, as `CountingFilter::*_batch_metered` does. The
/// sink only observes: the batch's results and cost pass through.
pub(crate) fn metered<T>(
    sink: &dyn OpSink,
    kind: OpKind,
    ops: usize,
    batch: impl FnOnce() -> (T, OpCost),
) -> (T, OpCost) {
    let t = Instant::now();
    let (results, cost) = batch();
    sink.record_batch(kind, ops as u64, cost, t.elapsed().as_nanos() as u64);
    (results, cost)
}

/// A thread-safe [`OpSink`] summing `(ops, cost)` per kind, shared by the
/// filters' metering tests.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct TallySink {
    totals: std::sync::Mutex<[(u64, OpCost); 3]>,
}

#[cfg(test)]
impl TallySink {
    /// The `(ops, summed cost)` recorded for `kind`.
    pub(crate) fn kind(&self, kind: OpKind) -> (u64, OpCost) {
        self.totals.lock().unwrap()[kind as usize]
    }
}

#[cfg(test)]
impl OpSink for TallySink {
    fn record_batch(&self, kind: OpKind, ops: u64, cost: OpCost, _nanos: u64) {
        let (o, c) = &mut self.totals.lock().unwrap()[kind as usize];
        *o += ops;
        *c = c.add(cost);
    }
}
