//! Batch protocol driver: replays workload protocols through the
//! batch-first query pipeline.
//!
//! The generators in this crate produce *pure data* — key streams, churn
//! periods, Zipf-shaped query mixes. This module is the bridge to a
//! filter: each protocol phase is chunked into fixed-size batches and
//! driven through the batch API ([`Filter::insert_batch_with`],
//! [`Filter::contains_batch_with`], [`CountingFilter::remove_batch_with`]),
//! which plans hash → probe per chunk into one [`PlanBuffer`] held across
//! the whole phase, so a replay stops allocating after its first chunk.
//! The batch ops are equivalence-tested against the scalar loop, so a
//! batched replay observes exactly the hits, failures and costs a scalar
//! replay would — harnesses can switch between the two and compare
//! throughput only.

use crate::churn::ChurnPlan;
use crate::faults::{FaultPlan, StreamFaultLog};
use crate::flowtrace::FlowTrace;
use crate::synthetic::SyntheticWorkload;
use mpcbf_core::metrics::{OpCost, OpSink};
use mpcbf_core::{CountingFilter, Filter, PlanBuffer};
use mpcbf_hash::Key;

/// Default keys per batch: large enough to amortise the hash stage and
/// keep several word walks in flight, small enough to stay cache-resident.
pub const DEFAULT_BATCH: usize = 64;

/// Aggregate outcome of a batched replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverReport {
    /// Insertions attempted.
    pub inserts: u64,
    /// Insertions refused (word overflow).
    pub insert_failures: u64,
    /// Deletions attempted.
    pub deletes: u64,
    /// Deletions refused (element not present).
    pub delete_failures: u64,
    /// Membership queries issued.
    pub queries: u64,
    /// Queries answered positively.
    pub hits: u64,
    /// Positive answers to queries the workload's membership oracle knows
    /// to be non-members (only counted when an oracle is supplied).
    pub false_positives: u64,
    /// Summed [`OpCost`] across every batched operation.
    pub cost: OpCost,
}

fn insert_batched_inner<F: Filter, K: Key>(
    filter: &mut F,
    keys: &[K],
    batch: usize,
    report: &mut DriverReport,
    sink: Option<&dyn OpSink>,
) {
    let mut plans = PlanBuffer::new();
    for chunk in keys.chunks(batch.max(1)) {
        let owned: Vec<_> = chunk.iter().map(Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        let (results, cost) = match sink {
            Some(sink) => filter.insert_batch_metered(&views, sink),
            None => filter.insert_batch_with(&views, &mut plans),
        };
        report.inserts += results.len() as u64;
        report.insert_failures += results.iter().filter(|r| r.is_err()).count() as u64;
        report.cost = report.cost.add(cost);
    }
}

/// Inserts `keys` in `batch`-sized chunks.
pub fn insert_batched<F: Filter, K: Key>(
    filter: &mut F,
    keys: &[K],
    batch: usize,
    report: &mut DriverReport,
) {
    insert_batched_inner(filter, keys, batch, report, None);
}

fn remove_batched_inner<F: CountingFilter, K: Key>(
    filter: &mut F,
    keys: &[K],
    batch: usize,
    report: &mut DriverReport,
    sink: Option<&dyn OpSink>,
) {
    let mut plans = PlanBuffer::new();
    for chunk in keys.chunks(batch.max(1)) {
        let owned: Vec<_> = chunk.iter().map(Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        let (results, cost) = match sink {
            Some(sink) => filter.remove_batch_metered(&views, sink),
            None => filter.remove_batch_with(&views, &mut plans),
        };
        report.deletes += results.len() as u64;
        report.delete_failures += results.iter().filter(|r| r.is_err()).count() as u64;
        report.cost = report.cost.add(cost);
    }
}

/// Removes `keys` in `batch`-sized chunks.
pub fn remove_batched<F: CountingFilter, K: Key>(
    filter: &mut F,
    keys: &[K],
    batch: usize,
    report: &mut DriverReport,
) {
    remove_batched_inner(filter, keys, batch, report, None);
}

fn query_batched_inner<F: Filter, K: Key>(
    filter: &F,
    keys: &[K],
    is_member: Option<&[bool]>,
    batch: usize,
    report: &mut DriverReport,
    sink: Option<&dyn OpSink>,
) {
    if let Some(oracle) = is_member {
        assert_eq!(oracle.len(), keys.len(), "oracle must be parallel to keys");
    }
    let batch = batch.max(1);
    let mut plans = PlanBuffer::new();
    for (c, chunk) in keys.chunks(batch).enumerate() {
        let owned: Vec<_> = chunk.iter().map(Key::key_bytes).collect();
        let views: Vec<&[u8]> = owned.iter().map(|b| b.as_slice()).collect();
        let (answers, cost) = match sink {
            Some(sink) => filter.contains_batch_metered(&views, sink),
            None => filter.contains_batch_with(&views, &mut plans),
        };
        report.queries += answers.len() as u64;
        report.hits += answers.iter().filter(|&&a| a).count() as u64;
        if let Some(oracle) = is_member {
            let truth = &oracle[c * batch..c * batch + chunk.len()];
            report.false_positives += answers
                .iter()
                .zip(truth)
                .filter(|&(&a, &m)| a && !m)
                .count() as u64;
        }
        report.cost = report.cost.add(cost);
    }
}

/// Queries `keys` in `batch`-sized chunks. `is_member`, when given, must
/// be parallel to `keys`; positives on known non-members are counted as
/// false positives.
pub fn query_batched<F: Filter, K: Key>(
    filter: &F,
    keys: &[K],
    is_member: Option<&[bool]>,
    batch: usize,
    report: &mut DriverReport,
) {
    query_batched_inner(filter, keys, is_member, batch, report, None);
}

fn churn_batched_inner<F: CountingFilter, K: Key>(
    filter: &mut F,
    plan: &ChurnPlan<K>,
    batch: usize,
    report: &mut DriverReport,
    sink: Option<&dyn OpSink>,
) {
    for period in &plan.periods {
        remove_batched_inner(filter, &period.deletes, batch, report, sink);
        insert_batched_inner(filter, &period.inserts, batch, report, sink);
    }
}

/// Replays a [`ChurnPlan`]: per period, batched deletes then batched
/// inserts — the paper's update-period protocol (§IV.A).
pub fn churn_batched<F: CountingFilter, K: Key>(
    filter: &mut F,
    plan: &ChurnPlan<K>,
    batch: usize,
    report: &mut DriverReport,
) {
    churn_batched_inner(filter, plan, batch, report, None);
}

/// Replays the §IV.A synthetic protocol: insert the test set, run the
/// query stream (with FPR accounting against the workload's oracle), then
/// the churn periods.
pub fn replay_synthetic<F: CountingFilter>(
    filter: &mut F,
    workload: &SyntheticWorkload,
    batch: usize,
) -> DriverReport {
    replay_synthetic_inner(filter, workload, batch, None)
}

/// [`replay_synthetic`], additionally streaming every batch's
/// [`OpCost`]/latency into `sink` — the telemetry-backed replay used by
/// the bench validation harness and the CLI's `--telemetry` mode.
pub fn replay_synthetic_metered<F: CountingFilter>(
    filter: &mut F,
    workload: &SyntheticWorkload,
    batch: usize,
    sink: &dyn OpSink,
) -> DriverReport {
    replay_synthetic_inner(filter, workload, batch, Some(sink))
}

fn replay_synthetic_inner<F: CountingFilter>(
    filter: &mut F,
    workload: &SyntheticWorkload,
    batch: usize,
    sink: Option<&dyn OpSink>,
) -> DriverReport {
    let mut report = DriverReport::default();
    insert_batched_inner(filter, &workload.test_set, batch, &mut report, sink);
    query_batched_inner(
        filter,
        &workload.queries,
        Some(&workload.is_member),
        batch,
        &mut report,
        sink,
    );
    churn_batched_inner(filter, &workload.churn, batch, &mut report, sink);
    report
}

/// Replays the §IV.D flow-trace protocol: insert the test set, stream the
/// Zipf-shaped record queries, then the churn periods.
pub fn replay_flowtrace<F: CountingFilter>(
    filter: &mut F,
    trace: &FlowTrace,
    batch: usize,
) -> DriverReport {
    let mut report = DriverReport::default();
    insert_batched(filter, &trace.test_set, batch, &mut report);
    query_batched(filter, &trace.records, None, batch, &mut report);
    churn_batched(filter, &trace.churn, batch, &mut report);
    report
}

/// Replays the §IV.A synthetic protocol with a [`FaultPlan`] perturbing
/// the *insert* stream (operations dropped or delivered twice before the
/// filter sees them), modelling delivery faults between a workload
/// producer and the filter. Queries and churn replay unperturbed.
///
/// The returned [`StreamFaultLog`] is the ground truth the caller's
/// oracle must reconstruct: the filter's population diverges from the
/// clean replay by exactly `log.delta()` insertions, so a harness that
/// compares `items()` (or `total_load`) against the oracle detects every
/// injected drop and duplicate.
pub fn replay_synthetic_faulty<F: CountingFilter>(
    filter: &mut F,
    workload: &SyntheticWorkload,
    batch: usize,
    plan: &FaultPlan,
) -> (DriverReport, StreamFaultLog) {
    let mut report = DriverReport::default();
    let (perturbed, log) = plan.perturb_stream(&workload.test_set);
    insert_batched(filter, &perturbed, batch, &mut report);
    query_batched(filter, &workload.queries, None, batch, &mut report);
    churn_batched(filter, &workload.churn, batch, &mut report);
    (report, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultMix;
    use crate::flowtrace::FlowTraceSpec;
    use crate::synthetic::SyntheticSpec;
    use mpcbf_core::{Mpcbf1, MpcbfConfig};

    fn filter() -> Mpcbf1 {
        Mpcbf1::new(
            MpcbfConfig::builder()
                .memory_bits(200_000)
                .expected_items(2_000)
                .hashes(3)
                .seed(9)
                .build()
                .unwrap(),
        )
    }

    /// Replays the synthetic protocol one key at a time via the scalar
    /// API, producing the same report shape for comparison.
    fn replay_synthetic_scalar(filter: &mut Mpcbf1, w: &SyntheticWorkload) -> DriverReport {
        let mut r = DriverReport::default();
        for k in &w.test_set {
            r.inserts += 1;
            match filter.insert_bytes_cost(k.key_bytes().as_slice()) {
                Ok(c) => r.cost = r.cost.add(c),
                Err(_) => r.insert_failures += 1,
            }
        }
        for (k, &m) in w.queries.iter().zip(&w.is_member) {
            let (hit, c) = filter.contains_bytes_cost(k.key_bytes().as_slice());
            r.queries += 1;
            r.hits += u64::from(hit);
            r.false_positives += u64::from(hit && !m);
            r.cost = r.cost.add(c);
        }
        for period in &w.churn.periods {
            for k in &period.deletes {
                r.deletes += 1;
                match filter.remove_bytes_cost(k.key_bytes().as_slice()) {
                    Ok(c) => r.cost = r.cost.add(c),
                    Err(_) => r.delete_failures += 1,
                }
            }
            for k in &period.inserts {
                r.inserts += 1;
                match filter.insert_bytes_cost(k.key_bytes().as_slice()) {
                    Ok(c) => r.cost = r.cost.add(c),
                    Err(_) => r.insert_failures += 1,
                }
            }
        }
        r
    }

    #[test]
    fn batched_synthetic_replay_matches_scalar_replay() {
        let spec = SyntheticSpec {
            periods: 2,
            ..SyntheticSpec::default()
        }
        .scaled_down(100);
        let w = SyntheticWorkload::generate(&spec);
        let mut scalar_f = filter();
        let scalar = replay_synthetic_scalar(&mut scalar_f, &w);
        for &batch in &[1usize, 8, 64, 512] {
            let mut batched_f = filter();
            let batched = replay_synthetic(&mut batched_f, &w, batch);
            assert_eq!(batched, scalar, "divergence at batch size {batch}");
            assert_eq!(batched_f.items(), scalar_f.items());
            assert_eq!(batched_f.raw_words(), scalar_f.raw_words());
        }
    }

    #[test]
    fn flowtrace_replay_runs_and_accounts() {
        let spec = FlowTraceSpec {
            periods: 1,
            ..FlowTraceSpec::default()
        }
        .scaled_down(500);
        let t = FlowTrace::generate(&spec);
        let mut f = Mpcbf1::new(
            MpcbfConfig::builder()
                .memory_bits(100_000)
                .expected_items(1_000)
                .hashes(3)
                .seed(4)
                .build()
                .unwrap(),
        );
        let r = replay_flowtrace(&mut f, &t, DEFAULT_BATCH);
        assert_eq!(r.queries, t.records.len() as u64);
        // Every inserted flow's records must hit (no false negatives).
        assert!(r.hits >= 1);
        assert_eq!(
            r.inserts,
            (t.test_set.len() + t.churn.total_inserts()) as u64
        );
        assert_eq!(r.deletes, t.churn.total_deletes() as u64);
        assert!(r.cost.word_accesses > 0 && r.cost.hash_bits > 0);
    }

    #[test]
    fn faulty_replay_diverges_by_exactly_the_log() {
        use crate::faults::FaultPlan;
        // No churn: after the insert phase the filter population must
        // diverge from a clean replay by exactly the logged delta, which
        // is what an oracle comparing populations would detect.
        let spec = SyntheticSpec {
            periods: 0,
            ..SyntheticSpec::default()
        }
        .scaled_down(100);
        let w = SyntheticWorkload::generate(&spec);
        let mix = FaultMix {
            bit_flips: 0,
            poisoned_shards: 0,
            dropped_ops: 4,
            duplicated_ops: 2,
            hot_keys: 0,
            crash_points: 0,
        };
        let plan = FaultPlan::generate(0xFEED, mix);

        let mut clean_f = filter();
        let clean = replay_synthetic(&mut clean_f, &w, DEFAULT_BATCH);
        let mut faulty_f = filter();
        let (faulty, log) = replay_synthetic_faulty(&mut faulty_f, &w, DEFAULT_BATCH, &plan);

        assert!(!log.is_clean(), "default positions must actually perturb");
        assert_eq!(
            faulty.inserts as i64,
            clean.inserts as i64 + log.delta(),
            "insert attempts shift by the logged delta"
        );
        assert_eq!(
            faulty_f.items() as i64,
            clean_f.items() as i64 + log.delta(),
            "population shift is exactly the injected divergence"
        );
        // Reproducibility: the same seed yields the same divergence.
        let mut again_f = filter();
        let (again, log2) = replay_synthetic_faulty(&mut again_f, &w, DEFAULT_BATCH, &plan);
        assert_eq!((again, log2), (faulty, log));
        assert_eq!(again_f.raw_words(), faulty_f.raw_words());
    }

    #[test]
    fn metered_replay_streams_exactly_the_report() {
        use mpcbf_core::metrics::OpKind;
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Test sink: tallies ops and summed cost per kind.
        #[derive(Default)]
        struct TallySink {
            ops: [AtomicU64; 3],
            accesses: AtomicU64,
            hash_bits: AtomicU64,
        }
        impl OpSink for TallySink {
            fn record_batch(&self, kind: OpKind, ops: u64, cost: OpCost, _nanos: u64) {
                self.ops[kind as usize].fetch_add(ops, Ordering::Relaxed);
                self.accesses
                    .fetch_add(u64::from(cost.word_accesses), Ordering::Relaxed);
                self.hash_bits
                    .fetch_add(u64::from(cost.hash_bits), Ordering::Relaxed);
            }
        }

        let spec = SyntheticSpec {
            periods: 2,
            ..SyntheticSpec::default()
        }
        .scaled_down(100);
        let w = SyntheticWorkload::generate(&spec);

        let mut plain_f = filter();
        let plain = replay_synthetic(&mut plain_f, &w, DEFAULT_BATCH);
        let sink = TallySink::default();
        let mut metered_f = filter();
        let metered = replay_synthetic_metered(&mut metered_f, &w, DEFAULT_BATCH, &sink);

        // Metering must be a pure observer: identical report and state.
        assert_eq!(metered, plain);
        assert_eq!(metered_f.raw_words(), plain_f.raw_words());
        // And the sink must have seen exactly the replayed operations.
        assert_eq!(
            sink.ops[OpKind::Query as usize].load(Ordering::Relaxed),
            plain.queries
        );
        assert_eq!(
            sink.ops[OpKind::Insert as usize].load(Ordering::Relaxed),
            plain.inserts
        );
        assert_eq!(
            sink.ops[OpKind::Remove as usize].load(Ordering::Relaxed),
            plain.deletes
        );
        assert_eq!(
            sink.accesses.load(Ordering::Relaxed),
            u64::from(plain.cost.word_accesses)
        );
        assert_eq!(
            sink.hash_bits.load(Ordering::Relaxed),
            u64::from(plain.cost.hash_bits)
        );
    }

    #[test]
    fn oracle_length_mismatch_panics() {
        let w = SyntheticWorkload::generate(&SyntheticSpec::default().scaled_down(1_000));
        let f = filter();
        let mut r = DriverReport::default();
        let bad_oracle = vec![true; w.queries.len() + 1];
        let result = std::panic::catch_unwind(|| {
            let mut r2 = DriverReport::default();
            query_batched(&f, &w.queries, Some(&bad_oracle), 64, &mut r2);
        });
        assert!(result.is_err());
        query_batched(&f, &w.queries, Some(&w.is_member), 64, &mut r);
        assert_eq!(r.queries, w.queries.len() as u64);
    }
}
