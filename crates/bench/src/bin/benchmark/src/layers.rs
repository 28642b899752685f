//! Per-layer measurements: layers timed on their own through their
//! public functions, and the per-stage figures read off the replay spans.

use crate::load::{Op, Window};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::workload::PerLayer;
use mpcbf_concurrent::{build_parallel, ShardedBulkBuilder, ShardedMpcbf};
use mpcbf_core::{BulkBuilder, BulkStats, CountingFilter, Filter, Mpcbf, MpcbfConfig};
use mpcbf_durability::{FsyncPolicy, KillSwitch, SnapshotStore, Wal, WalOp, WalRecord};
use mpcbf_hash::Murmur3;
use mpcbf_server::Client;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Threads the bulk builds use, matching `mpcbf build --threads 2` and
/// the two cores the benchmark is sized for.
pub const BUILD_THREADS: usize = 2;

/// Shards of the served filter: the server's default, passed explicitly
/// so the in-process replica always has the served layout.
pub const SHARDS: usize = 8;

/// Timing and staging counters of one in-process bulk build.
#[derive(Debug, Clone, Copy)]
pub struct BulkRun {
    pub keys: u64,
    /// Push phase (key generation included, as `--synthetic` does it),
    /// then the parallel finish.
    pub push: (Instant, Instant),
    pub finish: (Instant, Instant),
    pub stats: BulkStats,
}

impl BulkRun {
    pub fn push_ns_per_key(&self) -> f64 {
        (self.push.1 - self.push.0).as_nanos() as f64 / self.keys.max(1) as f64
    }

    pub fn finish_ms(&self) -> f64 {
        (self.finish.1 - self.finish.0).as_secs_f64() * 1e3
    }

    /// The bulk layer's figures.
    pub fn fill(&self, m: &mut PerLayer) {
        m.bulk_push_ns_per_key = self.push_ns_per_key();
        m.bulk_finish_ms = self.finish_ms();
        m.bulk_l1_spills = self.stats.l1_spills as f64;
        m.bulk_l2_spills = self.stats.l2_spills as f64;
        m.bulk_flushes = self.stats.flushes as f64;
    }

    /// Records the build as spans of request 0.
    pub fn record(&self, tracer: &mut Tracer) {
        let at = |t: Instant| (t - tracer.origin()).as_nanos() as u64;
        let (push, finish) = (
            (at(self.push.0), at(self.push.1)),
            (at(self.finish.0), at(self.finish.1)),
        );
        tracer.record("core.bulk.push", None, 0, push.0, push.1);
        tracer.record("concurrent.bulk.finish", None, 0, finish.0, finish.1);
    }
}

/// The filter configuration `mpcbf build`/`serve` derive from
/// `--items`, `--memory-bits` and `--seed` (k = 3, MPCBF-1).
pub fn config(items: u64, memory_bits: u64, seed: u64) -> Result<MpcbfConfig, String> {
    MpcbfConfig::builder()
        .memory_bits(memory_bits)
        .expected_items(items)
        .hashes(3)
        .accesses(1)
        .seed(seed)
        .build()
        .map_err(|e| format!("infeasible configuration: {e}"))
}

/// Bulk-builds the sharded filter `mpcbf build --bulk --dir` preloads,
/// timing the push and finish phases.
pub fn build_sharded(
    config: MpcbfConfig,
    for_each_key: impl FnOnce(&mut dyn FnMut(&[u8])),
) -> (ShardedMpcbf<u64, Murmur3>, BulkRun) {
    let mut builder: ShardedBulkBuilder<Murmur3> = ShardedBulkBuilder::new(config, SHARDS);
    let start = Instant::now();
    let mut keys = 0u64;
    for_each_key(&mut |k| {
        builder.push(k);
        keys += 1;
    });
    let pushed = Instant::now();
    let stats = builder.stats();
    let filter = builder.finish_parallel(BUILD_THREADS);
    let run = BulkRun {
        keys,
        push: (start, pushed),
        finish: (pushed, Instant::now()),
        stats,
    };
    (filter, run)
}

/// Bulk-builds the plain filter `mpcbf build --bulk --out` writes.
pub fn build_plain(
    config: MpcbfConfig,
    for_each_key: impl FnOnce(&mut dyn FnMut(&[u8])),
) -> (Mpcbf<u64, Murmur3>, BulkRun) {
    let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(config);
    let start = Instant::now();
    let mut keys = 0u64;
    for_each_key(&mut |k| {
        builder.push(k);
        keys += 1;
    });
    let pushed = Instant::now();
    let stats = builder.stats();
    let filter = build_parallel(builder, BUILD_THREADS);
    let run = BulkRun {
        keys,
        push: (start, pushed),
        finish: (pushed, Instant::now()),
        stats,
    };
    (filter, run)
}

/// The workloads' `--fsync` policies (`always`, `interval-Nms`) as
/// `mpcbf serve` spells them.
pub fn fsync_policy(name: &str) -> Result<FsyncPolicy, String> {
    if name == "always" {
        return Ok(FsyncPolicy::Always);
    }
    if let Some(ms) = name
        .strip_prefix("interval-")
        .and_then(|r| r.strip_suffix("ms"))
        .and_then(|n| n.parse().ok())
    {
        return Ok(FsyncPolicy::Interval(Duration::from_millis(ms)));
    }
    Err(format!("unknown fsync policy `{name}`"))
}

/// Median round trip of `PING` on an idle connection, in microseconds.
pub fn ping_rtt_us(client: &mut Client, rounds: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&samples))
}

fn scratch_wal(dir: &Path, policy: FsyncPolicy) -> Result<Wal, String> {
    let _ = std::fs::remove_dir_all(dir);
    Wal::new(dir, "layer", policy, 8 << 20, KillSwitch::new()).map_err(|e| format!("wal: {e}"))
}

/// `fsync`s behind the sync percentiles: ten beyond the p99.
const SYNCS: u64 = 1_100;
/// Back-to-back appends behind the syncs-per-write share.
const APPENDS: u64 = 2_000;

/// The WAL on its own, one request's fresh keys per record (a scalar
/// record for a one-key request): the `fsync` latency after an append as
/// p50 and p99 in microseconds, and the share of back-to-back appends
/// after which the WAL synced under `policy` (1 for `always`).
pub fn wal_figures(
    dir: &Path,
    policy: FsyncPolicy,
    keys: &[Vec<u8>],
) -> Result<(f64, f64, f64), String> {
    let op = match keys {
        [key] => WalOp::Insert(key.clone()),
        _ => WalOp::InsertBatch(keys.to_vec()),
    };
    let record = |seq| WalRecord {
        seq,
        op: op.clone(),
    };
    let mut wal = scratch_wal(&dir.join("sync"), FsyncPolicy::EveryN(u32::MAX))?;
    let mut samples = Vec::with_capacity(SYNCS as usize);
    for seq in 1..=SYNCS {
        wal.append(&record(seq))
            .map_err(|e| format!("append: {e}"))?;
        let start = Instant::now();
        wal.sync().map_err(|e| format!("sync: {e}"))?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    samples.sort_by(f64::total_cmp);
    let mut wal = scratch_wal(&dir.join("policy"), policy)?;
    let mut synced = 0u64;
    for seq in 1..=APPENDS {
        wal.append(&record(seq))
            .map_err(|e| format!("append: {e}"))?;
        synced += u64::from(wal.pending_appends() == 0);
    }
    Ok((
        percentile(&samples, 0.5),
        percentile(&samples, 0.99),
        synced as f64 / APPENDS as f64,
    ))
}

/// Median wall time of `reps` calls, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f()?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&samples))
}

/// Publishing a snapshot image (write, fsync, rename, directory fsync).
pub fn snapshot_write_ms(dir: &Path, image: &[u8], reps: usize) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = SnapshotStore::new(dir, "layer", KillSwitch::new())
        .map_err(|e| format!("snapshots: {e}"))?;
    let mut seq = 0u64;
    median_ms(reps, || {
        seq += 1;
        store
            .write(seq, image)
            .and_then(|()| store.purge_below(seq))
            .map_err(|e| format!("snapshot write: {e}"))
    })
}

/// The paper's counts for the workload's keys, from the metered `_cost`
/// calls: words read per query, words touched per applied update and
/// hash bits consumed per query. Updates are undone, so `filter` ends
/// unchanged.
pub fn access_counts(
    filter: &mut Mpcbf<u64, Murmur3>,
    queries: &[Vec<u8>],
    fresh: &[Vec<u8>],
) -> Result<(f64, f64, f64), String> {
    let (mut words, mut bits) = (0u64, 0u64);
    for key in queries {
        let (_, cost) = filter.contains_bytes_cost(key);
        words += u64::from(cost.word_accesses);
        bits += u64::from(cost.hash_bits);
    }
    let (mut update_words, mut updates) = (0u64, 0u64);
    for key in fresh {
        // A refused insert (a full word) costs nothing and is not undone.
        if let Ok(cost) = filter.insert_bytes_cost(key) {
            update_words += u64::from(cost.word_accesses);
            updates += 1;
            filter
                .remove_bytes_cost(key)
                .map_err(|e| format!("metered remove: {e}"))?;
        }
    }
    let q = queries.len().max(1) as f64;
    Ok((
        words as f64 / q,
        update_words as f64 / updates.max(1) as f64,
        bits as f64 / q,
    ))
}

/// Span self times grouped by stage name, split by whether the request
/// the span belongs to was a read or a write; each sample carries the
/// request's key count.
pub struct Stages {
    reads: HashMap<&'static str, Vec<(f64, usize)>>,
    writes: HashMap<&'static str, Vec<(f64, usize)>>,
}

impl Stages {
    pub fn new(spans: &[Span], self_ns: &[u64], replayed: &[(u64, Op, usize)]) -> Stages {
        let requests: HashMap<u64, (Op, usize)> =
            replayed.iter().map(|&(id, op, n)| (id, (op, n))).collect();
        let mut stages = Stages {
            reads: HashMap::new(),
            writes: HashMap::new(),
        };
        for (span, &own) in spans.iter().zip(self_ns) {
            let Some(&(op, keys)) = requests.get(&span.request) else {
                continue;
            };
            let side = if op == Op::Query {
                &mut stages.reads
            } else {
                &mut stages.writes
            };
            side.entry(span.name).or_default().push((own as f64, keys));
        }
        stages
    }

    fn samples(&self, name: &str) -> impl Iterator<Item = &(f64, usize)> {
        let r = self.reads.get(name).into_iter().flatten();
        r.chain(self.writes.get(name).into_iter().flatten())
    }

    /// Median self time per key of a stage over every replayed request,
    /// in nanoseconds (0 when the stage never ran).
    pub fn ns_per_key(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .samples(name)
            .map(|&(ns, keys)| ns / keys.max(1) as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Median self time of a stage per request, in microseconds.
    pub fn us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.samples(name).map(|&(ns, _)| ns / 1e3).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// The figures read off the replay spans; `window` supplies the WAL
    /// record sizes the replay tallied.
    pub fn fill(&self, m: &mut PerLayer, window: &Window) {
        m.decode_ns_per_key = self.ns_per_key("server.protocol.decode");
        m.encode_ns_per_key = self.ns_per_key("server.protocol.encode");
        m.route_ns_per_key = self.ns_per_key("concurrent.sharded.route");
        m.contains_ns_per_key = self.ns_per_key("concurrent.sharded.contains");
        m.insert_ns_per_key = self.ns_per_key("concurrent.sharded.insert");
        m.remove_ns_per_key = self.ns_per_key("concurrent.sharded.remove");
        m.hash_ns_per_key = self.ns_per_key("hash.murmur3");
        m.plan_ns_per_key = self.ns_per_key("core.plan");
        m.walk_query_ns_per_key = self.ns_per_key("core.hcbf.query");
        m.walk_update_ns_per_key = self.ns_per_key("core.hcbf.update");
        m.record_encode_ns_per_key = self.ns_per_key("durability.record.encode");
        m.record_bytes_per_key = window.record_bytes as f64 / window.record_keys.max(1) as f64;
        m.wal_append_us = self.us("durability.wal.append");
    }

    /// Sum of the per-request median self times of `stages` on the read
    /// (or write) side, in microseconds. Each entry is a set of span
    /// names a request runs one of (a write applies as an insert or a
    /// remove); a stage no request ran adds nothing.
    pub fn sum_us(&self, write: bool, stages: &[&[&str]]) -> f64 {
        let side = if write { &self.writes } else { &self.reads };
        stages
            .iter()
            .map(|names| {
                let v: Vec<f64> = names
                    .iter()
                    .filter_map(|name| side.get(name))
                    .flatten()
                    .map(|&(ns, _)| ns / 1e3)
                    .collect();
                if v.is_empty() {
                    0.0
                } else {
                    median(&v)
                }
            })
            .sum()
    }
}

/// The untraced median minus the sum of the traced stage medians, as a
/// percentage of the untraced median.
pub fn gap_pct(untraced_p50_us: f64, stages_us: f64) -> f64 {
    (untraced_p50_us - stages_us) / untraced_p50_us * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_names() {
        assert_eq!(fsync_policy("always"), Ok(FsyncPolicy::Always));
        assert_eq!(
            fsync_policy("interval-2ms"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(2)))
        );
        assert!(fsync_policy("sometimes").is_err());
    }

    #[test]
    fn stages_split_reads_and_writes() {
        let span = |id, request, name, start_ns, end_ns| Span {
            id,
            parent: None,
            request,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 10, "a", 0, 100),
            span(2, 11, "a", 0, 300),
            span(3, 11, "b", 0, 50),
            span(4, 99, "a", 0, 999), // not a replayed request
        ];
        let self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
        let stages = Stages::new(&spans, &self_ns, &[(10, Op::Query, 4), (11, Op::Insert, 1)]);
        assert_eq!(stages.sum_us(false, &[&["a"], &["b"]]), 0.1);
        assert_eq!(stages.sum_us(true, &[&["a"], &["b"]]), 0.35);
        // One request ran "a" (300 ns) and none "c": the pair's median is
        // that one sample.
        assert_eq!(stages.sum_us(true, &[&["a", "c"]]), 0.3);
        assert_eq!(stages.ns_per_key("a"), (25.0 + 300.0) / 2.0);
        assert_eq!(stages.ns_per_key("missing"), 0.0);
        assert_eq!(gap_pct(2.0, 1.5), 25.0);
    }
}
