//! What a crash recovery did, in auditable form.

use crate::wal::TornTail;
use mpcbf_telemetry::Telemetry;
use std::time::Duration;

/// Everything [`crate::DurableSharded::open_or_recover`] did to
/// reconstruct state, for operators and drills to inspect.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot used as the replay base
    /// (`None`: no valid snapshot, recovery started from a fresh filter).
    pub snapshot_seq: Option<u64>,
    /// Bytes of the snapshot file recovery loaded (0 without one).
    pub snapshot_bytes: u64,
    /// Snapshot files skipped because they failed a check. A file that
    /// could not be read fails the recovery instead.
    pub snapshots_corrupt: u64,
    /// Valid WAL records scanned across all segments.
    pub records_scanned: u64,
    /// Records actually replayed (seq newer than the snapshot).
    pub records_replayed: u64,
    /// Individual key operations replayed (batches count per key).
    pub ops_replayed: u64,
    /// Torn or corrupt WAL tails found and amputated (one per log).
    pub torn_tails: Vec<TornTail>,
    /// Whole WAL segments dropped because they sat past damage.
    pub segments_dropped: u64,
    /// Total WAL bytes removed by repairs.
    pub bytes_truncated: u64,
    /// Whether the post-replay integrity check, the structural check of
    /// every shard that replayed at least one record, came back clean. A
    /// shard that replayed none is not checked again and counts as
    /// clean: its words are the snapshot's, each checked by the decoder
    /// as it was loaded (a snapshot with a word that fails the check is
    /// refused as corrupt), or a fresh pool's.
    pub scrub_clean: bool,
    /// Highest sequence number in the recovered state.
    pub last_seq: u64,
    /// Wall time spent finding and loading the snapshot (skipped corrupt
    /// files included).
    pub snapshot_load: Duration,
    /// Wall time spent scanning, repairing and replaying the WAL: the
    /// slowest shard's, as shards recover in parallel.
    pub replay: Duration,
    /// Wall time of the post-replay integrity check: the slowest
    /// shard's, each run on its shard's replay thread after its replay;
    /// zero for a shard that replayed no record (see `scrub_clean`).
    pub verify: Duration,
}

impl RecoveryReport {
    /// Folds a per-shard report into a whole-filter one (sharded
    /// recovery runs one scan+replay+verify per shard, in parallel): the
    /// counts add up, the check is clean only while every shard's is,
    /// and the replay and verify times are the slowest shard's.
    pub fn absorb_shard(&mut self, other: &RecoveryReport) {
        self.scrub_clean &= other.scrub_clean;
        self.replay = self.replay.max(other.replay);
        self.verify = self.verify.max(other.verify);
        self.snapshots_corrupt += other.snapshots_corrupt;
        self.records_scanned += other.records_scanned;
        self.records_replayed += other.records_replayed;
        self.ops_replayed += other.ops_replayed;
        self.torn_tails.extend(other.torn_tails.iter().cloned());
        self.segments_dropped += other.segments_dropped;
        self.bytes_truncated += other.bytes_truncated;
        self.last_seq = self.last_seq.max(other.last_seq);
    }

    /// True when recovery saw no damage at all (clean shutdown replay).
    pub fn was_clean(&self) -> bool {
        self.torn_tails.is_empty()
            && self.segments_dropped == 0
            && self.snapshots_corrupt == 0
            && self.scrub_clean
    }

    /// Publishes the report into the telemetry registry as counters and
    /// gauges, so recoveries show up on the Prometheus page next to the
    /// op ledgers.
    pub fn record_to(&self, telemetry: &Telemetry) {
        telemetry.add_counter("recoveries_total", 1);
        telemetry.add_counter("recovery_records_scanned_total", self.records_scanned);
        telemetry.add_counter("recovery_records_replayed_total", self.records_replayed);
        telemetry.add_counter("recovery_ops_replayed_total", self.ops_replayed);
        telemetry.add_counter("recovery_torn_tails_total", self.torn_tails.len() as u64);
        telemetry.add_counter("recovery_segments_dropped_total", self.segments_dropped);
        telemetry.add_counter("recovery_wal_bytes_truncated_total", self.bytes_truncated);
        telemetry.add_counter("recovery_snapshots_corrupt_total", self.snapshots_corrupt);
        telemetry.set_gauge(
            "recovery_snapshot_seq",
            self.snapshot_seq.unwrap_or(0) as f64,
        );
        telemetry.set_gauge("recovery_last_seq", self.last_seq as f64);
        telemetry.set_gauge("recovery_snapshot_bytes", self.snapshot_bytes as f64);
        telemetry.set_gauge(
            "recovery_snapshot_load_seconds",
            self.snapshot_load.as_secs_f64(),
        );
        telemetry.set_gauge("recovery_replay_seconds", self.replay.as_secs_f64());
        telemetry.set_gauge("recovery_verify_seconds", self.verify.as_secs_f64());
        telemetry.set_gauge(
            "recovery_scrub_clean",
            f64::from(u8::from(self.scrub_clean)),
        );
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.snapshot_seq {
            Some(seq) => writeln!(f, "snapshot: seq {seq} ({} bytes)", self.snapshot_bytes)?,
            None => writeln!(f, "snapshot: none (fresh filter)")?,
        }
        if self.snapshots_corrupt > 0 {
            writeln!(
                f,
                "snapshots skipped as corrupt: {}",
                self.snapshots_corrupt
            )?;
        }
        writeln!(
            f,
            "wal: {} records scanned, {} replayed ({} key ops), last seq {}",
            self.records_scanned, self.records_replayed, self.ops_replayed, self.last_seq
        )?;
        for tail in &self.torn_tails {
            writeln!(
                f,
                "torn tail: {} segment {} at byte {} ({} bytes dropped, {})",
                tail.wal, tail.segment_first_seq, tail.offset, tail.bytes_dropped, tail.reason
            )?;
        }
        if self.segments_dropped > 0 {
            writeln!(f, "segments dropped past damage: {}", self.segments_dropped)?;
        }
        if self.bytes_truncated > 0 {
            writeln!(f, "wal bytes truncated: {}", self.bytes_truncated)?;
        }
        writeln!(
            f,
            "cold start: snapshot load {:.1} ms, replay {:.1} ms, verify {:.1} ms",
            self.snapshot_load.as_secs_f64() * 1e3,
            self.replay.as_secs_f64() * 1e3,
            self.verify.as_secs_f64() * 1e3
        )?;
        write!(
            f,
            "scrub cross-check: {}",
            if self.scrub_clean { "clean" } else { "FAILED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_sees_the_recovery() {
        let t = Telemetry::new();
        let report = RecoveryReport {
            snapshot_seq: Some(42),
            snapshot_bytes: 4096,
            snapshot_load: Duration::from_millis(150),
            replay: Duration::from_millis(2),
            verify: Duration::from_millis(30),
            records_scanned: 10,
            records_replayed: 7,
            ops_replayed: 12,
            scrub_clean: true,
            last_seq: 52,
            ..Default::default()
        };
        report.record_to(&t);
        let snap = t.snapshot();
        assert_eq!(snap.counters.get("recoveries_total"), Some(&1));
        assert_eq!(
            snap.counters.get("recovery_records_replayed_total"),
            Some(&7)
        );
        assert_eq!(snap.gauges.get("recovery_snapshot_seq"), Some(&42.0));
        assert_eq!(snap.gauges.get("recovery_scrub_clean"), Some(&1.0));
        assert_eq!(snap.gauges.get("recovery_snapshot_bytes"), Some(&4096.0));
        assert_eq!(
            snap.gauges.get("recovery_snapshot_load_seconds"),
            Some(&0.15)
        );
        assert_eq!(snap.gauges.get("recovery_replay_seconds"), Some(&0.002));
        assert_eq!(snap.gauges.get("recovery_verify_seconds"), Some(&0.03));
        let shown = report.to_string();
        assert!(shown.contains("seq 42 (4096 bytes)"), "{shown}");
        assert!(
            shown.contains("snapshot load 150.0 ms, replay 2.0 ms, verify 30.0 ms"),
            "{shown}"
        );
        assert!(report.was_clean());
    }
}
