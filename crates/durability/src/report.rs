//! What a crash recovery did, in auditable form.

use crate::wal::TornTail;
use mpcbf_telemetry::Telemetry;

/// Everything [`crate::DurableFilter::open_or_recover`] (and the sharded
/// twin) did to reconstruct state, for operators and drills to inspect.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot used as the replay base
    /// (`None`: no valid snapshot, recovery started from a fresh filter).
    pub snapshot_seq: Option<u64>,
    /// Snapshot files skipped because they failed to read or decode.
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
    /// Whether the post-replay integrity check came back clean: the
    /// structural `verify()` (plus a seal/scrub pass for single filters).
    pub scrub_clean: bool,
    /// Highest sequence number in the recovered state.
    pub last_seq: u64,
}

impl RecoveryReport {
    /// Folds a per-shard report into a whole-filter one (sharded
    /// recovery runs one scan+replay per shard, in parallel).
    pub fn absorb_shard(&mut self, other: &RecoveryReport) {
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
        telemetry.set_gauge(
            "recovery_scrub_clean",
            f64::from(u8::from(self.scrub_clean)),
        );
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.snapshot_seq {
            Some(seq) => writeln!(f, "snapshot: seq {seq}")?,
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
        assert!(report.was_clean());
    }
}
