//! `DurableFilter<F>`: log → apply → acknowledge.
//!
//! The wrapper owns a filter, a [`Wal`], and a [`SnapshotStore`]. Every
//! mutation is framed and appended to the WAL **before** it touches the
//! filter; only then is it applied and acknowledged to the caller.
//! Under [`FsyncPolicy::Always`] an acknowledged op is therefore
//! durable: recovery replays the snapshot plus the WAL and lands on a
//! state bit-identical to applying every acknowledged op in order.
//! (Refused ops — e.g. a word overflow — are logged too; replay re-runs
//! them and they deterministically refuse again, so logging the attempt
//! is harmless and keeps the ack protocol one-pass.)
//!
//! A batch is logged as **one frame**, so replay applies it through the
//! same all-or-nothing batch entry points the live path used; a frame
//! torn mid-batch fails its CRC and the whole group is dropped,
//! matching the filters' batch rollback semantics.

use crate::error::DurableError;
use crate::kill::KillSwitch;
use crate::record::{WalOp, WalRecord};
use crate::report::RecoveryReport;
use crate::sharded::stored_mode;
use crate::snapshot::SnapshotStore;
use crate::wal::{FsyncPolicy, Wal};
use mpcbf_core::{Cbf, CodecError, CountingFilter, FilterError, Mpcbf, ResilientMpcbf};
use mpcbf_hash::Hasher128;
use std::path::PathBuf;
use std::time::Duration;

/// A filter the durability layer can snapshot and restore: codec image
/// in, codec image out, plus a post-recovery integrity cross-check.
pub trait DurableImage: Sized {
    /// Full-state image through the codec encode path.
    fn encode_image(&self) -> Vec<u8>;
    /// Rebuilds the filter from an image, validating everything.
    fn decode_image(buf: &[u8]) -> Result<Self, CodecError>;
    /// Post-recovery cross-check: structural verify plus a seal/scrub
    /// pass, proving the scrub machinery accepts the recovered image.
    fn verify_integrity(&self) -> bool;
}

impl<H: Hasher128> DurableImage for Mpcbf<u64, H> {
    fn encode_image(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_image(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode(buf)
    }
    fn verify_integrity(&self) -> bool {
        self.verify().is_ok() && self.scrub(&self.seal()).is_clean()
    }
}

impl<H: Hasher128> DurableImage for Cbf<H> {
    fn encode_image(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_image(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode(buf)
    }
    fn verify_integrity(&self) -> bool {
        self.verify().is_ok() && self.scrub(&self.seal()).is_clean()
    }
}

impl<H: Hasher128> DurableImage for ResilientMpcbf<H> {
    fn encode_image(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_image(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode(buf)
    }
    fn verify_integrity(&self) -> bool {
        self.verify().is_ok() && self.scrub(&self.seal()).is_clean()
    }
}

/// Where and how a durable filter persists.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding the WAL segments and snapshots.
    pub dir: PathBuf,
    /// When the WAL fsyncs (see the module docs trade-off).
    pub fsync: FsyncPolicy,
    /// Rotation threshold for WAL segments, in bytes.
    pub segment_bytes: u64,
    /// Automatic snapshot after this many logged records
    /// (`None`: only explicit [`DurableFilter::snapshot`] calls).
    pub snapshot_every: Option<u64>,
    /// Crash-injection switch (drills only; defaults unarmed).
    pub kill: KillSwitch,
}

impl DurabilityOptions {
    /// Defaults: always-fsync, 8 MiB segments, no automatic snapshots.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            snapshot_every: None,
            kill: KillSwitch::new(),
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the WAL segment rotation size.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Enables automatic snapshots every `records` logged records.
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = Some(records.max(1));
        self
    }

    /// Installs a crash-injection switch (drills only).
    pub fn kill(mut self, kill: KillSwitch) -> Self {
        self.kill = kill;
        self
    }

    /// Convenience: fsync at most once per `interval`.
    pub fn fsync_interval(self, interval: Duration) -> Self {
        self.fsync(FsyncPolicy::Interval(interval))
    }
}

const WAL_PREFIX: &str = "wal";
const SNAP_PREFIX: &str = "snap";

/// Write-ahead-logged wrapper around any snapshot-capable counting
/// filter. See the module docs for the ack/durability contract.
pub struct DurableFilter<F> {
    inner: F,
    wal: Wal,
    snapshots: SnapshotStore,
    seq: u64,
    records_since_snapshot: u64,
    snapshot_every: Option<u64>,
}

impl<F: CountingFilter + DurableImage> DurableFilter<F> {
    /// Starts a fresh durable filter in `opts.dir`: publishes an initial
    /// snapshot of `inner` (so recovery never depends on reconstructing
    /// the configuration) and opens the first WAL segment.
    ///
    /// The directory must not already contain a durable filter — use
    /// [`DurableFilter::open_or_recover`] for that.
    pub fn create(inner: F, opts: DurabilityOptions) -> Result<Self, DurableError> {
        let wal = Wal::new(
            &opts.dir,
            WAL_PREFIX,
            opts.fsync,
            opts.segment_bytes,
            opts.kill.clone(),
        )?;
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut filter = DurableFilter {
            inner,
            wal,
            snapshots,
            seq: 0,
            records_since_snapshot: 0,
            snapshot_every: opts.snapshot_every,
        };
        filter.snapshots.write(0, &filter.inner.encode_image())?;
        filter.wal.rotate(1)?;
        Ok(filter)
    }

    /// Loads the latest valid snapshot, replays the WAL past it
    /// (repairing torn tails in place), cross-checks the result with
    /// the scrub machinery, and reopens for writing. `fallback` builds
    /// the filter when no usable snapshot exists (fresh directory, or
    /// every snapshot corrupt — the WAL then replays from seq 1).
    ///
    /// Fails with [`DurableError::ModeMismatch`], leaving the directory
    /// untouched, when the snapshot is a sharded pool's.
    pub fn open_or_recover(
        opts: DurabilityOptions,
        fallback: impl FnOnce() -> F,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut report = RecoveryReport::default();
        let (base, corrupt) = snapshots.load_latest_with(|bytes| match F::decode_image(bytes) {
            Ok(filter) => Some(Ok(filter)),
            // Intact, but a sharded pool's envelope.
            Err(CodecError::BadMagic) => stored_mode(bytes).map(Err),
            Err(_) => None,
        })?;
        report.snapshots_corrupt = corrupt;
        let (mut inner, snap_seq) = match base {
            Some((snapshot_seq, Err(stored))) => {
                return Err(DurableError::ModeMismatch {
                    snapshot_seq,
                    stored,
                })
            }
            Some((seq, Ok(filter))) => {
                report.snapshot_seq = Some(seq);
                (filter, seq)
            }
            None => (fallback(), 0),
        };

        let (records, scan) = Wal::scan(&opts.dir, WAL_PREFIX)?;
        report.records_scanned = scan.records;
        report.torn_tails.extend(scan.torn);
        report.segments_dropped += scan.segments_dropped;
        report.bytes_truncated += scan.bytes_truncated;
        let mut last_seq = snap_seq;
        for record in &records {
            if record.seq <= snap_seq {
                continue;
            }
            report.records_replayed += 1;
            report.ops_replayed += record.op.op_count();
            apply_op(&mut inner, &record.op);
            last_seq = record.seq;
        }
        report.last_seq = last_seq;
        report.scrub_clean = inner.verify_integrity();

        let mut wal = Wal::new(
            &opts.dir,
            WAL_PREFIX,
            opts.fsync,
            opts.segment_bytes,
            opts.kill.clone(),
        )?;
        wal.rotate(last_seq + 1)?;
        Ok((
            DurableFilter {
                inner,
                wal,
                snapshots,
                seq: last_seq,
                records_since_snapshot: 0,
                snapshot_every: opts.snapshot_every,
            },
            report,
        ))
    }

    /// The wrapped filter (read-only; mutations must go through the
    /// logged entry points).
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Last assigned WAL sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn log(&mut self, op: WalOp) -> Result<(), DurableError> {
        let seq = self.seq + 1;
        self.wal.append(&WalRecord { seq, op })?;
        self.seq = seq;
        self.records_since_snapshot += 1;
        Ok(())
    }

    fn maybe_snapshot(&mut self) -> Result<(), DurableError> {
        if let Some(every) = self.snapshot_every {
            if self.records_since_snapshot >= every {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    /// Logs then applies one insert. An `Err(Filter(_))` means the
    /// filter refused (the refusal is deterministic and replays as such).
    pub fn insert_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        self.log(WalOp::Insert(key.to_vec()))?;
        let result = self.inner.insert_bytes_cost(key);
        self.maybe_snapshot()?;
        result.map(|_| ()).map_err(DurableError::Filter)
    }

    /// Logs then applies one remove.
    pub fn remove_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        self.log(WalOp::Remove(key.to_vec()))?;
        let result = self.inner.remove_bytes_cost(key);
        self.maybe_snapshot()?;
        result.map(|_| ()).map_err(DurableError::Filter)
    }

    /// Logs the whole batch as one frame, then applies it through the
    /// filter's batch pipeline (identical rollback semantics on replay).
    pub fn insert_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.log(WalOp::InsertBatch(
            keys.iter().map(|k| k.to_vec()).collect(),
        ))?;
        let (results, _) = self.inner.insert_batch_cost(keys);
        self.maybe_snapshot()?;
        Ok(results)
    }

    /// Batch remove twin of [`DurableFilter::insert_batch_bytes`].
    pub fn remove_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.log(WalOp::RemoveBatch(
            keys.iter().map(|k| k.to_vec()).collect(),
        ))?;
        let (results, _) = self.inner.remove_batch_cost(keys);
        self.maybe_snapshot()?;
        Ok(results)
    }

    /// Reads are unlogged and hit the filter directly.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        self.inner.contains_bytes_cost(key).0
    }

    /// Forces the WAL to disk (useful under relaxed fsync policies).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()
    }

    /// Shutdown flush: makes every acknowledged op durable before a clean
    /// stop. Identical to [`DurableFilter::sync`]; the [`Wal`] also
    /// fsyncs unsynced frames from `Drop` best-effort, but an explicit
    /// `flush()` is the only form that can report an error.
    pub fn flush(&mut self) -> Result<(), DurableError> {
        self.sync()
    }

    /// Takes a snapshot at the current sequence number and retires the
    /// WAL records it covers: sync WAL → publish image atomically →
    /// rotate to a fresh segment → purge sealed segments and old
    /// snapshots. A crash between any two steps recovers correctly —
    /// replay skips records at or below the published snapshot's seq,
    /// and an unpublished `.tmp` image is invisible.
    pub fn snapshot(&mut self) -> Result<(), DurableError> {
        self.wal.sync()?;
        let image = self.inner.encode_image();
        self.snapshots.write(self.seq, &image)?;
        self.wal.rotate(self.seq + 1)?;
        self.wal.purge_below(self.seq + 1)?;
        self.snapshots.purge_below(self.seq)?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

/// Replays one logged op against the filter, mirroring the live path's
/// entry points exactly. Refusals are deterministic re-refusals and are
/// intentionally discarded.
pub(crate) fn apply_op<F: CountingFilter>(filter: &mut F, op: &WalOp) {
    match op {
        WalOp::Insert(key) => {
            let _ = filter.insert_bytes_cost(key);
        }
        WalOp::Remove(key) => {
            let _ = filter.remove_bytes_cost(key);
        }
        WalOp::InsertBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let _ = filter.insert_batch_cost(&views);
        }
        WalOp::RemoveBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let _ = filter.remove_batch_cost(&views);
        }
        // Structural events belong to the sharded elastic pool's replay
        // (`sharded::replay_shard`); a single filter has no generations
        // to scale or compact.
        WalOp::ScaleUp { .. } | WalOp::Compact => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::MpcbfConfig;
    use mpcbf_hash::Murmur3;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mpcbf-dur-{tag}-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn filter() -> Mpcbf<u64, Murmur3> {
        let c = MpcbfConfig::builder()
            .memory_bits(200_000)
            .expected_items(2_000)
            .hashes(3)
            .seed(11)
            .build()
            .unwrap();
        Mpcbf::new(c)
    }

    /// Satellite regression: under the relaxed fsync policies a graceful
    /// stop must lose nothing that was acknowledged — `flush()` (and the
    /// WAL's `Drop` sync behind it) closes the gap between "acked" and
    /// "on disk" before the process exits.
    #[test]
    fn graceful_stop_under_relaxed_fsync_loses_nothing() {
        for (tag, policy) in [
            ("everyn", FsyncPolicy::EveryN(10_000)),
            ("interval", FsyncPolicy::Interval(Duration::from_secs(3600))),
        ] {
            let dir = scratch_dir(tag);
            let opts = DurabilityOptions::new(&dir).fsync(policy);
            let mut durable = DurableFilter::create(filter(), opts.clone()).unwrap();
            // 123 is deliberately not a multiple of any sync cadence.
            for i in 0..123u64 {
                durable.insert_bytes(&i.to_le_bytes()).unwrap();
            }
            durable.flush().expect("shutdown flush");
            drop(durable); // clean stop

            let (recovered, report) = DurableFilter::open_or_recover(opts, filter).unwrap();
            assert_eq!(report.records_replayed, 123, "{tag}: acked frame lost");
            assert!(
                report.torn_tails.is_empty(),
                "{tag}: clean stop tore a frame"
            );
            for i in 0..123u64 {
                assert!(
                    recovered.contains_bytes(&i.to_le_bytes()),
                    "{tag}: acknowledged key {i} lost across a graceful stop"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
