//! Durability for [`ShardedMpcbf`]: one WAL per shard, parallel recovery.
//!
//! Each shard owns an independent WAL (`wal-s{N}-*.wal`) with its own
//! sequence numbering — appends on different shards never contend on a
//! shared log file, mirroring the filter's one-lock-per-shard design.
//! Keys are routed to their log with [`ShardedMpcbf::home_shard`], the
//! same disjoint digest bits that route the probe, so a shard's WAL
//! replays entirely into that shard.
//!
//! Snapshots are whole-filter: a small envelope records every shard's
//! sequence number at capture time, followed by the sharded filter's
//! codec image, CRC-sealed. Recovery loads the newest valid snapshot
//! and then scans + replays every shard's WAL **in parallel** (scoped
//! threads — shard ops take `&self`), each shard skipping records at or
//! below its snapshot seq.

use crate::durable::DurabilityOptions;
use crate::error::DurableError;
use crate::record::{WalOp, WalRecord};
use crate::report::RecoveryReport;
use crate::snapshot::SnapshotStore;
use crate::wal::Wal;
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::codec::crc32;
use mpcbf_hash::{Hasher128, Murmur3};

const SNAP_PREFIX: &str = "snap";
const ENVELOPE_MAGIC: &[u8; 4] = b"MPSS";

fn wal_prefix(shard: usize) -> String {
    format!("wal-s{shard:04}")
}

/// Builds the snapshot envelope: magic, per-shard seqs, inner image, CRC.
///
/// Public so a server that decomposes the wrapper (see
/// [`DurableShardedMpcbf::into_service_parts`]) can publish snapshots in
/// the same format recovery expects.
pub fn encode_envelope(seqs: &[u64], image: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + seqs.len() * 8 + 8 + image.len() + 4);
    out.extend_from_slice(ENVELOPE_MAGIC);
    out.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
    for &s in seqs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out.extend_from_slice(&(image.len() as u64).to_le_bytes());
    out.extend_from_slice(image);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Total parse of the envelope; `None` on any inconsistency.
pub fn decode_envelope(buf: &[u8]) -> Option<(Vec<u64>, &[u8])> {
    if buf.len() < 4 + 4 + 8 + 4 || &buf[..4] != ENVELOPE_MAGIC {
        return None;
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let shard_count = u32::from_le_bytes(body[4..8].try_into().ok()?) as usize;
    // Every seq costs 8 bytes; the body bounds the plausible count.
    if shard_count > body.len() / 8 {
        return None;
    }
    let mut pos = 8;
    let mut seqs = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        seqs.push(u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?));
        pos += 8;
    }
    let image_len = u64::from_le_bytes(body.get(pos..pos + 8)?.try_into().ok()?) as usize;
    pos += 8;
    let image = body.get(pos..pos.checked_add(image_len)?)?;
    if pos + image_len != body.len() {
        return None;
    }
    Some((seqs, image))
}

/// Write-ahead-logged [`ShardedMpcbf`] with per-shard logs and parallel
/// crash recovery. Mutations take `&mut self` — the logging layer is
/// single-writer even though the filter beneath is not; a concurrent
/// durable server runs one `DurableShardedMpcbf` behind a writer thread
/// (or shards the wrapper itself).
pub struct DurableShardedMpcbf<H: Hasher128 = Murmur3> {
    inner: ShardedMpcbf<u64, H>,
    wals: Vec<Wal>,
    seqs: Vec<u64>,
    snapshots: SnapshotStore,
    records_since_snapshot: u64,
    snapshot_every: Option<u64>,
}

impl<H: Hasher128> DurableShardedMpcbf<H> {
    /// Starts a fresh durable sharded filter: initial snapshot, one WAL
    /// segment per shard.
    pub fn create(
        inner: ShardedMpcbf<u64, H>,
        opts: DurabilityOptions,
    ) -> Result<Self, DurableError> {
        let shard_count = inner.shard_count();
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut wals = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let mut wal = Wal::new(
                &opts.dir,
                &wal_prefix(shard),
                opts.fsync,
                opts.segment_bytes,
                opts.kill.clone(),
            )?;
            wal.rotate(1)?;
            wals.push(wal);
        }
        let seqs = vec![0; shard_count];
        snapshots.write(0, &encode_envelope(&seqs, &inner.encode()))?;
        Ok(DurableShardedMpcbf {
            inner,
            wals,
            seqs,
            snapshots,
            records_since_snapshot: 0,
            snapshot_every: opts.snapshot_every,
        })
    }

    /// Materialises a bulk-built filter as a durable directory without
    /// logging a single per-key WAL frame: initial snapshot of `inner`
    /// as it stands, plus one empty WAL segment per shard. A subsequent
    /// [`DurableShardedMpcbf::open_or_recover`] (or `mpcbf serve`)
    /// cold-starts from the snapshot with zero records replayed.
    pub fn bootstrap(
        inner: &ShardedMpcbf<u64, H>,
        opts: DurabilityOptions,
    ) -> Result<(), DurableError> {
        let shard_count = inner.shard_count();
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        for shard in 0..shard_count {
            let mut wal = Wal::new(
                &opts.dir,
                &wal_prefix(shard),
                opts.fsync,
                opts.segment_bytes,
                opts.kill.clone(),
            )?;
            wal.rotate(1)?;
        }
        snapshots.write(0, &encode_envelope(&vec![0; shard_count], &inner.encode()))?;
        Ok(())
    }

    /// Recovers from `opts.dir`: newest valid snapshot, then every
    /// shard's WAL scanned, repaired, and replayed in parallel.
    /// `fallback` supplies the filter for a fresh (or fully corrupt)
    /// directory; its shard count defines the log layout.
    pub fn open_or_recover(
        opts: DurabilityOptions,
        fallback: impl FnOnce() -> ShardedMpcbf<u64, H>,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut report = RecoveryReport::default();
        let (base, corrupt) = snapshots.load_latest_with(|bytes| {
            let (seqs, image) = decode_envelope(bytes)?;
            let filter = ShardedMpcbf::<u64, H>::decode(image).ok()?;
            (seqs.len() == filter.shard_count()).then_some((seqs, filter))
        })?;
        report.snapshots_corrupt = corrupt;
        let (inner, snap_seqs) = match base {
            Some((snap_seq, (seqs, filter))) => {
                report.snapshot_seq = Some(snap_seq);
                (filter, seqs)
            }
            None => {
                let filter = fallback();
                let count = filter.shard_count();
                (filter, vec![0; count])
            }
        };
        let shard_count = inner.shard_count();

        // Scan + repair + replay each shard's log on its own thread.
        let mut shard_results: Vec<Option<Result<(RecoveryReport, u64), DurableError>>> =
            (0..shard_count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shard_count);
            for (shard, &base_seq) in snap_seqs.iter().enumerate() {
                let dir = opts.dir.clone();
                let inner_ref = &inner;
                handles.push(scope.spawn(move || {
                    let prefix = wal_prefix(shard);
                    let (records, scan) = Wal::scan(&dir, &prefix)?;
                    let mut shard_report = RecoveryReport {
                        records_scanned: scan.records,
                        segments_dropped: scan.segments_dropped,
                        bytes_truncated: scan.bytes_truncated,
                        scrub_clean: true,
                        ..Default::default()
                    };
                    shard_report.torn_tails.extend(scan.torn);
                    let mut last_seq = base_seq;
                    for record in &records {
                        if record.seq <= base_seq {
                            continue;
                        }
                        shard_report.records_replayed += 1;
                        shard_report.ops_replayed += record.op.op_count();
                        apply_shard_op(inner_ref, &record.op);
                        last_seq = record.seq;
                    }
                    shard_report.last_seq = last_seq;
                    Ok((shard_report, last_seq))
                }));
            }
            for (shard, handle) in handles.into_iter().enumerate() {
                shard_results[shard] = Some(handle.join().expect("shard recovery panicked"));
            }
        });

        let mut seqs = Vec::with_capacity(shard_count);
        for result in shard_results {
            let (shard_report, last_seq) = result.expect("every shard joined")?;
            report.absorb_shard(&shard_report);
            seqs.push(last_seq);
        }

        // One structural pass over the recovered words, as the elastic
        // path does. The snapshot already passed the envelope CRC, the
        // codec CRC and a per-word check at decode; verify adds a check
        // of the words replay changed. A seal taken now and scrubbed at
        // once would add nothing: its CRC half compares the words with
        // themselves and its invariant half is this same check.
        report.scrub_clean = inner.verify().is_ok();

        let mut wals = Vec::with_capacity(shard_count);
        for (shard, &last_seq) in seqs.iter().enumerate() {
            let mut wal = Wal::new(
                &opts.dir,
                &wal_prefix(shard),
                opts.fsync,
                opts.segment_bytes,
                opts.kill.clone(),
            )?;
            wal.rotate(last_seq + 1)?;
            wals.push(wal);
        }
        Ok((
            DurableShardedMpcbf {
                inner,
                wals,
                seqs,
                snapshots,
                records_since_snapshot: 0,
                snapshot_every: opts.snapshot_every,
            },
            report,
        ))
    }

    /// The wrapped sharded filter (reads only; mutate through the
    /// logged entry points).
    pub fn inner(&self) -> &ShardedMpcbf<u64, H> {
        &self.inner
    }

    /// Per-shard last-assigned sequence numbers.
    pub fn shard_seqs(&self) -> &[u64] {
        &self.seqs
    }

    fn log_to(&mut self, shard: usize, op: WalOp) -> Result<(), DurableError> {
        let seq = self.seqs[shard] + 1;
        self.wals[shard].append(&WalRecord { seq, op })?;
        self.seqs[shard] = seq;
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

    /// Logs to the key's home-shard WAL, then applies.
    pub fn insert_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        let shard = self.inner.home_shard(key);
        self.log_to(shard, WalOp::Insert(key.to_vec()))?;
        let result = self.inner.insert_bytes(key);
        self.maybe_snapshot()?;
        result.map_err(DurableError::Filter)
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn remove_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        let shard = self.inner.home_shard(key);
        self.log_to(shard, WalOp::Remove(key.to_vec()))?;
        let result = self.inner.remove_bytes(key);
        self.maybe_snapshot()?;
        result.map_err(DurableError::Filter)
    }

    /// Logs the batch as one frame **per touched shard** (each shard's
    /// sub-batch replays all-or-nothing into that shard, preserving
    /// in-shard batch order), then applies through the fused pipeline.
    pub fn insert_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), mpcbf_core::FilterError>>, DurableError> {
        self.log_batch(keys, true)?;
        let results = self.inner.insert_batch_bytes(keys);
        self.maybe_snapshot()?;
        Ok(results)
    }

    /// Batch remove twin of [`DurableShardedMpcbf::insert_batch_bytes`].
    pub fn remove_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), mpcbf_core::FilterError>>, DurableError> {
        self.log_batch(keys, false)?;
        let results = self.inner.remove_batch_bytes(keys);
        self.maybe_snapshot()?;
        Ok(results)
    }

    fn log_batch(&mut self, keys: &[&[u8]], insert: bool) -> Result<(), DurableError> {
        let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); self.wals.len()];
        for key in keys {
            per_shard[self.inner.home_shard(key)].push(key.to_vec());
        }
        for (shard, group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let op = if insert {
                WalOp::InsertBatch(group)
            } else {
                WalOp::RemoveBatch(group)
            };
            self.log_to(shard, op)?;
        }
        Ok(())
    }

    /// Unlogged read.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        self.inner.contains_bytes(key)
    }

    /// Forces every shard's WAL to disk.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        for wal in &mut self.wals {
            wal.sync()?;
        }
        Ok(())
    }

    /// Shutdown flush — every acknowledged op durable before a clean
    /// stop. Alias of [`DurableShardedMpcbf::sync`], named for symmetry
    /// with [`crate::DurableFilter::flush`].
    pub fn flush(&mut self) -> Result<(), DurableError> {
        self.sync()
    }

    /// Decomposes the single-writer wrapper into its parts so a server
    /// can own each shard's WAL (plus its sequence counter) on that
    /// shard's worker thread while sharing the `&self`-concurrent filter
    /// across connections. The [`SnapshotStore`] keeps writing envelopes
    /// ([`encode_envelope`]) that [`DurableShardedMpcbf::open_or_recover`]
    /// reads back, so service checkpoints and library recovery stay one
    /// format.
    pub fn into_service_parts(self) -> (ShardedMpcbf<u64, H>, Vec<Wal>, Vec<u64>, SnapshotStore) {
        (self.inner, self.wals, self.seqs, self.snapshots)
    }

    /// Whole-filter snapshot: syncs every WAL, publishes the envelope
    /// (per-shard seqs + filter image) atomically, then rotates and
    /// purges every shard's log.
    pub fn snapshot(&mut self) -> Result<(), DurableError> {
        self.sync()?;
        let envelope = encode_envelope(&self.seqs, &self.inner.encode());
        let snap_seq = self.seqs.iter().copied().max().unwrap_or(0);
        self.snapshots.write(snap_seq, &envelope)?;
        for (shard, wal) in self.wals.iter_mut().enumerate() {
            wal.rotate(self.seqs[shard] + 1)?;
            wal.purge_below(self.seqs[shard] + 1)?;
        }
        self.snapshots.purge_below(snap_seq)?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

/// Replay twin of the live entry points, over the `&self` sharded API.
fn apply_shard_op<H: Hasher128>(filter: &ShardedMpcbf<u64, H>, op: &WalOp) {
    match op {
        WalOp::Insert(key) => {
            let _ = filter.insert_bytes(key);
        }
        WalOp::Remove(key) => {
            let _ = filter.remove_bytes(key);
        }
        WalOp::InsertBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let _ = filter.insert_batch_bytes(&views);
        }
        WalOp::RemoveBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let _ = filter.remove_batch_bytes(&views);
        }
        // Structural events belong to the elastic replay path
        // (`elastic::apply_elastic_op`); the fixed-size sharded pool has
        // no generations to scale or compact.
        WalOp::ScaleUp { .. } | WalOp::Compact => {}
    }
}

/// Re-exported for the envelope tests.
#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::MpcbfConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("mpcbf-dsh-{tag}-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn filter() -> ShardedMpcbf<u64> {
        let c = MpcbfConfig::builder()
            .memory_bits(500_000)
            .expected_items(5_000)
            .hashes(3)
            .seed(21)
            .build()
            .unwrap();
        ShardedMpcbf::new(c, 8)
    }

    #[test]
    fn envelope_roundtrip_and_rejection() {
        let seqs = vec![3, 0, 77, 12];
        let image = vec![9u8; 200];
        let env = encode_envelope(&seqs, &image);
        let (dseqs, dimage) = decode_envelope(&env).unwrap();
        assert_eq!(dseqs, seqs);
        assert_eq!(dimage, &image[..]);
        for pos in 0..env.len() {
            let mut corrupt = env.clone();
            corrupt[pos] ^= 0x20;
            assert!(decode_envelope(&corrupt).is_none(), "flip at {pos}");
        }
        for cut in 0..env.len() {
            assert!(decode_envelope(&env[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn clean_restart_recovers_bit_exact_in_parallel() {
        let dir = scratch_dir("clean");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableShardedMpcbf::<Murmur3>::create(filter(), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..2_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for (i, key) in keys.iter().enumerate() {
            if i % 3 == 0 {
                durable.insert_bytes(key).unwrap();
            }
        }
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        durable.insert_batch_bytes(&views[..500]).unwrap();
        durable.remove_batch_bytes(&views[..100]).unwrap();
        let reference: Vec<Vec<u64>> = (0..durable.inner().shard_count())
            .map(|s| durable.inner().shard_raw_words(s))
            .collect();
        drop(durable); // "crash" without snapshotting the tail

        let (recovered, report) =
            DurableShardedMpcbf::<Murmur3>::open_or_recover(opts, filter).unwrap();
        assert!(report.scrub_clean, "scrub must pass: {report}");
        assert!(report.records_replayed > 0);
        for (s, words) in reference.iter().enumerate() {
            assert_eq!(
                &recovered.inner().shard_raw_words(s),
                words,
                "shard {s} not bit-identical"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_all_shard_logs() {
        let dir = scratch_dir("snap");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableShardedMpcbf::<Murmur3>::create(filter(), opts.clone()).unwrap();
        for i in 0..1_000u64 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        durable.snapshot().unwrap();
        for i in 1_000..1_200u64 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let reference: Vec<Vec<u64>> = (0..durable.inner().shard_count())
            .map(|s| durable.inner().shard_raw_words(s))
            .collect();
        drop(durable);

        let (recovered, report) =
            DurableShardedMpcbf::<Murmur3>::open_or_recover(opts, filter).unwrap();
        assert!(report.snapshot_seq.is_some(), "snapshot must be the base");
        assert!(
            report.records_replayed <= 200,
            "snapshot must bound the replay: {}",
            report.records_replayed
        );
        for (s, words) in reference.iter().enumerate() {
            assert_eq!(&recovered.inner().shard_raw_words(s), words, "shard {s}");
        }
        for i in 0..1_200u64 {
            assert!(recovered.contains_bytes(&i.to_le_bytes()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
