//! Durability for sharded pools: one WAL per shard, parallel recovery.
//!
//! [`DurableSharded`] wraps either sharded pool — the fixed-size
//! [`ShardedMpcbf`] or the autoscaling [`ElasticShardedMpcbf`] — through
//! the small [`ShardPool`] trait, so the log layout, the write path, the
//! checkpoint and the recovery exist once for both.
//!
//! * **Layout.** Each shard owns an independent WAL
//!   (`wal-s{NNNN}-*.wal`) with its own sequence numbering — appends on
//!   different shards never contend on a shared log file, mirroring the
//!   pools' one-lock-per-shard design. Keys are routed to their log with
//!   [`ShardPool::home_shard`], the same digest bits that route the probe,
//!   so a shard's WAL replays entirely into that shard.
//! * **Write path.** A [`ShardLog`] holds one shard's WAL and sequence
//!   number and runs the one log-then-apply step: append the key op,
//!   apply it, then ([`ShardLog::settle`]) log and apply any parked
//!   [`WalOp::ScaleUp`] / [`WalOp::Compact`] and move one migration
//!   batch. The fixed pool never parks a plan and never migrates, so for
//!   it the structural steps are no-ops. The server's shard workers run
//!   the same step, replying between the two halves. After a failed
//!   append the log refuses every later one until the directory is
//!   reopened.
//! * **Checkpoints.** [`publish_checkpoint`] writes a small envelope (the
//!   per-shard sequence numbers at capture time, then the pool's codec
//!   image, CRC-sealed) as `snap-*.snap` and purges older snapshots. The
//!   envelope streams to disk one shard at a time, so a checkpoint never
//!   holds a second copy of the pool.
//! * **Recovery.** Load the newest valid snapshot, then scan, repair and
//!   replay every shard's WAL **in parallel** (scoped threads — pool ops
//!   take `&self`), each shard skipping records at or below its snapshot
//!   seq. A [`WalOp::Compact`] record drains the whole migration
//!   synchronously during replay, which lands the recovered pool at the
//!   compaction's fixed point (counter updates commute, so interleaving
//!   differences between the live run and replay cannot diverge it).
//!
//! A directory keeps its mode for life. A snapshot whose image is intact
//! but belongs to the other pool is refused with
//! [`DurableError::ModeMismatch`]; skipping it as corrupt would replay
//! only the WAL tail onto a fresh pool, and the next checkpoint would
//! purge the stored image.

use crate::durable::DurabilityOptions;
use crate::error::DurableError;
use crate::record::{WalOp, WalRecord};
use crate::report::RecoveryReport;
use crate::snapshot::SnapshotStore;
use crate::wal::Wal;
use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf_core::codec::{self, crc32, CodecError, Measure, Sink, Writer};
use mpcbf_core::{FilterError, ScaleSpec};
use mpcbf_hash::Hasher128;
use std::path::Path;

const SNAP_PREFIX: &str = "snap";
const ENVELOPE_MAGIC: &[u8; 4] = b"MPSS";

fn wal_prefix(shard: usize) -> String {
    format!("wal-s{shard:04}")
}

/// Bytes of the envelope around an `image_len`-byte image for `shards`
/// shards: magic, shard count, seqs, image length, image, CRC.
fn envelope_len(shards: usize, image_len: u64) -> u64 {
    4 + 4 + 8 * shards as u64 + 8 + image_len + 4
}

/// Streams the snapshot envelope into `sink`: magic, per-shard seqs, the
/// `image_len`-byte image that `image` writes, and a CRC-32 over all of
/// it, chained as the bytes pass through (the image's own codec CRC runs
/// alongside in the same pass).
fn write_envelope<S: Sink>(
    sink: S,
    seqs: &[u64],
    image_len: u64,
    image: impl FnOnce(&mut Writer<S>),
) -> S {
    let mut env = Writer::unframed(sink);
    env.bytes(ENVELOPE_MAGIC);
    env.u32(seqs.len() as u32);
    for &s in seqs {
        env.u64(s);
    }
    env.u64(image_len);
    image(&mut env);
    env.finish()
}

/// Builds the snapshot envelope: magic, per-shard seqs, inner image, CRC.
/// The bytes [`publish_checkpoint`] streams to disk for the same image.
pub fn encode_envelope(seqs: &[u64], image: &[u8]) -> Vec<u8> {
    let len = envelope_len(seqs.len(), image.len() as u64);
    write_envelope(
        Vec::with_capacity(len as usize),
        seqs,
        image.len() as u64,
        |env| env.bytes(image),
    )
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

/// The mode that wrote an intact snapshot file: `"fixed"` or
/// `"elastic"` for an envelope over a sharded pool image (the names
/// `mpcbf serve` reports), `"single-filter"` for a bare filter image
/// ([`crate::DurableFilter`]). `None` when the file is damaged or holds
/// anything else.
pub(crate) fn stored_mode(bytes: &[u8]) -> Option<&'static str> {
    let (image, mode) = match decode_envelope(bytes) {
        Some((_, image)) => {
            let mode = match *image.get(4)? {
                codec::KIND_SHARDED64 => "fixed",
                codec::KIND_ELASTIC_SHARDED => "elastic",
                _ => return None,
            };
            (image, mode)
        }
        None => (bytes, "single-filter"),
    };
    codec::Reader::open(image, *image.get(4)?)
        .is_ok()
        .then_some(mode)
}

/// A sharded pool the durability layer can log, checkpoint and recover:
/// routing, the image codec, per-key application of logged ops, and the
/// structural hooks an elastic pool needs (no-ops by default).
///
/// Every method takes `&self`: a pool locks per shard, so one writer per
/// shard can mutate it while readers query it in place.
pub trait ShardPool: Send + Sync {
    /// Number of shards, and so of WALs.
    fn shard_count(&self) -> usize;
    /// The shard (and WAL) that owns `key`.
    fn home_shard(&self, key: &[u8]) -> usize;
    /// Membership query against the key's home shard.
    fn contains_bytes(&self, key: &[u8]) -> bool;
    /// Batch membership query; verdicts in input order.
    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool>;
    /// Word-overflow refusals so far (a pool that spills instead of
    /// refusing reports none).
    fn overflows(&self) -> u64 {
        0
    }
    /// Streams the pool's codec image, as checkpoints store it, into
    /// `sink` (a measuring sink gets its length).
    fn encode_to(&self, sink: &mut dyn Sink);
    /// Rebuilds a pool from [`ShardPool::encode_to`]'s image, validating
    /// everything.
    fn decode(image: &[u8]) -> Result<Self, CodecError>
    where
        Self: Sized;
    /// Structural self-check, run once after recovery.
    fn verify(&self) -> Result<(), FilterError>;
    /// Applies one logged key op; per-key results in the op's key
    /// order. Structural ops apply no key and return nothing.
    fn apply(&self, op: &WalOp) -> Vec<Result<(), FilterError>>;
    /// A scale-up `shard` has parked for its writer to log and apply.
    fn scale_plan(&self, _shard: usize) -> Option<ScaleSpec> {
        None
    }
    /// Opens the generation `spec` describes on `shard`.
    fn apply_scale(&self, _shard: usize, _spec: &ScaleSpec) {}
    /// Starts draining `shard`'s sealed generations; `false` when there
    /// is nothing to drain or a migration is already running.
    fn begin_compaction(&self, _shard: usize) -> bool {
        false
    }
    /// Moves one policy-sized batch of `shard`'s migration; `true` while
    /// the migration is still in flight afterwards.
    fn step_compaction(&self, _shard: usize) -> bool {
        false
    }
}

impl<H: Hasher128> ShardPool for ShardedMpcbf<u64, H> {
    fn shard_count(&self) -> usize {
        ShardedMpcbf::shard_count(self)
    }
    fn home_shard(&self, key: &[u8]) -> usize {
        ShardedMpcbf::home_shard(self, key)
    }
    fn contains_bytes(&self, key: &[u8]) -> bool {
        ShardedMpcbf::contains_bytes(self, key)
    }
    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        ShardedMpcbf::contains_batch_bytes(self, keys)
    }
    fn overflows(&self) -> u64 {
        ShardedMpcbf::overflows(self)
    }
    fn encode_to(&self, sink: &mut dyn Sink) {
        ShardedMpcbf::encode_to(self, sink);
    }
    fn decode(image: &[u8]) -> Result<Self, CodecError> {
        ShardedMpcbf::decode(image)
    }
    fn verify(&self) -> Result<(), FilterError> {
        ShardedMpcbf::verify(self)
    }
    /// Batches go through the fused pipeline in one call.
    fn apply(&self, op: &WalOp) -> Vec<Result<(), FilterError>> {
        match op {
            WalOp::Insert(key) => vec![self.insert_bytes(key)],
            WalOp::Remove(key) => vec![self.remove_bytes(key)],
            WalOp::InsertBatch(keys) => self.insert_batch_bytes(&views(keys)),
            WalOp::RemoveBatch(keys) => self.remove_batch_bytes(&views(keys)),
            WalOp::ScaleUp { .. } | WalOp::Compact => Vec::new(),
        }
    }
}

fn views(keys: &[Vec<u8>]) -> Vec<&[u8]> {
    keys.iter().map(|k| k.as_slice()).collect()
}

/// The pool must be manually driven (built by
/// [`ElasticShardedMpcbf::manual`] or decoded from an image of one): an
/// auto-scaling pool would change shape without a WAL record and break
/// replay.
impl<H: Hasher128> ShardPool for ElasticShardedMpcbf<H> {
    fn shard_count(&self) -> usize {
        ElasticShardedMpcbf::shard_count(self)
    }
    fn home_shard(&self, key: &[u8]) -> usize {
        ElasticShardedMpcbf::home_shard(self, key)
    }
    fn contains_bytes(&self, key: &[u8]) -> bool {
        ElasticShardedMpcbf::contains_bytes(self, key)
    }
    fn contains_batch_bytes(&self, keys: &[&[u8]]) -> Vec<bool> {
        ElasticShardedMpcbf::contains_batch_bytes(self, keys)
    }
    fn encode_to(&self, sink: &mut dyn Sink) {
        ElasticShardedMpcbf::encode_to(self, sink);
    }
    fn decode(image: &[u8]) -> Result<Self, CodecError> {
        ElasticShardedMpcbf::decode(image)
    }
    fn verify(&self) -> Result<(), FilterError> {
        ElasticShardedMpcbf::verify(self)
    }
    /// Keys apply one at a time: a generation stack takes its shard
    /// lock per key.
    fn apply(&self, op: &WalOp) -> Vec<Result<(), FilterError>> {
        match op {
            WalOp::Insert(key) => vec![self.insert_bytes(key)],
            WalOp::Remove(key) => vec![self.remove_bytes(key)],
            WalOp::InsertBatch(keys) => keys.iter().map(|k| self.insert_bytes(k)).collect(),
            WalOp::RemoveBatch(keys) => keys.iter().map(|k| self.remove_bytes(k)).collect(),
            WalOp::ScaleUp { .. } | WalOp::Compact => Vec::new(),
        }
    }
    fn scale_plan(&self, shard: usize) -> Option<ScaleSpec> {
        self.with_shard(shard, |f| f.scale_plan())
    }
    fn apply_scale(&self, shard: usize, spec: &ScaleSpec) {
        // A spec no shape fits fails identically during replay, so the
        // log and the pool cannot disagree.
        let _ = self.with_shard(shard, |f| f.apply_scale(spec));
    }
    fn begin_compaction(&self, shard: usize) -> bool {
        self.with_shard(shard, |f| f.begin_compaction())
    }
    fn step_compaction(&self, shard: usize) -> bool {
        self.with_shard(shard, |f| {
            f.step_compaction(f.policy().compact_batch);
            f.compacting()
        })
    }
}

/// One shard's WAL and sequence number: the single writer of that
/// shard's log, in the library wrapper and in each server shard worker
/// alike.
///
/// The first failed append breaks the log for good: the frame may sit
/// whole or torn in the segment while the sequence number stayed put, so
/// a later frame would reuse its number or land behind the torn bytes,
/// and recovery would cut the log there and drop every record after it.
/// A broken log refuses every append with [`DurableError::LogBroken`]
/// until the directory is reopened.
pub struct ShardLog {
    shard: usize,
    wal: Wal,
    seq: u64,
    broken: bool,
}

impl ShardLog {
    /// Opens `shard`'s log for appends after `seq` (a fresh segment).
    fn open(opts: &DurabilityOptions, shard: usize, seq: u64) -> Result<Self, DurableError> {
        let mut wal = Wal::new(
            &opts.dir,
            &wal_prefix(shard),
            opts.fsync,
            opts.segment_bytes,
            opts.kill.clone(),
        )?;
        wal.rotate(seq + 1)?;
        Ok(ShardLog {
            shard,
            wal,
            seq,
            broken: false,
        })
    }

    /// The shard this log belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Last assigned sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn append(&mut self, op: WalOp) -> Result<WalOp, DurableError> {
        if self.broken {
            return Err(DurableError::LogBroken { shard: self.shard });
        }
        let record = WalRecord {
            seq: self.seq + 1,
            op,
        };
        if let Err(e) = self.wal.append(&record) {
            self.broken = true;
            return Err(e);
        }
        self.seq = record.seq;
        Ok(record.op)
    }

    /// Logs `op` and applies it to `pool`; per-key results in the op's
    /// key order. An `Err` means `op` was not applied and must not be
    /// acknowledged (its frame may still have reached the log: durable
    /// but unacknowledged). Follow every applied op with
    /// [`ShardLog::settle`].
    pub fn apply<P: ShardPool + ?Sized>(
        &mut self,
        pool: &P,
        op: WalOp,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let op = self.append(op)?;
        Ok(pool.apply(&op))
    }

    /// The structural half of the write step: logs and applies a
    /// scale-up the shard parked (with its [`WalOp::Compact`] marker),
    /// then moves one migration batch. Returns whether the shard is still
    /// migrating. An `Err` is a failed structural append; the log is
    /// broken and the plan stays unapplied.
    pub fn settle<P: ShardPool + ?Sized>(&mut self, pool: &P) -> Result<bool, DurableError> {
        if let Some(spec) = pool.scale_plan(self.shard) {
            self.append(WalOp::ScaleUp {
                memory_bits: spec.memory_bits,
                expected_items: spec.expected_items,
            })?;
            pool.apply_scale(self.shard, &spec);
            self.append(WalOp::Compact)?;
            pool.begin_compaction(self.shard);
        }
        Ok(pool.step_compaction(self.shard))
    }

    /// Forces the WAL to disk.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()
    }

    /// Retires the records a just-published checkpoint covers: rotates
    /// to a fresh segment and purges the sealed ones.
    pub fn truncate(&mut self) -> Result<(), DurableError> {
        self.wal.rotate(self.seq + 1)?;
        self.wal.purge_below(self.seq + 1).map(|_| ())
    }
}

/// Publishes a whole-pool checkpoint: the envelope of `seqs` (each
/// shard's sequence number at capture time) and `pool`'s image, written
/// atomically, then every older snapshot purged. Writers must be
/// quiesced; afterwards each shard may [`ShardLog::truncate`].
///
/// The envelope is streamed to disk, never held whole: a measuring pass
/// finds the image length the header carries, then the header, the
/// pool's image (one shard at a time) and the CRC trailer go through the
/// snapshot file's buffer. The file is byte-identical to
/// [`encode_envelope`] of the pool's image; if the image length changed
/// between the two passes, the snapshot is abandoned before publication.
pub fn publish_checkpoint<P: ShardPool + ?Sized>(
    snapshots: &SnapshotStore,
    seqs: &[u64],
    pool: &P,
) -> Result<(), DurableError> {
    let snap_seq = seqs.iter().copied().max().unwrap_or(0);
    let mut measured = Measure::default();
    pool.encode_to(&mut measured);
    let image_len = measured.bytes;
    snapshots.write_with(snap_seq, envelope_len(seqs.len(), image_len), |file| {
        write_envelope(file, seqs, image_len, |env| pool.encode_to(env));
    })?;
    snapshots.purge_below(snap_seq)
}

/// Splits a batch by home shard, keeping request order within each
/// shard: per shard, its keys and each key's index in the batch.
#[allow(clippy::type_complexity)]
pub fn group_by_shard<P: ShardPool + ?Sized>(
    pool: &P,
    keys: impl IntoIterator<Item = Vec<u8>>,
) -> (Vec<Vec<Vec<u8>>>, Vec<Vec<u32>>) {
    let count = pool.shard_count();
    let mut groups = vec![Vec::new(); count];
    let mut origin = vec![Vec::new(); count];
    for (i, key) in keys.into_iter().enumerate() {
        let shard = pool.home_shard(&key);
        groups[shard].push(key);
        origin[shard].push(i as u32);
    }
    (groups, origin)
}

/// Write-ahead-logged sharded pool with per-shard logs and parallel
/// crash recovery. Mutations take `&mut self` — the logging layer is
/// single-writer even though the pool beneath is not; a concurrent
/// server decomposes the wrapper with
/// [`DurableSharded::into_service_parts`] and runs each shard's
/// [`ShardLog`] on that shard's worker.
pub struct DurableSharded<P> {
    pool: P,
    logs: Vec<ShardLog>,
    snapshots: SnapshotStore,
    records_since_snapshot: u64,
    snapshot_every: Option<u64>,
}

impl<P: ShardPool> DurableSharded<P> {
    /// Starts a fresh durable pool: initial snapshot, one WAL segment
    /// per shard.
    pub fn create(pool: P, opts: DurabilityOptions) -> Result<Self, DurableError> {
        let (logs, snapshots) = Self::initialise(&pool, &opts)?;
        Ok(DurableSharded {
            pool,
            logs,
            snapshots,
            records_since_snapshot: 0,
            snapshot_every: opts.snapshot_every,
        })
    }

    /// Materialises a bulk-built pool as a durable directory without
    /// logging a single per-key WAL frame: initial snapshot of `pool` as
    /// it stands, plus one empty WAL segment per shard. A subsequent
    /// [`DurableSharded::open_or_recover`] (or `mpcbf serve`) cold-starts
    /// from the snapshot with zero records replayed.
    pub fn bootstrap(pool: &P, opts: DurabilityOptions) -> Result<(), DurableError> {
        Self::initialise(pool, &opts).map(|_| ())
    }

    fn initialise(
        pool: &P,
        opts: &DurabilityOptions,
    ) -> Result<(Vec<ShardLog>, SnapshotStore), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let logs = (0..pool.shard_count())
            .map(|shard| ShardLog::open(opts, shard, 0))
            .collect::<Result<Vec<_>, _>>()?;
        publish_checkpoint(&snapshots, &vec![0; logs.len()], pool)?;
        Ok((logs, snapshots))
    }

    /// Recovers from `opts.dir`: newest valid snapshot, then every
    /// shard's WAL scanned, repaired, and replayed in parallel —
    /// structural records included, so an elastic pool comes back with
    /// the same generation stacks. `fallback` supplies the pool for a
    /// fresh (or fully corrupt) directory; its shard count defines the
    /// log layout.
    ///
    /// Fails with [`DurableError::ModeMismatch`], leaving the directory
    /// untouched, when the snapshot holds an intact image of another
    /// mode.
    pub fn open_or_recover(
        opts: DurabilityOptions,
        fallback: impl FnOnce() -> P,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut report = RecoveryReport::default();
        let (base, corrupt) = snapshots.load_latest_with(|bytes| {
            let Some((seqs, image)) = decode_envelope(bytes) else {
                return stored_mode(bytes).map(Err);
            };
            match P::decode(image) {
                Ok(pool) => (seqs.len() == pool.shard_count()).then_some(Ok((seqs, pool))),
                // Intact, but the other pool's codec kind.
                Err(CodecError::UnknownKind(_)) => stored_mode(bytes).map(Err),
                Err(_) => None,
            }
        })?;
        report.snapshots_corrupt = corrupt;
        let (pool, snap_seqs) = match base {
            Some((snapshot_seq, Err(stored))) => {
                return Err(DurableError::ModeMismatch {
                    snapshot_seq,
                    stored,
                })
            }
            Some((snap_seq, Ok((seqs, pool)))) => {
                report.snapshot_seq = Some(snap_seq);
                (pool, seqs)
            }
            None => {
                let pool = fallback();
                let count = pool.shard_count();
                (pool, vec![0; count])
            }
        };

        // Scan + repair + replay each shard's log on its own thread.
        let shard_reports: Vec<Result<RecoveryReport, DurableError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = snap_seqs
                    .iter()
                    .enumerate()
                    .map(|(shard, &base_seq)| {
                        let (dir, pool) = (&opts.dir, &pool);
                        scope.spawn(move || replay_shard(dir, shard, base_seq, pool))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard recovery panicked"))
                    .collect()
            });
        let mut seqs = Vec::with_capacity(shard_reports.len());
        for shard_report in shard_reports {
            let shard_report = shard_report?;
            report.absorb_shard(&shard_report);
            seqs.push(shard_report.last_seq);
        }

        // One structural pass over the recovered pool. The snapshot
        // already passed the envelope CRC, the codec CRC and the decode
        // checks; verify adds a check of what replay changed. A seal
        // taken now and scrubbed at once would add nothing: its CRC half
        // compares the words with themselves and its invariant half is
        // this same check.
        report.scrub_clean = pool.verify().is_ok();

        let logs = seqs
            .iter()
            .enumerate()
            .map(|(shard, &seq)| ShardLog::open(&opts, shard, seq))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((
            DurableSharded {
                pool,
                logs,
                snapshots,
                records_since_snapshot: 0,
                snapshot_every: opts.snapshot_every,
            },
            report,
        ))
    }

    /// The wrapped pool (reads only; mutate through the logged entry
    /// points).
    pub fn inner(&self) -> &P {
        &self.pool
    }

    /// Per-shard last-assigned sequence numbers.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.logs.iter().map(ShardLog::seq).collect()
    }

    fn log_apply(
        &mut self,
        shard: usize,
        op: WalOp,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let log = &mut self.logs[shard];
        let before = log.seq();
        // A failed scale-up append fails the op that triggered it.
        let applied = log
            .apply(&self.pool, op)
            .and_then(|results| log.settle(&self.pool).map(|_| results));
        self.records_since_snapshot += log.seq() - before;
        applied
    }

    fn maybe_snapshot(&mut self) -> Result<(), DurableError> {
        if let Some(every) = self.snapshot_every {
            if self.records_since_snapshot >= every {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    fn mutate(&mut self, key: &[u8], op: WalOp) -> Result<(), DurableError> {
        let shard = self.pool.home_shard(key);
        let result = self
            .log_apply(shard, op)?
            .pop()
            .expect("a key op has one result");
        self.maybe_snapshot()?;
        result.map_err(DurableError::Filter)
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn insert_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        self.mutate(key, WalOp::Insert(key.to_vec()))
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn remove_bytes(&mut self, key: &[u8]) -> Result<(), DurableError> {
        self.mutate(key, WalOp::Remove(key.to_vec()))
    }

    /// Logs the batch as one frame **per touched shard** and applies each
    /// frame as it lands (a shard's sub-batch replays all-or-nothing into
    /// that shard, preserving in-shard batch order). Per-key results in
    /// input order.
    pub fn insert_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.mutate_batch(keys, WalOp::InsertBatch)
    }

    /// Batch remove twin of [`DurableSharded::insert_batch_bytes`].
    pub fn remove_batch_bytes(
        &mut self,
        keys: &[&[u8]],
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.mutate_batch(keys, WalOp::RemoveBatch)
    }

    fn mutate_batch(
        &mut self,
        keys: &[&[u8]],
        frame: fn(Vec<Vec<u8>>) -> WalOp,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let (groups, origin) = group_by_shard(&self.pool, keys.iter().map(|k| k.to_vec()));
        let mut results = vec![Ok(()); keys.len()];
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            for (result, &i) in self
                .log_apply(shard, frame(group))?
                .into_iter()
                .zip(&origin[shard])
            {
                results[i as usize] = result;
            }
        }
        self.maybe_snapshot()?;
        Ok(results)
    }

    /// Unlogged read.
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        self.pool.contains_bytes(key)
    }

    /// Forces every shard's WAL to disk.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.logs.iter_mut().try_for_each(ShardLog::sync)
    }

    /// Shutdown flush — every acknowledged op durable before a clean
    /// stop. Alias of [`DurableSharded::sync`], named for symmetry with
    /// [`crate::DurableFilter::flush`].
    pub fn flush(&mut self) -> Result<(), DurableError> {
        self.sync()
    }

    /// Decomposes the single-writer wrapper so a server can run each
    /// shard's [`ShardLog`] on that shard's worker thread while sharing
    /// the `&self`-concurrent pool across connections. Checkpoints go
    /// through [`publish_checkpoint`] on the [`SnapshotStore`], so
    /// service checkpoints and library recovery stay one format.
    pub fn into_service_parts(self) -> (P, Vec<ShardLog>, SnapshotStore) {
        (self.pool, self.logs, self.snapshots)
    }

    /// Whole-pool snapshot: syncs every WAL, publishes the checkpoint,
    /// then rotates and purges every shard's log.
    pub fn snapshot(&mut self) -> Result<(), DurableError> {
        self.sync()?;
        publish_checkpoint(&self.snapshots, &self.shard_seqs(), &self.pool)?;
        self.logs.iter_mut().try_for_each(ShardLog::truncate)?;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

/// Scans, repairs and replays one shard's WAL past `base_seq`. Key ops
/// re-route through the pool (deterministic, so they land back in
/// `shard`); structural ops apply to `shard` directly — a
/// [`WalOp::ScaleUp`] opens the logged generation, a [`WalOp::Compact`]
/// begins and fully drains the migration.
fn replay_shard<P: ShardPool>(
    dir: &Path,
    shard: usize,
    base_seq: u64,
    pool: &P,
) -> Result<RecoveryReport, DurableError> {
    let (records, scan) = Wal::scan(dir, &wal_prefix(shard))?;
    let mut report = RecoveryReport {
        records_scanned: scan.records,
        segments_dropped: scan.segments_dropped,
        bytes_truncated: scan.bytes_truncated,
        last_seq: base_seq,
        ..Default::default()
    };
    report.torn_tails.extend(scan.torn);
    for record in records.iter().filter(|r| r.seq > base_seq) {
        report.records_replayed += 1;
        report.ops_replayed += record.op.op_count();
        match &record.op {
            WalOp::ScaleUp {
                memory_bits,
                expected_items,
            } => {
                let spec = ScaleSpec {
                    memory_bits: *memory_bits,
                    expected_items: *expected_items,
                };
                pool.apply_scale(shard, &spec);
            }
            WalOp::Compact => {
                if pool.begin_compaction(shard) {
                    while pool.step_compaction(shard) {}
                }
            }
            // Refusals re-refuse deterministically; their results are
            // discarded.
            key_op => {
                pool.apply(key_op);
            }
        }
        report.last_seq = record.seq;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcbf_core::policy::CapacityPolicy;
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

    fn pool_config(seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(131_072)
            .expected_items(2_000)
            .hashes(3)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn fresh_pool(seed: u64) -> ElasticShardedMpcbf {
        ElasticShardedMpcbf::manual(pool_config(seed), 2, CapacityPolicy::default()).unwrap()
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
    fn stored_mode_names_every_intact_image_and_nothing_else() {
        let fixed = encode_envelope(&[0; 8], &filter().encode());
        let elastic = encode_envelope(&[0; 2], &fresh_pool(1).encode());
        assert_eq!(stored_mode(&fixed), Some("fixed"));
        assert_eq!(stored_mode(&elastic), Some("elastic"));
        assert_eq!(stored_mode(&filter().encode()), Some("single-filter"));
        assert_eq!(stored_mode(&encode_envelope(&[0], &[7; 40])), None);
        let mut damaged = fixed.clone();
        damaged[fixed.len() / 2] ^= 1;
        assert_eq!(stored_mode(&damaged), None);
    }

    #[test]
    fn clean_restart_recovers_bit_exact_in_parallel() {
        let dir = scratch_dir("clean");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableSharded::create(filter(), opts.clone()).unwrap();
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

        let (recovered, report) = DurableSharded::open_or_recover(opts, filter).unwrap();
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
    fn batch_results_come_back_in_input_order() {
        let dir = scratch_dir("order");
        let mut durable = DurableSharded::create(filter(), DurabilityOptions::new(&dir)).unwrap();
        let keys: Vec<Vec<u8>> = (0..64u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        durable.insert_batch_bytes(&views[..32]).unwrap();
        // The first half is present, the second half is refused as
        // absent: each verdict must land on its own key's slot.
        let results = durable.remove_batch_bytes(&views).unwrap();
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.is_ok(), i < 32, "key {i}: {result:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_all_shard_logs() {
        let dir = scratch_dir("snap");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableSharded::create(filter(), opts.clone()).unwrap();
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

        let (recovered, report) = DurableSharded::open_or_recover(opts, filter).unwrap();
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

    #[test]
    fn overload_scales_through_the_log_and_recovers_the_stack() {
        let dir = scratch_dir("scale");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableSharded::create(fresh_pool(11), opts.clone()).unwrap();
        for i in 0..20_000u64 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let stats = durable.inner().stats();
        assert!(stats.scale_events > 0, "10x overload must log a scale-up");
        drop(durable); // crash without a snapshot of the tail

        let (recovered, report) = DurableSharded::open_or_recover(opts, || fresh_pool(11)).unwrap();
        assert!(report.scrub_clean, "verify must pass: {report}");
        assert!(report.records_replayed > 0);
        let rstats = recovered.inner().stats();
        assert_eq!(rstats.items, 20_000);
        assert_eq!(rstats.scale_events, stats.scale_events);
        for i in 0..20_000u64 {
            assert!(
                recovered.contains_bytes(&i.to_le_bytes()),
                "false negative {i} after recovery"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_mid_migration_recovers_and_finishes_compaction() {
        let dir = scratch_dir("midmig");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableSharded::create(fresh_pool(12), opts.clone()).unwrap();
        // Push far enough that some shard is mid-compaction (the write
        // path drains `compact_batch` keys per op, so a burst right
        // after the trigger leaves a migration in flight).
        let mut i = 0u64;
        while durable.inner().stats().compacting_shards == 0 && i < 60_000 {
            durable.insert_bytes(&i.to_le_bytes()).unwrap();
            i += 1;
        }
        assert!(i < 60_000, "never entered a compaction window");
        durable.snapshot().unwrap();
        for j in i..i + 500 {
            durable.insert_bytes(&j.to_le_bytes()).unwrap();
        }
        let total = i + 500;
        drop(durable);

        let (recovered, report) = DurableSharded::open_or_recover(opts, || fresh_pool(12)).unwrap();
        assert!(report.snapshot_seq.is_some());
        assert!(report.scrub_clean, "verify must pass: {report}");
        assert_eq!(recovered.inner().items(), total);
        for k in 0..total {
            assert!(recovered.contains_bytes(&k.to_le_bytes()), "lost key {k}");
        }
        // Recovery must leave the in-flight migration resumable.
        for shard in 0..recovered.inner().shard_count() {
            while recovered.inner().step_compaction(shard) {}
        }
        assert_eq!(recovered.inner().verify(), Ok(()));
        assert_eq!(recovered.inner().items(), total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_scale_up_append_breaks_the_log_and_loses_no_acked_key() {
        let dir = scratch_dir("broken");
        let kill = crate::KillSwitch::new();
        let opts = DurabilityOptions::new(&dir).kill(kill.clone());
        let (pool, mut logs, _) = DurableSharded::create(fresh_pool(14), opts.clone())
            .unwrap()
            .into_service_parts();
        let (mut acked, mut refused, mut broken_shard) = (Vec::new(), 0, None);
        for i in 0..20_000u64 {
            let key = i.to_le_bytes().to_vec();
            let log = &mut logs[pool.home_shard(&key)];
            // Acknowledged once applied, before settling, as the server
            // replies.
            match log.apply(&pool, WalOp::Insert(key.clone())) {
                Ok(results) => {
                    assert_eq!(results[0], Ok(()));
                    acked.push(key);
                }
                Err(e) => {
                    assert_eq!(Some(log.shard()), broken_shard, "{e}");
                    refused += 1;
                }
            }
            if broken_shard.is_none() && pool.scale_plan(log.shard()).is_some() {
                // The ScaleUp frame is written whole; its fsync fails.
                kill.arm(crate::KillSite::WalFsync, 0);
                assert!(log.settle(&pool).unwrap_err().is_kill());
                broken_shard = Some(log.shard());
            } else {
                let _ = log.settle(&pool);
            }
        }
        assert!(broken_shard.is_some(), "overload must park a scale-up");
        assert!(refused > 0, "the broken log must refuse later appends");
        drop((pool, logs));

        let (recovered, report) = DurableSharded::open_or_recover(opts, || fresh_pool(14)).unwrap();
        assert!(report.scrub_clean, "verify must pass: {report}");
        for key in &acked {
            assert!(
                recovered.contains_bytes(key),
                "acknowledged key {key:?} lost"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_and_removals_replay_into_the_elastic_pool() {
        let dir = scratch_dir("batch");
        let opts = DurabilityOptions::new(&dir);
        let mut durable = DurableSharded::create(fresh_pool(13), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..4_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        durable.insert_batch_bytes(&views).unwrap();
        durable.remove_batch_bytes(&views[..1_000]).unwrap();
        durable.remove_bytes(&keys[1_000]).unwrap();
        drop(durable);

        let (recovered, report) = DurableSharded::open_or_recover(opts, || fresh_pool(13)).unwrap();
        assert!(report.scrub_clean);
        assert_eq!(recovered.inner().items(), 4_000 - 1_001);
        let mut removed_hits = 0u64;
        for (idx, key) in keys.iter().enumerate() {
            if idx > 1_000 {
                assert!(recovered.contains_bytes(key), "false negative {idx}");
            } else if recovered.contains_bytes(key) {
                removed_hits += 1; // false positive — allowed, just bounded
            }
        }
        assert!(
            removed_hits < 100,
            "removed keys should mostly query absent, {removed_hits} hit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
