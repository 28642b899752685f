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
//!   pools' independent shards. Keys are routed to their log with
//!   [`ShardPool::home_shard`], the same digest bits that route the probe,
//!   so a shard's WAL replays entirely into that shard.
//! * **Write path.** Each shard's WAL and sequence number sit behind that
//!   shard's own lock, and every method takes `&self`, so any number of
//!   threads write at once. A write locks its shard and runs the one
//!   log-then-apply step: append the key op, apply it, then settle — log
//!   and apply any parked [`WalOp::ScaleUp`] / [`WalOp::Compact`] and
//!   move one migration batch — and unlock. A batch does the same for
//!   each shard it touches, one shard at a time, in index order. The
//!   fixed pool never parks a plan and never migrates, so for it the
//!   structural steps are no-ops. After a failed append the shard's log
//!   refuses every later one until the directory is reopened.
//! * **Checkpoints.** [`DurableSharded::snapshot`] locks every shard in
//!   index order, so no writer runs while [`publish_checkpoint`] writes a
//!   small envelope (the per-shard sequence numbers, then the pool's
//!   codec image, CRC-sealed) as `snap-*.snap` and purges older
//!   snapshots; then each log is truncated. No other path holds two
//!   shard locks at once, so no two paths can deadlock. The envelope
//!   streams to disk one shard at a time, so a checkpoint never holds a
//!   second copy of the pool.
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

use crate::error::DurableError;
use crate::kill::KillSwitch;
use crate::record::{WalOp, WalRecord};
use crate::report::RecoveryReport;
use crate::snapshot::SnapshotStore;
use crate::wal::{sync_dir, FsyncPolicy, Wal, SEGMENT_HEADER};
use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf_core::codec::{
    self, crc32, crc32_combine, CodecError, Framed, Measure, Sink, CRC32_RESIDUE,
};
use mpcbf_core::{FilterError, ScaleSpec};
use mpcbf_hash::Hasher128;
use std::io::{BufRead, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const SNAP_PREFIX: &str = "snap";
const ENVELOPE_MAGIC: &[u8; 4] = b"MPSS";
/// Rotation threshold of every shard's WAL segments, in bytes.
const SEGMENT_BYTES: u64 = 8 << 20;

fn wal_prefix(shard: usize) -> String {
    format!("wal-s{shard:04}")
}

/// The shard logs a directory holds.
struct LogLayout {
    /// One more than the highest `NNNN` of a `wal-sNNNN-*.wal` segment,
    /// 0 when there is none.
    count: usize,
    /// Whether any segment holds more than its header: a record, whole
    /// or torn.
    holds_records: bool,
}

fn shard_logs(dir: &Path) -> Result<LogLayout, DurableError> {
    let mut layout = LogLayout {
        count: 0,
        holds_records: false,
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(layout),
        Err(e) => return Err(DurableError::io("list wal dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| DurableError::io("list wal dir", e))?;
        let name = entry.file_name();
        let shard = name
            .to_str()
            .filter(|name| name.ends_with(".wal"))
            .and_then(|name| name.strip_prefix("wal-s"))
            .and_then(|rest| rest.split_once('-'))
            .and_then(|(shard, _)| shard.parse::<usize>().ok());
        if let Some(shard) = shard {
            layout.count = layout.count.max(shard + 1);
            let len = entry
                .metadata()
                .map_err(|e| DurableError::io("stat wal segment", e))?
                .len();
            layout.holds_records |= len > SEGMENT_HEADER.len() as u64;
        }
    }
    Ok(layout)
}

/// Deletes every segment of the logs `from..to`: the empty logs past
/// the shard count a fresh directory is opened with.
fn remove_logs(dir: &Path, from: usize, to: usize) -> Result<(), DurableError> {
    for shard in from..to {
        for (_, path) in Wal::segment_paths(dir, &wal_prefix(shard))? {
            std::fs::remove_file(&path).map_err(|e| DurableError::io("remove empty wal", e))?;
        }
    }
    sync_dir(dir)
}

/// Where and how a durable pool persists.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding the WAL segments and snapshots.
    pub dir: PathBuf,
    /// When the WALs fsync (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Automatic checkpoint once this many keys were logged since the
    /// last one, refused keys included: a 256-key batch counts 256,
    /// whatever the number of shard frames it takes (`None`: only
    /// explicit [`DurableSharded::snapshot`] calls).
    pub snapshot_every: Option<u64>,
    /// Crash-injection switch (drills only; defaults unarmed).
    pub kill: KillSwitch,
}

impl DurabilityOptions {
    /// Defaults: always-fsync, no automatic checkpoints.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            kill: KillSwitch::new(),
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Installs a crash-injection switch (drills only).
    pub fn kill(mut self, kill: KillSwitch) -> Self {
        self.kill = kill;
        self
    }
}

/// Bytes of the envelope header for `shards` shards: magic, shard
/// count, seqs, image length.
fn envelope_header_len(shards: usize) -> u64 {
    4 + 4 + 8 * shards as u64 + 8
}

/// Bytes of the envelope around an `image_len`-byte image for `shards`
/// shards: header, image, CRC.
fn envelope_len(shards: usize, image_len: u64) -> u64 {
    envelope_header_len(shards) + image_len + 4
}

/// Streams the snapshot envelope into `sink`: the header (magic,
/// per-shard seqs, `image_len`), the `image_len`-byte image that `image`
/// writes straight into the sink, and a CRC-32 over all of it. That CRC
/// is not computed over the image: [`crc32_combine`] derives it from the
/// header's CRC and `image_crc`, the CRC-32 of the image's bytes, so the
/// image is checksummed once (by its own writer) and not twice.
fn write_envelope<S: Sink>(
    mut sink: S,
    seqs: &[u64],
    image_len: u64,
    image_crc: u32,
    image: impl FnOnce(&mut S),
) -> S {
    let mut header = Vec::with_capacity(envelope_header_len(seqs.len()) as usize);
    header.extend_from_slice(ENVELOPE_MAGIC);
    header.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
    for &s in seqs {
        header.extend_from_slice(&s.to_le_bytes());
    }
    header.extend_from_slice(&image_len.to_le_bytes());
    sink.put(&header);
    image(&mut sink);
    let crc = crc32_combine(crc32(&header), image_crc, image_len);
    sink.put(&crc.to_le_bytes());
    sink
}

/// Builds the snapshot envelope: magic, per-shard seqs, inner image, CRC.
/// The bytes [`publish_checkpoint`] streams to disk for the same image.
pub fn encode_envelope(seqs: &[u64], image: &[u8]) -> Vec<u8> {
    let len = envelope_len(seqs.len(), image.len() as u64);
    write_envelope(
        Vec::with_capacity(len as usize),
        seqs,
        image.len() as u64,
        crc32(image),
        |out| out.extend_from_slice(image),
    )
}

/// What the front of a snapshot file holds.
enum Head {
    /// No envelope magic: perhaps a bare filter image.
    NotEnvelope,
    /// The envelope magic, then a header the file's length contradicts.
    Damaged,
    /// A header consistent with the file's length.
    Envelope(EnvelopeHeader),
}

/// An envelope header as read: the per-shard seqs, the image length,
/// and the CRC-32 of the header bytes.
struct EnvelopeHeader {
    seqs: Vec<u64>,
    image_len: u64,
    crc: u32,
}

/// Reads the header of the `len`-byte envelope at the front of `src`,
/// leaving `src` at the image. The shard count is bounded by `len`
/// before the seqs are allocated, and the image must end exactly 4
/// bytes before the file does. `Err` only on a failed read.
fn read_envelope_header(src: &mut dyn BufRead, len: u64) -> std::io::Result<Head> {
    if len < 4 {
        return Ok(Head::NotEnvelope);
    }
    let mut header = vec![0u8; 4];
    src.read_exact(&mut header)?;
    if header != ENVELOPE_MAGIC {
        return Ok(Head::NotEnvelope);
    }
    if len < envelope_len(0, 0) {
        return Ok(Head::Damaged);
    }
    let mut count = [0u8; 4];
    src.read_exact(&mut count)?;
    header.extend_from_slice(&count);
    let count = u32::from_le_bytes(count) as usize;
    // Every seq costs 8 bytes; the file bounds the plausible count.
    if count as u64 > (len - envelope_len(0, 0)) / 8 {
        return Ok(Head::Damaged);
    }
    header.resize(envelope_header_len(count) as usize, 0);
    src.read_exact(&mut header[8..])?;
    let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let seqs = (0..count).map(|i| field(8 + 8 * i)).collect();
    let image_len = field(8 + 8 * count);
    if envelope_len(count, image_len) != len {
        return Ok(Head::Damaged);
    }
    Ok(Head::Envelope(EnvelopeHeader {
        seqs,
        image_len,
        crc: crc32(&header),
    }))
}

impl EnvelopeHeader {
    /// Reads the envelope's CRC trailer after the image and checks it
    /// against the CRC derived from the header's and the image's
    /// (`image_crc`, the CRC-32 of the image's bytes).
    fn seal(&self, src: &mut dyn BufRead, image_crc: u32) -> std::io::Result<bool> {
        let mut stored = [0u8; 4];
        src.read_exact(&mut stored)?;
        Ok(u32::from_le_bytes(stored) == crc32_combine(self.crc, image_crc, self.image_len))
    }
}

/// Total parse of an in-memory envelope; `None` on any inconsistency.
/// The slice form of the streamed load: the same header and trailer
/// checks, with the image checksummed in place.
pub fn decode_envelope(buf: &[u8]) -> Option<(Vec<u64>, &[u8])> {
    let mut src = buf;
    let Ok(Head::Envelope(header)) = read_envelope_header(&mut src, buf.len() as u64) else {
        return None;
    };
    let (image, mut trailer) = src.split_at(header.image_len as usize);
    header
        .seal(&mut trailer, crc32(image))
        .ok()?
        .then_some((header.seqs, image))
}

/// The error of a streamed read as an I/O error; `None` for a failed
/// check.
fn read_error(e: &CodecError) -> Option<std::io::Error> {
    match e {
        CodecError::Io(kind) => Some((*kind).into()),
        _ => None,
    }
}

/// The mode name of a pool image's kind byte: the names `mpcbf serve`
/// reports.
fn pool_mode(kind: u8) -> Option<&'static str> {
    match kind {
        codec::KIND_SHARDED64 => Some("fixed"),
        codec::KIND_ELASTIC_SHARDED => Some("elastic"),
        _ => None,
    }
}

/// The mode that wrote the intact `len`-byte snapshot file `src`
/// (rewound first): `"fixed"` or `"elastic"` for an envelope over a
/// sharded pool image, `"single-filter"` for a bare filter image (what
/// the removed single-filter wrapper left behind). `None` when the file
/// is damaged or holds anything else; `Err` only on a failed read. Runs
/// only when a load has already refused the file, so it may read it
/// again.
pub(crate) fn stored_mode<R: BufRead + Seek>(
    src: &mut R,
    len: u64,
) -> std::io::Result<Option<&'static str>> {
    src.seek(SeekFrom::Start(0))?;
    let header = match read_envelope_header(src, len)? {
        Head::Envelope(header) => header,
        Head::Damaged => return Ok(None),
        Head::NotEnvelope => {
            src.seek(SeekFrom::Start(0))?;
            return match codec::check_framed(src, len).0 {
                Ok(_) => Ok(Some("single-filter")),
                Err(e) => read_error(&e).map_or(Ok(None), Err),
            };
        }
    };
    let (kind, image_crc) = codec::check_framed(src, header.image_len);
    let kind = match kind {
        Ok(kind) => kind,
        Err(e) => return read_error(&e).map_or(Ok(None), Err),
    };
    Ok(header
        .seal(src, image_crc)?
        .then(|| pool_mode(kind))
        .flatten())
}

/// Loads a pool from the `len`-byte envelope `src`, in one pass over its
/// bytes: the header, then `P`'s image streamed into the pool's words,
/// then the envelope trailer, checked against the CRC derived from the
/// header's and the image's. `Some(Ok)` only once both CRCs match;
/// `Some(Err(mode))` for an intact snapshot of another mode; `None` for
/// a damaged one. `Err` only on a failed read.
#[allow(clippy::type_complexity)]
fn load_pool<P: ShardPool, R: BufRead + Seek>(
    src: &mut R,
    len: u64,
) -> std::io::Result<Option<Result<(Vec<u64>, P), &'static str>>> {
    let header = match read_envelope_header(src, len)? {
        Head::Envelope(header) => header,
        Head::Damaged => return Ok(None),
        Head::NotEnvelope => return Ok(stored_mode(src, len)?.map(Err)),
    };
    let (image, image_crc) = P::read_from(src, header.image_len);
    if let Some(e) = image.as_ref().err().and_then(read_error) {
        return Err(e);
    }
    if !header.seal(src, image_crc)? {
        return Ok(None);
    }
    Ok(match image {
        Ok(pool) => (header.seqs.len() == pool.shard_count()).then_some(Ok((header.seqs, pool))),
        // Intact (its bytes carry the residue), but the other pool's kind.
        Err(CodecError::UnknownKind(kind)) if image_crc == CRC32_RESIDUE => {
            pool_mode(kind).map(Err)
        }
        Err(_) => None,
    })
}

/// A sharded pool the durability layer can log, checkpoint and recover:
/// routing, the image codec, per-key application of logged ops, and the
/// structural hooks an elastic pool needs (no-ops by default).
///
/// Every method takes `&self`: a pool synchronises inside — the fixed
/// pool with one compare-and-swap per word group and no lock, the elastic
/// pool with one lock per shard — so one writer per shard can mutate it
/// while readers query it in place.
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
    /// `sink` (a measuring sink gets its length). No shard lock is held
    /// while `sink` writes, and a shard may be read in several pieces
    /// (the fixed pool loads 64 KiB at a time, with no lock), so the
    /// image is a consistent point in time only while no writer runs:
    /// callers quiesce writers first.
    fn encode_to(&self, sink: &mut dyn Sink);
    /// Rebuilds a pool from the `len`-byte image [`ShardPool::encode_to`]
    /// wrote, streamed from `src` and validated as it goes.
    fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self>
    where
        Self: Sized;
    /// Structural self-check of one shard, run after recovery on the
    /// thread that replayed it.
    fn verify_shard(&self, shard: usize) -> Result<(), FilterError>;
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
    /// Whether `shard` is migrating (a recovered pool may be).
    fn compacting(&self, _shard: usize) -> bool {
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
    fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self> {
        ShardedMpcbf::read_from(src, len)
    }
    fn verify_shard(&self, shard: usize) -> Result<(), FilterError> {
        ShardedMpcbf::verify_shard(self, shard)
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
    fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self> {
        ElasticShardedMpcbf::read_from(src, len)
    }
    fn verify_shard(&self, shard: usize) -> Result<(), FilterError> {
        ElasticShardedMpcbf::verify_shard(self, shard)
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
    fn compacting(&self, shard: usize) -> bool {
        self.with_shard(shard, |f| f.compacting())
    }
}

/// One shard's WAL and sequence number. [`DurableSharded`] keeps each
/// behind its own lock, so a shard's log has one writer at a time.
///
/// The first failed append breaks the log for good: the frame may sit
/// whole or torn in the segment while the sequence number stayed put, so
/// a later frame would reuse its number or land behind the torn bytes,
/// and recovery would cut the log there and drop every record after it.
/// A broken log refuses every append with [`DurableError::LogBroken`]
/// until the directory is reopened.
struct ShardLog {
    shard: usize,
    wal: Wal,
    /// Last assigned sequence number.
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
            SEGMENT_BYTES,
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
    /// but unacknowledged).
    fn apply<P: ShardPool + ?Sized>(
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
    fn settle<P: ShardPool + ?Sized>(&mut self, pool: &P) -> Result<bool, DurableError> {
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

    fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()
    }

    /// Retires the records a just-published checkpoint covers: rotates
    /// to a fresh segment and purges the sealed ones.
    fn truncate(&mut self) -> Result<(), DurableError> {
        self.wal.rotate(self.seq + 1)?;
        self.wal.purge_below(self.seq + 1).map(|_| ())
    }
}

/// Publishes a whole-pool checkpoint: the envelope of `seqs` (each
/// shard's sequence number at capture time) and `pool`'s image, written
/// atomically, then every older snapshot purged. Writers must be
/// quiesced (as [`DurableSharded::snapshot`] does): the pool's image is
/// read in short pieces (64 KiB of a fixed pool's shard at a time), so a
/// writer running meanwhile could tear a shard and leave an image that
/// matches no point in `seqs`.
///
/// The envelope is streamed to disk, never held whole: a measuring pass
/// finds the image length the header carries, then the header, the
/// pool's image (a fixed pool's in 64 KiB chunks, an elastic pool's one
/// nested shard image at a time) and the CRC trailer go through the
/// snapshot file's buffer. The image is checksummed once, by its own
/// codec writer: a sealed image's CRC is [`CRC32_RESIDUE`], and the
/// envelope CRC is derived from it. The file is byte-identical to
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
        write_envelope(file, seqs, image_len, CRC32_RESIDUE, |file| {
            pool.encode_to(file)
        });
    })?;
    snapshots.purge_below(snap_seq)
}

/// Splits a batch by home shard, keeping request order within each
/// shard: per shard, its keys and each key's index in the batch.
#[allow(clippy::type_complexity)]
fn group_by_shard<P: ShardPool + ?Sized>(
    pool: &P,
    keys: Vec<Vec<u8>>,
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
/// crash recovery, shared by any number of threads: every method takes
/// `&self`.
///
/// Each shard's log sits behind its own lock. A write holds one shard's
/// lock while it logs, applies and settles; a batch takes its shards one
/// at a time, in index order. [`DurableSharded::snapshot`] takes every
/// lock in index order, so the image it publishes holds each shard
/// exactly at its logged seq; no other path holds two shard locks. An
/// automatic snapshot (see [`DurabilityOptions::snapshot_every`]) runs
/// after the write that crossed the threshold has released its lock.
///
/// The pool is the last field and may be unsized, so an
/// `Arc<DurableSharded<ShardedMpcbf>>` coerces to an
/// `Arc<DurableSharded<dyn ShardPool>>`.
pub struct DurableSharded<P: ?Sized> {
    logs: Vec<Mutex<ShardLog>>,
    /// Per shard: whether it is migrating. Written under that shard's
    /// lock; read without it (the server sheds writes to a migrating
    /// shard).
    migrating: Vec<AtomicBool>,
    /// Raised when a shard starts migrating: wakes
    /// [`DurableSharded::drain_migrations`].
    drain_signal: (Mutex<bool>, Condvar),
    snapshots: SnapshotStore,
    /// Keys logged since the last snapshot, refused keys included. Grown
    /// under a shard's lock and reset under all of them, so it is exact.
    keys_since_snapshot: AtomicU64,
    snapshot_every: Option<u64>,
    /// Snapshots published since the pool was opened.
    snapshots_published: AtomicU64,
    pool: P,
}

impl<P: ShardPool> DurableSharded<P> {
    /// Starts a fresh durable pool: initial snapshot, one WAL segment
    /// per shard.
    pub fn create(pool: P, opts: DurabilityOptions) -> Result<Self, DurableError> {
        let (logs, snapshots) = Self::initialise(&pool, &opts)?;
        Ok(Self::assemble(pool, logs, snapshots, &opts))
    }

    /// Materialises a bulk-built pool as a durable directory without
    /// logging a single per-key WAL frame: initial snapshot of `pool` as
    /// it stands, plus one empty WAL segment per shard. A subsequent
    /// [`DurableSharded::open_or_recover`] (or `mpcbf serve`) cold-starts
    /// from the snapshot with zero records replayed. Nothing may write to
    /// `pool` while this runs (see [`publish_checkpoint`]).
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

    fn assemble(
        pool: P,
        logs: Vec<ShardLog>,
        snapshots: SnapshotStore,
        opts: &DurabilityOptions,
    ) -> Self {
        DurableSharded {
            migrating: (0..logs.len())
                .map(|shard| AtomicBool::new(pool.compacting(shard)))
                .collect(),
            logs: logs.into_iter().map(Mutex::new).collect(),
            drain_signal: (Mutex::new(false), Condvar::new()),
            snapshots,
            keys_since_snapshot: AtomicU64::new(0),
            snapshot_every: opts.snapshot_every,
            snapshots_published: AtomicU64::new(0),
            pool,
        }
    }

    /// Recovers from `opts.dir`: newest valid snapshot, then every
    /// shard's WAL scanned, repaired, and replayed in parallel —
    /// structural records included, so an elastic pool comes back with
    /// the same generation stacks. `fallback` supplies the pool for a
    /// fresh (or fully corrupt) directory; its shard count defines the
    /// log layout.
    ///
    /// Fails, leaving the directory untouched, with
    /// [`DurableError::ModeMismatch`] when the snapshot holds an intact
    /// image of another mode, and with [`DurableError::ShardCountMismatch`]
    /// when there is no snapshot and the directory's logs, at least one
    /// of which holds a record, were written by a pool of another shard
    /// count: with fewer shards, recovery would never replay the extra
    /// logs; with more, keys would re-route across the larger pool while
    /// an elastic log's structural records still land on that log's shard
    /// index. A directory whose logs hold no record is fresh whatever
    /// their number (a first open that died creating them leaves fewer):
    /// it opens with the pool's shard count, the missing logs created and
    /// the extra empty ones removed.
    pub fn open_or_recover(
        opts: DurabilityOptions,
        fallback: impl FnOnce() -> P,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let snapshots = SnapshotStore::new(&opts.dir, SNAP_PREFIX, opts.kill.clone())?;
        let mut report = RecoveryReport::default();
        let started = Instant::now();
        let (base, corrupt) = snapshots.stream_latest_with(load_pool::<P, _>)?;
        report.snapshot_load = started.elapsed();
        report.snapshots_corrupt = corrupt;
        let (pool, snap_seqs) = match base {
            Some(loaded) => match loaded.value {
                Err(stored) => {
                    return Err(DurableError::ModeMismatch {
                        snapshot_seq: loaded.seq,
                        stored,
                    })
                }
                Ok((seqs, pool)) => {
                    report.snapshot_seq = Some(loaded.seq);
                    report.snapshot_bytes = loaded.bytes;
                    (pool, seqs)
                }
            },
            None => {
                let pool = fallback();
                let shards = pool.shard_count();
                let logs = shard_logs(&opts.dir)?;
                if logs.count > 0 && logs.count != shards {
                    if logs.holds_records {
                        return Err(DurableError::ShardCountMismatch {
                            logs: logs.count,
                            shards,
                        });
                    }
                    // Nothing was ever logged: the directory is fresh
                    // (its first open may have died creating the logs).
                    // The missing logs are created below.
                    remove_logs(&opts.dir, shards, logs.count)?;
                }
                (pool, vec![0; shards])
            }
        };

        // Scan + repair + replay + verify each shard on its own thread.
        let shard_reports: Vec<Result<RecoveryReport, DurableError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = snap_seqs
                    .iter()
                    .enumerate()
                    .map(|(shard, &base_seq)| {
                        let (dir, pool) = (&opts.dir, &pool);
                        scope.spawn(move || recover_shard(dir, shard, base_seq, pool))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard recovery panicked"))
                    .collect()
            });
        report.scrub_clean = true;
        let mut seqs = Vec::with_capacity(shard_reports.len());
        for shard_report in shard_reports {
            let shard_report = shard_report?;
            report.absorb_shard(&shard_report);
            seqs.push(shard_report.last_seq);
        }

        let logs = seqs
            .iter()
            .enumerate()
            .map(|(shard, &seq)| ShardLog::open(&opts, shard, seq))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((Self::assemble(pool, logs, snapshots, &opts), report))
    }
}

impl<P: ShardPool + ?Sized> DurableSharded<P> {
    /// The wrapped pool (reads only; mutate through the logged entry
    /// points).
    pub fn inner(&self) -> &P {
        &self.pool
    }

    /// Per-shard last-assigned sequence numbers.
    pub fn shard_seqs(&self) -> Vec<u64> {
        (0..self.logs.len()).map(|s| self.lock(s).seq).collect()
    }

    /// Snapshots published since the pool was opened, automatic ones
    /// included.
    pub fn snapshots_published(&self) -> u64 {
        self.snapshots_published.load(Ordering::Relaxed)
    }

    /// Whether `shard` is migrating: from the write that logged its
    /// scale-up until its sealed generations are drained.
    pub fn is_migrating(&self, shard: usize) -> bool {
        self.migrating[shard].load(Ordering::Relaxed)
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, ShardLog> {
        self.logs[shard].lock().expect("shard log poisoned")
    }

    fn set_migrating(&self, shard: usize, migrating: bool) {
        // Stored only on a change: neighbouring shards' flags share a
        // cache line.
        if self.migrating[shard].load(Ordering::Relaxed) == migrating {
            return;
        }
        self.migrating[shard].store(migrating, Ordering::Relaxed);
        if migrating {
            let (woken, wake) = &self.drain_signal;
            *woken.lock().expect("drain signal poisoned") = true;
            wake.notify_one();
        }
    }

    /// The write step, under `shard`'s lock: log `op`, apply it, settle.
    /// A failed scale-up append fails the op that triggered it.
    fn write(&self, shard: usize, op: WalOp) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let mut log = self.lock(shard);
        let keys = op.op_count();
        let results = log.apply(&self.pool, op)?;
        self.keys_since_snapshot.fetch_add(keys, Ordering::Relaxed);
        let migrating = log.settle(&self.pool)?;
        self.set_migrating(shard, migrating);
        Ok(results)
    }

    fn maybe_snapshot(&self) -> Result<(), DurableError> {
        let Some(every) = self.snapshot_every else {
            return Ok(());
        };
        if self.keys_since_snapshot.load(Ordering::Relaxed) < every {
            return Ok(());
        }
        let mut logs = self.lock_all();
        // Another writer's snapshot may have run while this one waited.
        if self.keys_since_snapshot.load(Ordering::Relaxed) < every {
            return Ok(());
        }
        self.snapshot_locked(&mut logs)
    }

    fn mutate(&self, key: &[u8], op: WalOp) -> Result<(), DurableError> {
        let result = self
            .write(self.pool.home_shard(key), op)?
            .pop()
            .expect("a key op has one result");
        self.maybe_snapshot()?;
        result.map_err(DurableError::Filter)
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn insert_bytes(&self, key: &[u8]) -> Result<(), DurableError> {
        self.mutate(key, WalOp::Insert(key.to_vec()))
    }

    /// Logs to the key's home-shard WAL, then applies.
    pub fn remove_bytes(&self, key: &[u8]) -> Result<(), DurableError> {
        self.mutate(key, WalOp::Remove(key.to_vec()))
    }

    /// Logs the batch as one frame **per touched shard** and applies each
    /// frame as it lands (a shard's sub-batch replays all-or-nothing into
    /// that shard, preserving in-shard batch order). Per-key results in
    /// input order. On an `Err` the shards before the failing one have
    /// applied their frames, and no key may be acknowledged.
    ///
    /// Takes the keys by value: each moves into its shard's frame
    /// uncopied (the server hands over the keys it decoded).
    pub fn insert_batch_bytes(
        &self,
        keys: Vec<Vec<u8>>,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.mutate_batch(keys, WalOp::InsertBatch)
    }

    /// Batch remove twin of [`DurableSharded::insert_batch_bytes`].
    pub fn remove_batch_bytes(
        &self,
        keys: Vec<Vec<u8>>,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        self.mutate_batch(keys, WalOp::RemoveBatch)
    }

    fn mutate_batch(
        &self,
        keys: Vec<Vec<u8>>,
        frame: fn(Vec<Vec<u8>>) -> WalOp,
    ) -> Result<Vec<Result<(), FilterError>>, DurableError> {
        let mut results = vec![Ok(()); keys.len()];
        let (groups, origin) = group_by_shard(&self.pool, keys);
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            for (result, &i) in self
                .write(shard, frame(group))?
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

    /// Forces every shard's WAL to disk, one shard lock at a time.
    pub fn sync(&self) -> Result<(), DurableError> {
        (0..self.logs.len()).try_for_each(|s| self.lock(s).sync())
    }

    fn lock_all(&self) -> Vec<MutexGuard<'_, ShardLog>> {
        (0..self.logs.len()).map(|s| self.lock(s)).collect()
    }

    /// Whole-pool snapshot: locks every shard in index order, syncs every
    /// WAL, publishes the checkpoint, then rotates and purges every
    /// shard's log. Writers wait for it; readers do not.
    pub fn snapshot(&self) -> Result<(), DurableError> {
        let mut logs = self.lock_all();
        self.snapshot_locked(&mut logs)
    }

    fn snapshot_locked(&self, logs: &mut [MutexGuard<'_, ShardLog>]) -> Result<(), DurableError> {
        logs.iter_mut().try_for_each(|log| log.sync())?;
        let seqs: Vec<u64> = logs.iter().map(|log| log.seq).collect();
        publish_checkpoint(&self.snapshots, &seqs, &self.pool)?;
        logs.iter_mut().try_for_each(|log| log.truncate())?;
        self.keys_since_snapshot.store(0, Ordering::Relaxed);
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drains migrations until `stop()` holds: moves one batch of each
    /// migrating shard at a time, under that shard's lock, and sleeps
    /// while no shard migrates, until a write starts a migration or
    /// `poll` passes (`stop` is checked between). Run it on one thread
    /// beside the writers (`mpcbf serve --elastic` does). Without it a
    /// shard's migration moves one batch per write to that shard.
    pub fn drain_migrations(&self, poll: Duration, stop: impl Fn() -> bool) {
        let (woken, wake) = &self.drain_signal;
        while !stop() {
            let mut migrating = false;
            for shard in 0..self.logs.len() {
                if self.is_migrating(shard) {
                    let _log = self.lock(shard);
                    let still = self.pool.step_compaction(shard);
                    self.set_migrating(shard, still);
                    migrating |= still;
                }
            }
            if !migrating {
                let mut raised = woken.lock().expect("drain signal poisoned");
                if !*raised {
                    raised = wake
                        .wait_timeout(raised, poll)
                        .expect("drain signal poisoned")
                        .0;
                }
                *raised = false;
            }
        }
    }
}

/// Recovers one shard: [`replay_shard`], then the shard's structural
/// check, each timed. The snapshot already passed the envelope CRC, the
/// codec CRC and the decode checks; the check adds one of what replay
/// changed. A seal taken now and scrubbed at once would add nothing: its
/// CRC half compares the words with themselves and its invariant half
/// is this same check.
fn recover_shard<P: ShardPool>(
    dir: &Path,
    shard: usize,
    base_seq: u64,
    pool: &P,
) -> Result<RecoveryReport, DurableError> {
    let started = Instant::now();
    let mut report = replay_shard(dir, shard, base_seq, pool)?;
    report.replay = started.elapsed();
    // The check covers what replay changed. A shard that replayed no
    // record holds exactly the words the snapshot decoder (or the fresh
    // pool) gave it, and the decoder checks every word as it lands.
    report.scrub_clean = true;
    if report.records_replayed > 0 {
        let started = Instant::now();
        report.scrub_clean = pool.verify_shard(shard).is_ok();
        report.verify = started.elapsed();
    }
    Ok(report)
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

    fn mode_of(bytes: &[u8]) -> Option<&'static str> {
        stored_mode(&mut std::io::Cursor::new(bytes), bytes.len() as u64).unwrap()
    }

    #[test]
    fn stored_mode_names_every_intact_image_and_nothing_else() {
        let fixed = encode_envelope(&[0; 8], &filter().encode());
        let elastic = encode_envelope(&[0; 2], &fresh_pool(1).encode());
        assert_eq!(mode_of(&fixed), Some("fixed"));
        assert_eq!(mode_of(&elastic), Some("elastic"));
        assert_eq!(mode_of(&filter().encode()), Some("single-filter"));
        assert_eq!(mode_of(&encode_envelope(&[0], &[7; 40])), None);
        let mut damaged = fixed.clone();
        damaged[fixed.len() / 2] ^= 1;
        assert_eq!(mode_of(&damaged), None);
    }

    #[test]
    fn a_sealed_image_carries_the_residue_the_checkpoint_derives_from() {
        // publish_checkpoint derives the envelope CRC from CRC32_RESIDUE
        // instead of checksumming the image: that only holds if every
        // pool image's CRC, trailer included, is the residue.
        for image in [filter().encode(), fresh_pool(3).encode()] {
            assert_eq!(crc32(&image), CRC32_RESIDUE);
            let seqs = [4, 0, 9];
            let envelope = encode_envelope(&seqs, &image);
            let derived = write_envelope(
                Vec::new(),
                &seqs,
                image.len() as u64,
                CRC32_RESIDUE,
                |out| out.extend_from_slice(&image),
            );
            assert_eq!(derived, envelope);
            let body = &envelope[..envelope.len() - 4];
            assert_eq!(envelope[body.len()..], crc32(body).to_le_bytes());
        }
    }

    /// Re-seals a pool image edited at byte `at`: every framed image
    /// spanning `at` (the whole image, and each nested one: the codec
    /// magic, preceded by its length) gets its CRC trailer recomputed,
    /// innermost first, as each outer CRC covers the inner trailers.
    fn reseal(image: &mut [u8], at: usize) {
        let mut spans: Vec<(usize, usize)> = (8..image.len() - 4)
            .filter(|&p| &image[p..p + 4] == b"MPCB")
            .filter_map(|p| {
                let len = u64::from_le_bytes(image[p - 8..p].try_into().unwrap()) as usize;
                let end = p.checked_add(len)?;
                (p <= at && at < end && end <= image.len()).then_some((p, len))
            })
            .collect();
        spans.push((0, image.len()));
        spans.sort_by_key(|&(_, len)| len);
        for (p, len) in spans {
            let body = p + len - 4;
            let crc = crc32(&image[p..body]);
            image[body..p + len].copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// Recovers from a snapshot of `pool` forged to hold one all-ones
    /// word, its image and envelope CRCs recomputed so only the word
    /// check can tell. The decoder refuses the snapshot as it loads it,
    /// so recovery counts it corrupt and starts from `fresh`, although no
    /// shard replays a record and so none is verified again.
    fn forged_word_is_refused<P: ShardPool>(tag: &str, pool: P, b1: u32, fresh: impl Fn() -> P) {
        assert!(mpcbf_core::HcbfWord::<u64>::from_raw(u64::MAX)
            .check_invariants(b1)
            .is_err());
        let dir = scratch_dir(tag);
        let opts = DurabilityOptions::new(&dir);
        DurableSharded::bootstrap(&pool, opts.clone()).unwrap();
        let snap = dir.join(format!("{SNAP_PREFIX}-{:020}.snap", 0));
        let file = std::fs::read(&snap).unwrap();
        let (seqs, image) = decode_envelope(&file).unwrap();
        let mut image = image.to_vec();
        // Sixteen bytes of ones a quarter in hold one whole all-ones word:
        // the words are the bulk of the image (of its first shard's, for
        // a pool of two).
        let at = image.len() / 4;
        image[at..at + 16].fill(0xff);
        reseal(&mut image, at);
        assert_eq!(crc32(&image), CRC32_RESIDUE, "the forged image is sealed");
        let (decoded, _) = P::read_from(&mut &image[..], image.len() as u64);
        assert_eq!(
            decoded.err(),
            Some(CodecError::BadHeader("word invariant")),
            "only the word check refuses the forged image"
        );
        let forged = encode_envelope(&seqs, &image);
        assert!(decode_envelope(&forged).is_some(), "the envelope is sealed");
        std::fs::write(&snap, forged).unwrap();

        let (recovered, report) = DurableSharded::open_or_recover(opts, &fresh).unwrap();
        assert_eq!(report.snapshots_corrupt, 1, "{report}");
        assert_eq!(report.snapshot_seq, None, "{report}");
        assert_eq!(report.records_replayed, 0, "{report}");
        let mut image = Vec::new();
        recovered.inner().encode_to(&mut image);
        let mut expected = Vec::new();
        fresh().encode_to(&mut expected);
        assert!(image == expected, "recovery must start from the fresh pool");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sealed_snapshot_with_a_broken_word_is_refused() {
        let b1 = filter().shape().b1;
        forged_word_is_refused("forged-fixed", filter(), b1, filter);
        let pool = fresh_pool(5);
        for i in 0..500u64 {
            pool.insert_bytes(&i.to_le_bytes()).unwrap();
        }
        let b1 = pool_config(5).shape().b1;
        forged_word_is_refused("forged-elastic", pool, b1, || fresh_pool(5));
    }

    #[test]
    fn clean_restart_recovers_bit_exact_in_parallel() {
        let dir = scratch_dir("clean");
        let opts = DurabilityOptions::new(&dir);
        let durable = DurableSharded::create(filter(), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..2_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for (i, key) in keys.iter().enumerate() {
            if i % 3 == 0 {
                durable.insert_bytes(key).unwrap();
            }
        }
        durable.insert_batch_bytes(keys[..500].to_vec()).unwrap();
        durable.remove_batch_bytes(keys[..100].to_vec()).unwrap();
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

    /// Under the relaxed fsync policies a graceful stop must lose nothing
    /// that was acknowledged: `sync()` (and the WAL's `Drop` sync behind
    /// it) closes the gap between "acked" and "on disk" before the
    /// process exits.
    #[test]
    fn graceful_stop_under_relaxed_fsync_loses_nothing() {
        for (tag, policy) in [
            ("everyn", FsyncPolicy::EveryN(10_000)),
            (
                "interval",
                FsyncPolicy::Interval(std::time::Duration::from_secs(3600)),
            ),
        ] {
            let dir = scratch_dir(tag);
            let opts = DurabilityOptions::new(&dir).fsync(policy);
            let durable = DurableSharded::create(filter(), opts.clone()).unwrap();
            // 123 is deliberately not a multiple of any sync cadence.
            for i in 0..123u64 {
                durable.insert_bytes(&i.to_le_bytes()).unwrap();
            }
            durable.sync().expect("shutdown sync");
            drop(durable); // clean stop

            let (recovered, report) = DurableSharded::open_or_recover(opts, filter).unwrap();
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

    #[test]
    fn batch_results_come_back_in_input_order() {
        let dir = scratch_dir("order");
        let durable = DurableSharded::create(filter(), DurabilityOptions::new(&dir)).unwrap();
        let keys: Vec<Vec<u8>> = (0..64u64).map(|i| i.to_le_bytes().to_vec()).collect();
        durable.insert_batch_bytes(keys[..32].to_vec()).unwrap();
        // The first half is present, the second half is refused as
        // absent: each verdict must land on its own key's slot.
        let results = durable.remove_batch_bytes(keys).unwrap();
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.is_ok(), i < 32, "key {i}: {result:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_all_shard_logs() {
        let dir = scratch_dir("snap");
        let opts = DurabilityOptions::new(&dir);
        let durable = DurableSharded::create(filter(), opts.clone()).unwrap();
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
        let durable = DurableSharded::create(fresh_pool(11), opts.clone()).unwrap();
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
        let durable = DurableSharded::create(fresh_pool(12), opts.clone()).unwrap();
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
        let durable = DurableSharded::create(fresh_pool(14), opts.clone()).unwrap();
        let pool = durable.inner();
        let (mut acked, mut refused, mut broken_shard) = (Vec::new(), 0, None);
        for i in 0..20_000u64 {
            let key = i.to_le_bytes().to_vec();
            let shard = pool.home_shard(&key);
            // The write step, split at the settle so the scale-up's
            // append can be made to fail.
            let mut log = durable.lock(shard);
            let applied = match log.apply(pool, WalOp::Insert(key.clone())) {
                Ok(results) => {
                    assert_eq!(results[0], Ok(()));
                    true
                }
                Err(e) => {
                    assert_eq!(Some(shard), broken_shard, "{e}");
                    refused += 1;
                    false
                }
            };
            if broken_shard.is_none() && pool.scale_plan(shard).is_some() {
                // The ScaleUp frame is written whole; its fsync fails,
                // and so does the write that parked the plan.
                kill.arm(crate::KillSite::WalFsync, 0);
                assert!(log.settle(pool).unwrap_err().is_kill());
                broken_shard = Some(shard);
            } else if applied && log.settle(pool).is_ok() {
                acked.push(key);
            }
        }
        assert!(broken_shard.is_some(), "overload must park a scale-up");
        assert!(refused > 0, "the broken log must refuse later appends");
        drop(durable);

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
    fn snapshot_every_counts_logged_keys_not_frames() {
        let dir = scratch_dir("every");
        let mut opts = DurabilityOptions::new(&dir);
        opts.snapshot_every = Some(512);
        let durable = DurableSharded::create(filter(), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..512u64).map(|i| i.to_le_bytes().to_vec()).collect();
        durable.insert_batch_bytes(keys[..256].to_vec()).unwrap();
        assert_eq!(durable.snapshots_published(), 0, "256 keys are below 512");
        durable.insert_batch_bytes(keys[256..].to_vec()).unwrap();
        // Two batches over 8 shards: 16 frames, 512 keys.
        assert_eq!(durable.shard_seqs().iter().sum::<u64>(), 16);
        assert_eq!(durable.snapshots_published(), 1, "512 keys reach 512");
        drop(durable);

        let (recovered, report) = DurableSharded::open_or_recover(opts, filter).unwrap();
        assert!(report.snapshot_seq.is_some_and(|seq| seq > 0), "{report}");
        assert_eq!(report.records_replayed, 0, "the snapshot covers both");
        assert!(keys.iter().all(|k| recovered.contains_bytes(k)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batches_and_removals_replay_into_the_elastic_pool() {
        let dir = scratch_dir("batch");
        let opts = DurabilityOptions::new(&dir);
        let durable = DurableSharded::create(fresh_pool(13), opts.clone()).unwrap();
        let keys: Vec<Vec<u8>> = (0..4_000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        durable.insert_batch_bytes(keys.clone()).unwrap();
        durable.remove_batch_bytes(keys[..1_000].to_vec()).unwrap();
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
