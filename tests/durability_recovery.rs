//! Crash-recovery property test: for a random operation stream crashed
//! at a random kill point, the recovered one-shard pool must be
//! bit-identical to a reference pool that applied exactly the durable
//! prefix (with one shard, a batch is one frame), with
//! zero false negatives on acknowledged keys — and recovery itself must
//! never panic or report a dirty scrub.
//!
//! Under `FsyncPolicy::Always` (the default) the durable prefix is
//! precisely determined by the kill site:
//!
//! * `WalAppend` (torn mid-frame) — the in-flight op never became
//!   durable; the prefix is every acknowledged op.
//! * `WalFsync` — the frame was written whole before the sync failed:
//!   the op is durable but unacknowledged, and replay must include it
//!   (its keys are in limbo for the client, so the zero-false-negative
//!   check exempts them).
//! * the snapshot/truncate sites — housekeeping crashed with no op in
//!   flight; the prefix is every acknowledged op.

use mpcbf::concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf::core::{CapacityPolicy, Filter, Mpcbf, MpcbfConfig};
use mpcbf::durability::{
    encode_envelope, encode_frame, DurabilityOptions, DurableError, DurableSharded, FsyncPolicy,
    KillSite, KillSwitch, ShardPool, SnapshotStore, Wal, WalOp, WalRecord,
};
use mpcbf::hash::Murmur3;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    Remove(u8),
    InsertBatch(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's prop_oneof is unweighted; repeating the insert arm
    // biases the stream toward growth so removes find live keys.
    prop_oneof![
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::Remove),
        prop::collection::vec(any::<u8>(), 1..6).prop_map(Op::InsertBatch),
    ]
}

fn scratch_dir() -> PathBuf {
    static DIR_ID: AtomicU64 = AtomicU64::new(0);
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpcbf-recovery-prop-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(50_000)
        .expected_items(500)
        .hashes(3)
        .seed(0xFA11)
        .build()
        .unwrap()
}

/// The one-shard pool the crash-point property runs on.
fn one_shard() -> ShardedMpcbf<u64, Murmur3> {
    ShardedMpcbf::new(config(), 1)
}

/// Applies one op to the reference pool (refusals discarded, exactly
/// as WAL replay does).
fn apply_ref(reference: &ShardedMpcbf<u64, Murmur3>, op: &Op) {
    match op {
        Op::Insert(k) => {
            let _ = reference.insert_bytes(&[*k]);
        }
        Op::Remove(k) => {
            let _ = reference.remove_bytes(&[*k]);
        }
        Op::InsertBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(std::slice::from_ref).collect();
            let _ = reference.insert_batch_bytes(&views);
        }
    }
}

/// Applies one op through the durable wrapper, recording acknowledged
/// key-count deltas into the oracle. Returns `Err` only on a kill.
fn apply_durable(
    durable: &DurableSharded<ShardedMpcbf<u64, Murmur3>>,
    op: &Op,
    oracle: &mut HashMap<u8, i64>,
) -> Result<(), ()> {
    match op {
        Op::Insert(k) => match durable.insert_bytes(&[*k]) {
            Ok(()) => {
                *oracle.entry(*k).or_insert(0) += 1;
                Ok(())
            }
            Err(e) if e.is_kill() => Err(()),
            Err(_) => Ok(()), // deterministic filter refusal: still acked
        },
        Op::Remove(k) => match durable.remove_bytes(&[*k]) {
            Ok(()) => {
                *oracle.entry(*k).or_insert(0) -= 1;
                Ok(())
            }
            Err(e) if e.is_kill() => Err(()),
            Err(_) => Ok(()),
        },
        Op::InsertBatch(keys) => {
            match durable.insert_batch_bytes(keys.iter().map(|k| vec![*k]).collect()) {
                Ok(results) => {
                    for (k, r) in keys.iter().zip(&results) {
                        if r.is_ok() {
                            *oracle.entry(*k).or_insert(0) += 1;
                        }
                    }
                    Ok(())
                }
                Err(e) if e.is_kill() => Err(()),
                Err(_) => Ok(()),
            }
        }
    }
}

proptest! {
    // Every case fsyncs a real directory; keep the count I/O-friendly.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_crash_point_recovers_the_exact_durable_prefix(
        ops in prop::collection::vec(op_strategy(), 1..50),
        kill_at_hint in any::<u64>(),
        site_idx in 0usize..KillSite::ALL.len(),
        byte_hint in any::<u64>(),
        snapshot_midway in any::<bool>(),
    ) {
        let site = KillSite::ALL[site_idx];
        let kill_at = (kill_at_hint % ops.len() as u64) as usize;
        let dir = scratch_dir();
        let kill = KillSwitch::new();
        let durable = DurableSharded::create(
            one_shard(),
            DurabilityOptions::new(&dir).kill(kill.clone()),
        )
        .unwrap();
        let reference = one_shard();
        let mut oracle: HashMap<u8, i64> = HashMap::new();

        for (i, op) in ops[..kill_at].iter().enumerate() {
            if snapshot_midway && i == kill_at / 2 {
                durable.snapshot().unwrap();
            }
            prop_assert!(
                apply_durable(&durable, op, &mut oracle).is_ok(),
                "unarmed op must not crash"
            );
            apply_ref(&reference, op);
        }

        // A budget below the frame size guarantees the armed append tears.
        let frame_len = encode_frame(&WalRecord {
            seq: 1,
            op: WalOp::Insert(vec![0]),
        })
        .len() as u64;
        kill.arm(site, 1 + byte_hint % (frame_len - 1));
        match site {
            KillSite::WalAppend | KillSite::WalFsync => {
                let op = &ops[kill_at];
                let before = oracle.clone();
                prop_assert!(
                    apply_durable(&durable, op, &mut oracle).is_err(),
                    "armed op must crash"
                );
                oracle = before; // a killed op is never acknowledged
                prop_assert_eq!(kill.fired(), Some(site));
                if site == KillSite::WalFsync {
                    // The frame hit the disk whole: durable, unacked.
                    // Its keys are in limbo — the client may not assume
                    // either outcome — so exempt them from the
                    // acked-presence check.
                    apply_ref(&reference, op);
                    match op {
                        Op::Insert(k) | Op::Remove(k) => {
                            oracle.remove(k);
                        }
                        Op::InsertBatch(keys) => {
                            for k in keys {
                                oracle.remove(k);
                            }
                        }
                    }
                }
            }
            _ => {
                let result = durable.snapshot();
                if site == KillSite::WalTruncate && result.is_ok() {
                    // With no op logged yet there is no sealed segment to
                    // purge, so the truncate site never executes. The
                    // scenario degrades to a crash right after a clean
                    // snapshot, which recovery must still handle.
                    kill.disarm();
                } else {
                    prop_assert!(result.is_err(), "armed snapshot must crash");
                    prop_assert_eq!(kill.fired(), Some(site));
                }
            }
        }
        drop(durable); // the crash

        let (recovered, report) =
            DurableSharded::open_or_recover(DurabilityOptions::new(&dir), one_shard).unwrap();
        prop_assert_eq!(
            recovered.inner().shard_raw_words(0),
            reference.shard_raw_words(0),
            "recovered image must equal the durable prefix ({})", site
        );
        for (&key, &net) in &oracle {
            if net > 0 {
                prop_assert!(
                    recovered.contains_bytes(&[key]),
                    "false negative for acknowledged key {} ({})", key, site
                );
            }
        }
        prop_assert!(report.scrub_clean, "recovered pool must verify clean");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Records each shard's log already held when the raw directory's
/// snapshot was taken; the snapshot covers them.
const COVERED: u64 = 3;
const RAW_SHARDS: usize = 2;

fn raw_config() -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(131_072)
        .expected_items(2_000)
        .hashes(3)
        .seed(0x1A70)
        .build()
        .unwrap()
}

fn raw_key(tag: &str, i: usize) -> Vec<u8> {
    format!("{tag}-{i}").into_bytes()
}

/// Each shard's WAL tail past the snapshot: scalar and batch inserts, a
/// logged scale-up and its compaction marker, a removal, then more
/// inserts into the new generation. Keys go to their home shard's log.
fn raw_tails(home: impl Fn(&[u8]) -> usize) -> Vec<Vec<WalOp>> {
    let of_shard = |range: std::ops::Range<usize>, shard: usize| -> Vec<Vec<u8>> {
        range
            .map(|i| raw_key("tail", i))
            .filter(|k| home(k) == shard)
            .collect()
    };
    (0..RAW_SHARDS)
        .map(|shard| {
            let scalar = of_shard(0..40, shard);
            let mut ops: Vec<WalOp> = scalar.iter().cloned().map(WalOp::Insert).collect();
            ops.push(WalOp::InsertBatch(of_shard(40..80, shard)));
            ops.push(WalOp::ScaleUp {
                memory_bits: 131_072,
                expected_items: 2_000,
            });
            ops.push(WalOp::Compact);
            ops.push(WalOp::Remove(scalar[0].clone()));
            ops.push(WalOp::InsertBatch(of_shard(80..120, shard)));
            ops
        })
        .collect()
}

/// Writes a durable sharded directory with the raw public primitives
/// only — `Wal` under `wal-s{NNNN}`, `SnapshotStore` under `snap`, and
/// `encode_envelope` — so the layout is pinned independently of the
/// wrapper that normally writes it. Each log holds `COVERED` records the
/// snapshot already includes (keys recovery must skip), then `tails`.
fn write_raw_dir(dir: &std::path::Path, image: &[u8], tails: &[Vec<WalOp>]) {
    let seqs = vec![COVERED; tails.len()];
    let store = SnapshotStore::new(dir, "snap", KillSwitch::new()).unwrap();
    store
        .write(COVERED, &encode_envelope(&seqs, image))
        .unwrap();
    for (shard, tail) in tails.iter().enumerate() {
        let prefix = format!("wal-s{shard:04}");
        let mut wal = Wal::new(
            dir,
            &prefix,
            FsyncPolicy::Always,
            1 << 20,
            KillSwitch::new(),
        )
        .unwrap();
        wal.rotate(1).unwrap();
        let covered = (0..COVERED as usize).map(|i| WalOp::Insert(raw_key("covered", i)));
        for (i, op) in covered.chain(tail.iter().cloned()).enumerate() {
            wal.append(&WalRecord {
                seq: i as u64 + 1,
                op,
            })
            .unwrap();
        }
        wal.sync().unwrap();
    }
}

/// Old directories must keep opening: one written by the raw primitives
/// recovers through `DurableSharded` in both modes. The fixed pool lands
/// bit-identical to a reference that applied the same key ops (structural
/// records are no-ops for it); the elastic pool replays the logged
/// scale-up and compaction with zero false negatives.
#[test]
fn a_directory_written_with_the_raw_primitives_recovers_through_the_wrapper() {
    let base_keys: Vec<Vec<u8>> = (0..200).map(|i| raw_key("base", i)).collect();

    // Fixed pool.
    let dir = scratch_dir();
    let base: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(raw_config(), RAW_SHARDS);
    for key in &base_keys {
        base.insert_bytes(key).unwrap();
    }
    let tails = raw_tails(|k| base.home_shard(k));
    write_raw_dir(&dir, &base.encode(), &tails);
    let reference = base;
    for op in tails.iter().flatten() {
        match op {
            WalOp::Insert(key) => {
                let _ = reference.insert_bytes(key);
            }
            WalOp::Remove(key) => {
                let _ = reference.remove_bytes(key);
            }
            WalOp::InsertBatch(keys) => {
                let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let _ = reference.insert_batch_bytes(&views);
            }
            _ => {}
        }
    }
    let (recovered, report) = DurableSharded::<ShardedMpcbf<u64, Murmur3>>::open_or_recover(
        DurabilityOptions::new(&dir),
        || unreachable!("the raw snapshot must decode"),
    )
    .unwrap();
    let records: u64 = tails.iter().map(|t| t.len() as u64).sum();
    assert_eq!(report.snapshot_seq, Some(COVERED));
    assert_eq!(report.snapshots_corrupt, 0);
    assert_eq!(
        report.records_replayed, records,
        "covered records must be skipped"
    );
    assert!(report.scrub_clean);
    for shard in 0..RAW_SHARDS {
        assert_eq!(
            recovered.inner().shard_raw_words(shard),
            reference.shard_raw_words(shard),
            "fixed shard {shard} must recover bit-identical"
        );
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();

    // Elastic pool.
    let dir = scratch_dir();
    let base: ElasticShardedMpcbf<Murmur3> =
        ElasticShardedMpcbf::manual(raw_config(), RAW_SHARDS, CapacityPolicy::default()).unwrap();
    for key in &base_keys {
        base.insert_bytes(key).unwrap();
    }
    let tails = raw_tails(|k| base.home_shard(k));
    write_raw_dir(&dir, &base.encode(), &tails);
    let (recovered, report) = DurableSharded::<ElasticShardedMpcbf<Murmur3>>::open_or_recover(
        DurabilityOptions::new(&dir),
        || unreachable!("the raw snapshot must decode"),
    )
    .unwrap();
    assert_eq!(report.snapshot_seq, Some(COVERED));
    assert_eq!(report.records_replayed, records);
    assert!(report.scrub_clean);
    let stats = recovered.inner().stats();
    assert_eq!(
        stats.scale_events, RAW_SHARDS as u64,
        "one logged scale-up per shard"
    );
    assert_eq!(
        stats.compactions, RAW_SHARDS as u64,
        "each Compact drains its shard"
    );
    let mut live: Vec<Vec<u8>> = base_keys.clone();
    for op in tails.iter().flatten() {
        match op {
            WalOp::Insert(key) => live.push(key.clone()),
            WalOp::InsertBatch(keys) => live.extend(keys.iter().cloned()),
            WalOp::Remove(key) => live.retain(|k| k != key),
            _ => {}
        }
    }
    assert_eq!(stats.items, live.len() as u64);
    for key in &live {
        assert!(
            recovered.contains_bytes(key),
            "false negative for {}",
            String::from_utf8_lossy(key)
        );
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The newest published snapshot file in `dir`.
fn snapshot_file(dir: &std::path::Path) -> Vec<u8> {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    std::fs::read(snaps.last().expect("a published snapshot")).unwrap()
}

fn streamed_keys(tag: &str, n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| raw_key(tag, i)).collect()
}

/// A checkpoint streams its envelope to disk shard by shard; the file
/// must still be byte-for-byte the in-memory envelope of the pool's
/// image, for both pools.
#[test]
fn streamed_checkpoints_equal_the_in_memory_envelope() {
    let keys = streamed_keys("stream", 3_000);

    let dir = scratch_dir();
    let pool: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(raw_config(), 4);
    let durable = DurableSharded::create(pool, DurabilityOptions::new(&dir)).unwrap();
    durable.insert_batch_bytes(keys.clone()).unwrap();
    durable.snapshot().unwrap();
    let expected = encode_envelope(&durable.shard_seqs(), &durable.inner().encode());
    assert_eq!(snapshot_file(&dir), expected, "fixed pool");
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = scratch_dir();
    let pool: ElasticShardedMpcbf<Murmur3> =
        ElasticShardedMpcbf::manual(raw_config(), 4, CapacityPolicy::default()).unwrap();
    let durable = DurableSharded::create(pool, DurabilityOptions::new(&dir)).unwrap();
    durable.insert_batch_bytes(keys.clone()).unwrap();
    durable.snapshot().unwrap();
    let expected = encode_envelope(&durable.shard_seqs(), &durable.inner().encode());
    assert_eq!(snapshot_file(&dir), expected, "elastic pool");
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash while the envelope streams to disk cuts the temp file at the
/// exact byte budget — in the envelope header, inside shard 0's words,
/// exactly on the boundary between two shards, and inside the CRC
/// trailer — and recovery always lands on the previous snapshot plus
/// the WAL, bit-identical to the pool at the crash.
#[test]
fn a_torn_streamed_checkpoint_recovers_the_previous_snapshot() {
    const SHARDS: usize = 4;
    let probe: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(raw_config(), SHARDS);
    let envelope_header = 4 + 4 + 8 * SHARDS as u64 + 8;
    let image_header = 6 + 8 + 4 + 4 + 4 + 8 + 4 + 8 + 8;
    let shard_bytes = probe.words_per_shard() * 8;
    let shard0 = envelope_header + image_header;
    let total = envelope_header + probe.encode().len() as u64 + 4;
    let budgets = [
        ("envelope header", 10),
        ("inside shard 0", shard0 + shard_bytes / 2),
        ("shard boundary", shard0 + shard_bytes),
        ("CRC trailer", total - 2),
    ];
    let first = streamed_keys("first", 1_000);
    let second = streamed_keys("second", 500);
    for (site, budget) in budgets {
        let dir = scratch_dir();
        let kill = KillSwitch::new();
        let opts = DurabilityOptions::new(&dir).kill(kill.clone());
        let pool: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(raw_config(), SHARDS);
        let durable = DurableSharded::create(pool, opts.clone()).unwrap();
        for key in &first {
            durable.insert_bytes(key).unwrap();
        }
        durable.snapshot().unwrap();
        let previous = durable.shard_seqs().into_iter().max();
        for key in &second {
            durable.insert_bytes(key).unwrap();
        }
        kill.arm(KillSite::SnapshotWrite, budget);
        assert!(durable.snapshot().unwrap_err().is_kill(), "{site}");
        let torn: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(".snap.tmp"))
            .collect();
        assert_eq!(torn.len(), 1, "{site}: one torn temp file");
        assert_eq!(
            std::fs::metadata(&torn[0]).unwrap().len(),
            budget,
            "{site}: the file must be cut at the exact byte"
        );
        let reference: Vec<Vec<u64>> = (0..SHARDS)
            .map(|s| durable.inner().shard_raw_words(s))
            .collect();
        drop(durable);

        let (recovered, report) =
            DurableSharded::<ShardedMpcbf<u64, Murmur3>>::open_or_recover(opts, || {
                unreachable!("{site}: the previous snapshot must decode")
            })
            .unwrap();
        assert_eq!(report.snapshot_seq, previous, "{site}");
        assert_eq!(report.snapshots_corrupt, 0, "{site}");
        assert_eq!(report.records_replayed, second.len() as u64, "{site}");
        assert!(report.scrub_clean, "{site}");
        for (s, words) in reference.iter().enumerate() {
            assert_eq!(
                &recovered.inner().shard_raw_words(s),
                words,
                "{site}: shard {s}"
            );
        }
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every file in `dir`, by name, with its bytes (directories as `None`).
fn listing(dir: &std::path::Path) -> Vec<(String, Option<Vec<u8>>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).ok())
        })
        .collect();
    out.sort();
    out
}

/// Replaces `dir`'s only published snapshot with a directory of the same
/// name, so opening it works and every read fails; returns the path.
fn make_snapshot_unreadable(dir: &std::path::Path) -> PathBuf {
    let snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert_eq!(snaps.len(), 1, "one published snapshot");
    let stash = dir.with_extension("stash");
    std::fs::rename(&snaps[0], &stash).unwrap();
    std::fs::create_dir(&snaps[0]).unwrap();
    std::fs::write(snaps[0].join("inside"), b"not a snapshot").unwrap();
    snaps[0].clone()
}

/// Undoes [`make_snapshot_unreadable`].
fn restore_snapshot(dir: &std::path::Path, snap: &std::path::Path) {
    std::fs::remove_dir_all(snap).unwrap();
    std::fs::rename(dir.with_extension("stash"), snap).unwrap();
}

/// A snapshot that cannot be read is not a corrupt one: counting it as
/// corrupt started a fresh filter and replayed a log that only covers
/// what came after the snapshot, silently losing every key the snapshot
/// held. Recovery must fail with an I/O error and touch nothing, for a
/// sharded pool and a one-shard one alike; once the file reads again,
/// every acknowledged key is back.
#[test]
fn an_unreadable_snapshot_fails_recovery_and_loses_no_acked_key() {
    let keys = streamed_keys("unreadable", 2_000);
    for shards in [4, 1] {
        let dir = scratch_dir();
        let opts = DurabilityOptions::new(&dir);
        let fresh = || ShardedMpcbf::<u64, Murmur3>::new(raw_config(), shards);
        let durable = DurableSharded::create(fresh(), opts.clone()).unwrap();
        for key in &keys {
            durable.insert_bytes(key).unwrap();
        }
        durable.snapshot().unwrap();
        drop(durable);
        let snap = make_snapshot_unreadable(&dir);
        let before = listing(&dir);
        match DurableSharded::open_or_recover(opts.clone(), fresh) {
            Err(DurableError::Io { .. }) => {}
            Err(e) => panic!("{shards} shards: wrong error {e}"),
            Ok((_, report)) => {
                panic!("{shards} shards: recovered past an unreadable snapshot: {report}")
            }
        }
        assert!(
            listing(&dir) == before,
            "{shards} shards: the directory changed"
        );
        restore_snapshot(&dir, &snap);
        let (recovered, report) = DurableSharded::open_or_recover(opts, fresh).unwrap();
        assert_eq!(report.snapshots_corrupt, 0);
        assert!(
            keys.iter().all(|k| recovered.contains_bytes(k)),
            "{shards} shards"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A never-checkpointed directory takes its shard count from the pool
/// that opens it, so once a log holds a record an open with any other
/// count must refuse with a typed error naming the count the directory
/// was written with, and touch nothing. With fewer shards, a directory written with 8 would
/// replay only `wal-s0000..s0003` and lose every acked key logged to
/// shards 4 to 7 behind a clean report. With more, replay re-routes the
/// keys across the larger pool while an elastic log's scale-ups and
/// compactions still land on that log's shard index, so the recovered
/// pool is not the one that acknowledged the writes. Both modes are
/// checked; the count the directory was written with recovers every key.
#[test]
fn a_fresh_directory_reopened_with_fewer_shards_is_refused() {
    let fixed = |shards| move || ShardedMpcbf::<u64, Murmur3>::new(raw_config(), shards);
    let elastic = |shards| {
        move || {
            ElasticShardedMpcbf::<Murmur3>::manual(raw_config(), shards, CapacityPolicy::default())
                .unwrap()
        }
    };
    refuses_other_shard_counts("fixed", fixed, 8, &[4, 16]);
    refuses_other_shard_counts("elastic", elastic, 4, &[2, 8]);
}

/// Writes 1000 keys through a fresh `written`-shard directory (no
/// checkpoint), then checks that each count in `reopened` is refused
/// with the directory unchanged, and that `written` recovers every key.
fn refuses_other_shard_counts<P: ShardPool, F: FnOnce() -> P>(
    mode: &str,
    pool: impl Fn(usize) -> F,
    written: usize,
    reopened: &[usize],
) {
    let dir = scratch_dir();
    let opts = DurabilityOptions::new(&dir);
    let (durable, _) = DurableSharded::open_or_recover(opts.clone(), pool(written)).unwrap();
    let keys = streamed_keys("reshard", 1_000);
    for key in &keys {
        durable.insert_bytes(key).unwrap();
    }
    // Every logged record: the keys, plus an elastic pool's scale-ups.
    let records: u64 = durable.shard_seqs().iter().sum();
    drop(durable);
    let before = listing(&dir);
    for &shards in reopened {
        match DurableSharded::open_or_recover(opts.clone(), pool(shards)) {
            Err(DurableError::ShardCountMismatch { logs, shards: got }) => {
                assert_eq!((logs, got), (written, shards), "{mode}")
            }
            Err(e) => panic!("{mode}, {shards} shards: wrong error {e}"),
            Ok((recovered, report)) => {
                let lost = keys.iter().filter(|k| !recovered.contains_bytes(k)).count();
                panic!(
                    "{mode}: a {written}-shard directory opened with {shards} shards \
                     ({lost} acked keys lost): {report}"
                )
            }
        }
        assert!(
            listing(&dir) == before,
            "{mode}, {shards} shards: a refused open changed the directory"
        );
    }
    let (recovered, report) = DurableSharded::open_or_recover(opts, pool(written)).unwrap();
    assert_eq!(report.records_replayed, records, "{mode}");
    assert!(keys.iter().all(|k| recovered.contains_bytes(k)), "{mode}");
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first open of a fresh directory creates its logs one shard at a
/// time, so a crash inside that loop leaves fewer `wal-sNNNN` logs than
/// shards. No log holds a record, so the directory is still fresh: the
/// next open with the intended count must create the missing logs (not
/// refuse, naming the count the crash left), and an open with fewer
/// shards removes the extra empty logs. Once a key is logged, the
/// count is fixed again.
#[test]
fn a_fresh_directory_whose_first_open_died_opens_with_its_count() {
    let dir = scratch_dir();
    let opts = DurabilityOptions::new(&dir);
    let pool = |shards| move || ShardedMpcbf::<u64, Murmur3>::new(raw_config(), shards);
    let logs = || {
        let mut names: Vec<String> = listing(&dir)
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("wal-s"))
            .collect();
        names.dedup_by_key(|name| name[..9].to_string());
        names.len()
    };
    drop(DurableSharded::open_or_recover(opts.clone(), pool(8)).unwrap());
    assert_eq!(logs(), 8);
    for shard in 4..8 {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with(&format!("wal-s{shard:04}-")) {
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
    assert_eq!(logs(), 4);
    let (mut durable, report) = DurableSharded::open_or_recover(opts.clone(), pool(8)).unwrap();
    assert_eq!(report.records_replayed, 0);
    assert_eq!(logs(), 8, "the missing logs were not created");
    drop(durable);

    let (_, report) = DurableSharded::open_or_recover(opts.clone(), pool(2)).unwrap();
    assert_eq!(report.records_replayed, 0);
    assert_eq!(logs(), 2, "the extra empty logs were not removed");

    let keys = streamed_keys("first-open", 200);
    (durable, _) = DurableSharded::open_or_recover(opts.clone(), pool(8)).unwrap();
    for key in &keys {
        durable.insert_bytes(key).unwrap();
    }
    drop(durable);
    match DurableSharded::open_or_recover(opts.clone(), pool(4)) {
        Err(DurableError::ShardCountMismatch { logs, shards }) => {
            assert_eq!((logs, shards), (8, 4))
        }
        Err(e) => panic!("wrong error {e}"),
        Ok(_) => panic!("a directory holding records reopened with another count"),
    }
    let (recovered, report) = DurableSharded::open_or_recover(opts, pool(8)).unwrap();
    assert_eq!(report.records_replayed, keys.len() as u64);
    assert!(keys.iter().all(|k| recovered.contains_bytes(k)));
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A directory whose only snapshot is a bare `Mpcbf` image — what the
/// removed single-filter wrapper left behind — opens in no mode: fixed
/// and elastic opens both refuse it with the typed `ModeMismatch`
/// naming `single-filter`, and leave every file as it was (`mpcbf
/// recover`, which runs the same opens, is checked in the CLI's tests).
#[test]
fn a_single_filter_directory_is_refused_in_every_mode() {
    let dir = scratch_dir();
    let mut filter: Mpcbf<u64, Murmur3> = Mpcbf::new(raw_config());
    for key in streamed_keys("single", 100) {
        filter.insert(&key).unwrap();
    }
    SnapshotStore::new(&dir, "snap", KillSwitch::new())
        .unwrap()
        .write(0, &filter.encode())
        .unwrap();
    let before = listing(&dir);
    let refused = |result: Result<(), DurableError>, mode: &str| match result {
        Err(DurableError::ModeMismatch { stored, .. }) => assert_eq!(stored, "single-filter"),
        Err(e) => panic!("{mode} open: wrong error {e}"),
        Ok(()) => panic!("{mode} open accepted a single-filter directory"),
    };
    refused(
        DurableSharded::open_or_recover(DurabilityOptions::new(&dir), || {
            ShardedMpcbf::<u64, Murmur3>::new(raw_config(), 4)
        })
        .map(drop),
        "fixed",
    );
    refused(
        DurableSharded::open_or_recover(DurabilityOptions::new(&dir), || {
            ElasticShardedMpcbf::<Murmur3>::manual(raw_config(), 4, CapacityPolicy::default())
                .unwrap()
        })
        .map(drop),
        "elastic",
    );
    assert!(
        listing(&dir) == before,
        "a refused open changed the directory"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Opens a directory holding only `snapshot` in both pool modes. A
/// damaged file must yield no pool in either: counted as corrupt, never
/// refused as another mode's, never a panic.
fn open_damaged(snapshot: &[u8], what: &str) {
    let config = damage_config();
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("snap-{:020}.snap", 0));
    std::fs::write(&path, snapshot).unwrap();
    let opts = DurabilityOptions::new(&dir);
    let (fixed, report) = DurableSharded::open_or_recover(opts.clone(), || {
        ShardedMpcbf::<u64, Murmur3>::new(config, 4)
    })
    .unwrap_or_else(|e| panic!("{what}: fixed mode: {e}"));
    assert_eq!(report.snapshots_corrupt, 1, "{what}: fixed mode");
    assert_eq!(report.snapshot_seq, None, "{what}: fixed mode");
    assert_eq!(fixed.inner().total_load(), 0, "{what}: fixed mode");
    drop(fixed);
    // The fixed pool's logs are empty; the elastic open starts from the
    // same file alone.
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&path, snapshot).unwrap();
    let (elastic, report) = DurableSharded::open_or_recover(opts, || {
        ElasticShardedMpcbf::<Murmur3>::manual(config, 4, CapacityPolicy::default()).unwrap()
    })
    .unwrap_or_else(|e| panic!("{what}: elastic mode: {e}"));
    assert_eq!(report.snapshots_corrupt, 1, "{what}: elastic mode");
    assert_eq!(elastic.inner().items(), 0, "{what}: elastic mode");
    drop(elastic);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn damage_config() -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(2_048)
        .expected_items(40)
        .hashes(3)
        .seed(0xDA3A)
        .build()
        .unwrap()
}

/// The streamed loader against every single-bit flip and every
/// truncation of a small published 4-shard snapshot: the damage covers
/// the envelope header, the seq vector, the image header, the shard
/// words and both CRC trailers. The intact file still loads in its own
/// mode and is refused as the other mode's.
#[test]
fn every_damaged_published_snapshot_is_skipped_never_loaded_or_misread() {
    let dir = scratch_dir();
    let pool: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(damage_config(), 4);
    let durable = DurableSharded::create(pool, DurabilityOptions::new(&dir)).unwrap();
    for i in 0..40u32 {
        durable.insert_bytes(&i.to_le_bytes()).unwrap();
    }
    durable.snapshot().unwrap();
    let words: Vec<Vec<u64>> = (0..4).map(|s| durable.inner().shard_raw_words(s)).collect();
    drop(durable);
    let snapshot = snapshot_file(&dir);
    std::fs::remove_dir_all(&dir).unwrap();

    // The intact file: a pool in its own mode, refused in the other.
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("snap-{:020}.snap", 40)), &snapshot).unwrap();
    let before = listing(&dir);
    match DurableSharded::open_or_recover(DurabilityOptions::new(&dir), || {
        ElasticShardedMpcbf::<Murmur3>::manual(damage_config(), 4, CapacityPolicy::default())
            .unwrap()
    }) {
        Err(DurableError::ModeMismatch { stored, .. }) => assert_eq!(stored, "fixed"),
        Err(e) => panic!("intact file in the other mode: wrong error {e}"),
        Ok(_) => panic!("intact fixed file opened as an elastic pool"),
    }
    assert!(
        listing(&dir) == before,
        "a refused open changed the directory"
    );
    let (loaded, report) = DurableSharded::<ShardedMpcbf<u64, Murmur3>>::open_or_recover(
        DurabilityOptions::new(&dir),
        || unreachable!("the intact snapshot loads"),
    )
    .unwrap();
    assert_eq!(report.snapshot_bytes, snapshot.len() as u64);
    for (s, w) in words.iter().enumerate() {
        assert_eq!(&loaded.inner().shard_raw_words(s), w, "shard {s}");
    }
    drop(loaded);
    std::fs::remove_dir_all(&dir).unwrap();

    for byte in 0..snapshot.len() {
        for bit in 0..8 {
            let mut damaged = snapshot.clone();
            damaged[byte] ^= 1 << bit;
            open_damaged(&damaged, &format!("flip of byte {byte} bit {bit}"));
        }
    }
    for cut in 0..snapshot.len() {
        open_damaged(&snapshot[..cut], &format!("cut at {cut}"));
    }
}
