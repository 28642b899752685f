//! Crash-recovery property test: for a random operation stream crashed
//! at a random kill point, the recovered filter must be bit-identical
//! to a reference filter that applied exactly the durable prefix, with
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
use mpcbf::core::{CapacityPolicy, CountingFilter, Filter, Mpcbf, MpcbfConfig};
use mpcbf::durability::{
    encode_envelope, encode_frame, DurabilityOptions, DurableFilter, DurableSharded, FsyncPolicy,
    KillSite, KillSwitch, SnapshotStore, Wal, WalOp, WalRecord,
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

/// Applies one op to the reference filter (refusals discarded, exactly
/// as WAL replay does).
fn apply_ref(reference: &mut Mpcbf<u64, Murmur3>, op: &Op) {
    match op {
        Op::Insert(k) => {
            let _ = reference.insert_bytes_cost(&[*k]);
        }
        Op::Remove(k) => {
            let _ = reference.remove_bytes_cost(&[*k]);
        }
        Op::InsertBatch(keys) => {
            let views: Vec<&[u8]> = keys.iter().map(std::slice::from_ref).collect();
            let _ = reference.insert_batch_cost(&views);
        }
    }
}

/// Applies one op through the durable wrapper, recording acknowledged
/// key-count deltas into the oracle. Returns `Err` only on a kill.
fn apply_durable(
    durable: &mut DurableFilter<Mpcbf<u64, Murmur3>>,
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
            let views: Vec<&[u8]> = keys.iter().map(std::slice::from_ref).collect();
            match durable.insert_batch_bytes(&views) {
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
        let cfg = config();
        let dir = scratch_dir();
        let kill = KillSwitch::new();
        let mut durable: DurableFilter<Mpcbf<u64, Murmur3>> = DurableFilter::create(
            Mpcbf::new(cfg),
            DurabilityOptions::new(&dir).kill(kill.clone()),
        )
        .unwrap();
        let mut reference: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let mut oracle: HashMap<u8, i64> = HashMap::new();

        for (i, op) in ops[..kill_at].iter().enumerate() {
            if snapshot_midway && i == kill_at / 2 {
                durable.snapshot().unwrap();
            }
            prop_assert!(
                apply_durable(&mut durable, op, &mut oracle).is_ok(),
                "unarmed op must not crash"
            );
            apply_ref(&mut reference, op);
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
                    apply_durable(&mut durable, op, &mut oracle).is_err(),
                    "armed op must crash"
                );
                oracle = before; // a killed op is never acknowledged
                prop_assert_eq!(kill.fired(), Some(site));
                if site == KillSite::WalFsync {
                    // The frame hit the disk whole: durable, unacked.
                    // Its keys are in limbo — the client may not assume
                    // either outcome — so exempt them from the
                    // acked-presence check.
                    apply_ref(&mut reference, op);
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

        let (recovered, report) = DurableFilter::open_or_recover(
            DurabilityOptions::new(&dir),
            || -> Mpcbf<u64, Murmur3> { Mpcbf::new(cfg) },
        )
        .unwrap();
        prop_assert_eq!(
            recovered.inner().raw_words(),
            reference.raw_words(),
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
        prop_assert!(report.scrub_clean, "recovered image must scrub clean");
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
    let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

    let dir = scratch_dir();
    let pool: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(raw_config(), 4);
    let mut durable = DurableSharded::create(pool, DurabilityOptions::new(&dir)).unwrap();
    durable.insert_batch_bytes(&views).unwrap();
    durable.snapshot().unwrap();
    let expected = encode_envelope(&durable.shard_seqs(), &durable.inner().encode());
    assert_eq!(snapshot_file(&dir), expected, "fixed pool");
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = scratch_dir();
    let pool: ElasticShardedMpcbf<Murmur3> =
        ElasticShardedMpcbf::manual(raw_config(), 4, CapacityPolicy::default()).unwrap();
    let mut durable = DurableSharded::create(pool, DurabilityOptions::new(&dir)).unwrap();
    durable.insert_batch_bytes(&views).unwrap();
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
        let mut durable = DurableSharded::create(pool, opts.clone()).unwrap();
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
