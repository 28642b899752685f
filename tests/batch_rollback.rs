//! Batch all-or-nothing rollback: when a key inside a batch fails
//! (overflow on insert, absence on remove), that key's partial updates
//! must be rolled back completely — the filter ends bit-identical to the
//! state a scalar replay of the same batch produces, and a batch whose
//! every key fails leaves the filter bit-identical to its pre-batch
//! state. Verified for each variant that can refuse an operation.

use mpcbf::concurrent::ShardedMpcbf;
use mpcbf::core::{CountingFilter, Filter, Mpcbf, MpcbfConfig, ResilientMpcbf};
use mpcbf::hash::Murmur3;
use mpcbf::variants::DlCbf;

/// A shape with word capacity 3 (k·n_max = 3), so a handful of copies of
/// one key saturates its words.
fn tight_config(word_bits: u32, seed: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(64 * u64::from(word_bits))
        .expected_items(1_000)
        .hashes(3)
        .n_max(1)
        .word_bits(word_bits)
        .seed(seed)
        .build()
        .unwrap()
}

/// Fills `hot` until the filter refuses it, then asserts that a batch of
/// further copies fails wholesale and leaves `fingerprint(f)` unchanged,
/// and that a mixed batch matches its scalar replay exactly.
fn assert_insert_rollback<F, S>(mut f: F, fingerprint: impl Fn(&F) -> S, label: &str)
where
    F: Filter + Clone,
    S: PartialEq + std::fmt::Debug,
{
    let hot = b"hot-key".as_slice();
    let mut stored = 0u32;
    while f.insert_bytes_cost(hot).is_ok() {
        stored += 1;
        assert!(stored < 10_000, "{label}: hot key never overflows");
    }
    let before = fingerprint(&f);

    // Every copy in this batch must fail, and fail cleanly.
    let all_hot: Vec<&[u8]> = vec![hot; 12];
    let (results, _) = f.insert_batch_cost(&all_hot);
    assert!(
        results.iter().all(Result::is_err),
        "{label}: saturated key accepted a batched copy"
    );
    assert_eq!(
        fingerprint(&f),
        before,
        "{label}: failed batch left residue"
    );

    // Mixed batch: failing copies interleaved with fresh keys must land
    // exactly as the scalar loop lands them.
    let fresh: Vec<Vec<u8>> = (0..6u32)
        .map(|i| format!("fresh-{i}").into_bytes())
        .collect();
    let mut batch: Vec<&[u8]> = Vec::new();
    for k in &fresh {
        batch.push(hot);
        batch.push(k.as_slice());
    }
    let mut scalar_f = f.clone();
    let scalar_ok: Vec<bool> = batch
        .iter()
        .map(|k| scalar_f.insert_bytes_cost(k).is_ok())
        .collect();
    let (batched, _) = f.insert_batch_cost(&batch);
    let batched_ok: Vec<bool> = batched.iter().map(Result::is_ok).collect();
    assert_eq!(batched_ok, scalar_ok, "{label}: batch/scalar divergence");
    assert_eq!(
        fingerprint(&f),
        fingerprint(&scalar_f),
        "{label}: mixed batch state differs from scalar replay"
    );
}

/// Asserts that removing absent keys in a batch rolls back per key: the
/// batch result and final state match the scalar replay, and a batch of
/// only-absent keys leaves the filter untouched.
fn assert_remove_rollback<F, S>(mut f: F, fingerprint: impl Fn(&F) -> S, label: &str)
where
    F: CountingFilter + Clone,
    S: PartialEq + std::fmt::Debug,
{
    for i in 0..40u32 {
        f.insert_bytes_cost(format!("live-{i}").into_bytes().as_slice())
            .unwrap();
    }
    let before = fingerprint(&f);
    let ghosts: Vec<Vec<u8>> = (0..8u32)
        .map(|i| format!("ghost-{i}").into_bytes())
        .collect();
    let ghost_views: Vec<&[u8]> = ghosts.iter().map(|g| g.as_slice()).collect();
    let (results, _) = f.remove_batch_cost(&ghost_views);
    // False positives may let a ghost "remove" succeed; what matters is
    // that every *failed* removal left no trace, which the scalar
    // comparison below pins down. If all failed, state is untouched.
    if results.iter().all(Result::is_err) {
        assert_eq!(
            fingerprint(&f),
            before,
            "{label}: failed removals left residue"
        );
    }

    let mixed: Vec<Vec<u8>> = vec![
        b"live-1".to_vec(),
        b"ghost-99".to_vec(),
        b"live-2".to_vec(),
        b"live-1".to_vec(), // second removal of the same key
        b"live-1".to_vec(), // now absent: must fail like scalar
    ];
    let mixed_views: Vec<&[u8]> = mixed.iter().map(|g| g.as_slice()).collect();
    let mut scalar_f = f.clone();
    let scalar_ok: Vec<bool> = mixed_views
        .iter()
        .map(|k| scalar_f.remove_bytes_cost(k).is_ok())
        .collect();
    let (batched, _) = f.remove_batch_cost(&mixed_views);
    let batched_ok: Vec<bool> = batched.iter().map(Result::is_ok).collect();
    assert_eq!(batched_ok, scalar_ok, "{label}: batch/scalar divergence");
    assert_eq!(
        fingerprint(&f),
        fingerprint(&scalar_f),
        "{label}: mixed removal state differs from scalar replay"
    );
}

#[test]
fn mpcbf_u64_insert_rollback_is_bit_identical() {
    let f: Mpcbf<u64, Murmur3> = Mpcbf::new(tight_config(64, 1));
    assert_insert_rollback(f, |f| f.raw_words().to_vec(), "mpcbf-u64");
}

#[test]
fn mpcbf_u64_remove_rollback_is_bit_identical() {
    let cfg = MpcbfConfig::builder()
        .memory_bits(100_000)
        .expected_items(1_000)
        .hashes(3)
        .seed(2)
        .build()
        .unwrap();
    let f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    assert_remove_rollback(f, |f| f.raw_words().to_vec(), "mpcbf-u64");
}

#[test]
fn mpcbf_u16_and_u32_words_roll_back_too() {
    // Narrow words have no raw accessor; the `words:` slice of the
    // derived Debug output is a faithful dump of every limb. The stats
    // that follow are deliberately excluded — the overflow counter
    // increments on a refused insert, which is bookkeeping, not state.
    fn limbs(debug: String) -> String {
        debug.split(", shape:").next().unwrap().to_string()
    }
    let f16: Mpcbf<u16, Murmur3> = Mpcbf::new(tight_config(16, 3));
    assert_insert_rollback(f16, |f| limbs(format!("{f:?}")), "mpcbf-u16");
    let f32: Mpcbf<u32, Murmur3> = Mpcbf::new(tight_config(32, 4));
    assert_insert_rollback(f32, |f| limbs(format!("{f:?}")), "mpcbf-u32");
}

#[test]
fn dlcbf_full_buckets_roll_back() {
    // 2 buckets × 1 cell per sub-table: a handful of distinct keys fills
    // every candidate bucket, after which inserts must fail cleanly.
    let mut f: DlCbf<Murmur3> = DlCbf::new(2, 2, 1, 12, 5);
    let mut filled = 0u32;
    while filled < 1_000 {
        let key = format!("fill-{filled}").into_bytes();
        if f.insert_bytes_cost(&key).is_err() {
            break;
        }
        filled += 1;
    }
    assert!(filled < 1_000, "dlcbf never filled");
    // Find a key every one of whose candidate buckets is full.
    let mut probe = 0u32;
    let (victim, before) = loop {
        let key = format!("victim-{probe}").into_bytes();
        let snapshot = format!("{f:?}");
        if f.insert_bytes_cost(&key).is_err() {
            break (key, snapshot);
        }
        probe += 1;
        assert!(probe < 1_000, "dlcbf found no refused key");
    };
    let batch: Vec<&[u8]> = vec![victim.as_slice(); 8];
    let (results, _) = f.insert_batch_cost(&batch);
    assert!(results.iter().all(Result::is_err));
    assert_eq!(format!("{f:?}"), before, "dlcbf failed batch left residue");
}

#[test]
fn sharded_mpcbf_batch_rollback_is_bit_identical() {
    let f: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(tight_config(64, 6), 4);
    let hot = b"hot-key".as_slice();
    let mut stored = 0u32;
    while f.insert_bytes(hot).is_ok() {
        stored += 1;
        assert!(stored < 10_000);
    }
    let before: Vec<Vec<u64>> = (0..f.shard_count()).map(|s| f.shard_raw_words(s)).collect();
    let results = f.insert_batch_bytes(&[hot; 12]);
    assert!(results.iter().all(Result::is_err));
    let after: Vec<Vec<u64>> = (0..f.shard_count()).map(|s| f.shard_raw_words(s)).collect();
    assert_eq!(after, before, "sharded failed batch left residue");
}

#[test]
fn resilient_mpcbf_never_fails_and_still_matches_scalar() {
    // The spillover wrapper turns the failing batch into spilled inserts;
    // batch and scalar replays must stay bit-identical to each other.
    let mut batch_f: ResilientMpcbf = ResilientMpcbf::new(tight_config(64, 8));
    let mut scalar_f: ResilientMpcbf = ResilientMpcbf::new(tight_config(64, 8));
    let hot = b"hot-key".as_slice();
    let keys: Vec<&[u8]> = vec![hot; 24];
    let (results, _) = batch_f.insert_batch_cost(&keys);
    assert!(
        results.iter().all(Result::is_ok),
        "spillover must absorb every overflow"
    );
    for _ in 0..24 {
        scalar_f.insert_bytes_cost(hot).unwrap();
    }
    assert_eq!(batch_f.main().raw_words(), scalar_f.main().raw_words());
    assert_eq!(batch_f.spill_occupancy(), scalar_f.spill_occupancy());
    assert_eq!(batch_f.items(), scalar_f.items());
}
