//! Cross-crate distribution scenario: build partial filters on "nodes",
//! merge them, ship the result over the wire format, and use the decoded
//! image as the pushdown filter in a MapReduce join — the full §V
//! deployment path, in one test file.

use mpcbf::core::{Cbf, Filter, Mpcbf, MpcbfConfig};
use mpcbf::hash::Murmur3;
use mpcbf::mapreduce::{reduce_side_join, Broadcast, JoinConfig};
use mpcbf::workloads::patents::{PatentDataset, PatentSpec};
use proptest::prelude::*;

fn config(memory: u64, items: u64, seed: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(memory)
        .expected_items(items)
        .hashes(3)
        // Eq. (11) deliberately sits at ≈1 expected word overflow, so a
        // fixed seed can land exactly on a refused insert/absorb. These
        // tests assert exact end-to-end behaviour (every key present, so
        // the pushdown join equals the unfiltered join), which needs
        // deterministic headroom rather than the at-margin heuristic.
        .n_max(10)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn distributed_build_then_broadcast_then_join() {
    let spec = PatentSpec::default().scaled_down(256);
    let data = PatentDataset::generate(&spec);
    let left: Vec<(u32, u16)> = data.patents.iter().map(|p| (p.id, p.year)).collect();
    let right: Vec<(u32, u32)> = data.citations.iter().map(|c| (c.cited, c.citing)).collect();
    let n_keys = left.len() as u64;
    let cfg = config(40 * n_keys, n_keys, 2026);

    // "Nodes" build partial filters over shards of the key table …
    let shards: Vec<&[(u32, u16)]> = left.chunks(left.len().div_ceil(3)).collect();
    let mut partials: Vec<Mpcbf<u64, Murmur3>> = shards
        .iter()
        .map(|shard| {
            let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
            for (k, _) in *shard {
                f.insert(k).unwrap();
            }
            f
        })
        .collect();

    // … the coordinator merges them …
    let mut merged = partials.remove(0);
    for p in &partials {
        merged.absorb(p).unwrap();
    }
    assert_eq!(merged.items(), n_keys);

    // … encodes for DistributedCache, every mapper decodes its copy.
    let image = merged.encode();
    let broadcast = Broadcast::new(image.clone(), image.len() as u64);
    let decoded = Mpcbf::<u64, Murmur3>::decode(broadcast.get()).unwrap();

    // The decoded filter drives the pushdown; result must equal no-filter.
    let (rows_plain, _) =
        reduce_side_join(&JoinConfig::default(), left.clone(), right.clone(), None);
    let (rows_push, stats) = reduce_side_join(&JoinConfig::default(), left, right, Some(&decoded));
    assert_eq!(rows_plain.len(), rows_push.len());
    assert!(stats.filtered_out > 0, "decoded filter should still filter");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mpcbf_codec_roundtrips_arbitrary_populations(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        seed in any::<u64>(),
    ) {
        let cfg = config(100_000, 1_000, seed);
        let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for k in &keys {
            let _ = f.insert(k);
        }
        let decoded = Mpcbf::<u64, Murmur3>::decode(&f.encode()).unwrap();
        prop_assert_eq!(decoded.shape(), f.shape());
        prop_assert_eq!(decoded.items(), f.items());
        for k in &keys {
            prop_assert_eq!(decoded.contains(k), f.contains(k));
        }
        for probe in 0u64..2_000 {
            prop_assert_eq!(decoded.contains(&probe), f.contains(&probe));
        }
    }

    #[test]
    fn cbf_codec_roundtrips_arbitrary_populations(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        k in 1u32..=6,
    ) {
        let mut f = Cbf::<Murmur3>::new(4_096, k, 9);
        for key in &keys {
            f.insert(key).unwrap();
        }
        let decoded = Cbf::<Murmur3>::decode(&f.encode()).unwrap();
        for key in &keys {
            prop_assert!(decoded.contains(key));
        }
        for probe in 0u64..2_000 {
            prop_assert_eq!(decoded.contains(&probe), f.contains(&probe));
        }
    }

    #[test]
    fn random_corruption_never_yields_a_filter_silently(
        flip_byte in 6usize..80,
        flip_bit in 0u8..8,
    ) {
        // Corrupt a byte in the header/payload region (skipping magic and
        // kind so we test CRC coverage, not just magic checks).
        let cfg = config(50_000, 500, 3);
        let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for i in 0..200u64 {
            let _ = f.insert(&i);
        }
        let mut image = f.encode();
        let pos = flip_byte % (image.len() - 10);
        let pos = pos.max(6);
        image[pos] ^= 1 << flip_bit;
        prop_assert!(Mpcbf::<u64, Murmur3>::decode(&image).is_err());
    }

    #[test]
    fn merge_equals_union_build(
        xs in prop::collection::vec(0u64..100_000, 0..150),
        ys in prop::collection::vec(100_000u64..200_000, 0..150),
    ) {
        let cfg = config(200_000, 2_000, 8);
        let mut a: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let mut b: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let mut whole: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for x in &xs {
            a.insert(x).unwrap();
            whole.insert(x).unwrap();
        }
        for y in &ys {
            b.insert(y).unwrap();
            whole.insert(y).unwrap();
        }
        a.absorb(&b).unwrap();
        prop_assert_eq!(a.raw_words(), whole.raw_words(), "merged != whole build");
    }
}

/// Bytes written by the bit-at-a-time CRC-32 the codec shipped with
/// before it moved to slicing-by-8: a 2-shard sharded image (the filter
/// built in `images_written_by_the_bitwise_crc_still_decode`), the CRC
/// trailer of its MPSS envelope with shard seqs `[3, 5]`, and one WAL
/// batch frame.
const GOLDEN_SHARDED_IMAGE: &str = "\
4d5043420401200000000000000003000000010000000400000007000000000000000200000010000000000000000000\
000000000000004000100800000010000a08c004a0000000000910500200800002800000000040010000004000000040\
020040060800000000000000000000040a10002200000000240084040100000000000000000000a00105004000000000\
00000000000020980008000100008242d000001100000010000008400000000000000000000010000008010000001000\
000000800800408000100900200001400200000000000040010000000100050200000000000000000000000000000080\
000c0000000002204041004000000000000000000000000814008204000048000002000000000000200002080000000000\
000000000080011004001200008004420008200000768a4e1c";
const GOLDEN_ENVELOPE_CRC: &str = "f7a9541e";
const GOLDEN_WAL_FRAME: &str =
    "25000000090000000000000003b28a2dc671664a4c0200000005000000616c69636503000000626f62dd473222";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn images_written_by_the_bitwise_crc_still_decode() {
    use mpcbf::concurrent::ShardedMpcbf;
    use mpcbf::durability::{
        decode_envelope, decode_frame, encode_envelope, encode_frame, WalOp, WalRecord,
    };

    let c = MpcbfConfig::builder()
        .memory_bits(2048)
        .expected_items(40)
        .hashes(3)
        .seed(7)
        .build()
        .unwrap();
    let filter: ShardedMpcbf<u64> = ShardedMpcbf::new(c, 2);
    for i in 0..40u64 {
        filter.insert(&i).unwrap();
    }

    // The stored image decodes to the same filter, and encoding today
    // writes it byte for byte.
    let golden = unhex(GOLDEN_SHARDED_IMAGE);
    let decoded = ShardedMpcbf::<u64>::decode(&golden).expect("golden image decodes");
    for s in 0..filter.shard_count() {
        assert_eq!(decoded.shard_raw_words(s), filter.shard_raw_words(s));
    }
    assert!((0..40u64).all(|i| decoded.contains(&i)));
    assert_eq!(filter.encode(), golden);

    let envelope = encode_envelope(&[3, 5], &golden);
    assert_eq!(envelope[envelope.len() - 4..], unhex(GOLDEN_ENVELOPE_CRC));
    let (seqs, image) = decode_envelope(&envelope).expect("golden envelope decodes");
    assert_eq!((seqs, image), (vec![3, 5], &golden[..]));

    let record = WalRecord {
        seq: 9,
        op: WalOp::InsertBatch(vec![b"alice".to_vec(), b"bob".to_vec()]),
    };
    let frame = unhex(GOLDEN_WAL_FRAME);
    assert_eq!(encode_frame(&record), frame);
    assert_eq!(
        decode_frame(&frame).expect("golden frame decodes"),
        (record, frame.len())
    );
}
