//! Decoder hardening: `codec::decode` must never panic and must return a
//! structured [`CodecError`] on any malformed image — arbitrary bytes,
//! truncations, and single-bit flips (which the CRC-32 is mathematically
//! guaranteed to catch). The same discipline is enforced for the
//! durability layer's WAL frames: arbitrary bytes, bit flips and torn
//! tails at every byte offset must yield structured errors (or a clean
//! truncated-prefix recovery), never a panic or fabricated state.

use mpcbf::concurrent::ShardedMpcbf;
use mpcbf::core::{Cbf, Filter, Mpcbf, MpcbfConfig};
use mpcbf::durability::{decode_frame, encode_frame, Wal, WalOp, WalRecord};
use mpcbf::hash::Murmur3;
use proptest::prelude::*;

fn mpcbf_image() -> Vec<u8> {
    let cfg = MpcbfConfig::builder()
        .memory_bits(8_192)
        .expected_items(80)
        .hashes(3)
        .seed(0xDEC0DE)
        .build()
        .unwrap();
    let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    for i in 0..60u64 {
        let _ = f.insert(&i);
    }
    f.encode()
}

fn cbf_image() -> Vec<u8> {
    let mut f: Cbf<Murmur3> = Cbf::new(500, 3, 0xDEC0DE);
    for i in 0..200u64 {
        f.insert(&i).unwrap();
    }
    f.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // Random bytes cannot carry a valid CRC except by a 2^-32
        // accident; both decoders must refuse with a structured error,
        // never panic. The error's Display must render, too.
        if let Err(e) = Mpcbf::<u64, Murmur3>::decode(&bytes) {
            prop_assert!(!e.to_string().is_empty());
        } else {
            // Astronomically unlikely; a panic-free Ok is still a pass.
        }
        if let Err(e) = Cbf::<Murmur3>::decode(&bytes) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn valid_prefix_with_arbitrary_tail_never_panics(
        cut in 0usize..600,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Grafting junk onto a truncated-but-well-formed prefix exercises
        // the header/payload length paths behind the CRC gate.
        let image = mpcbf_image();
        let cut = cut.min(image.len());
        let mut frankenstein = image[..cut].to_vec();
        frankenstein.extend_from_slice(&tail);
        let _ = Mpcbf::<u64, Murmur3>::decode(&frankenstein);
        let _ = Cbf::<Murmur3>::decode(&frankenstein);
    }

    #[test]
    fn truncation_at_any_point_is_a_structured_error(cut_hint in 0usize..600) {
        let image = mpcbf_image();
        let cut = cut_hint % image.len();
        let err = Mpcbf::<u64, Murmur3>::decode(&image[..cut]);
        prop_assert!(err.is_err(), "cut at {} decoded successfully", cut);
    }

    #[test]
    fn single_bit_flip_at_any_position_is_detected(
        byte_hint in 0usize..600,
        bit in 0u32..8,
    ) {
        let image = mpcbf_image();
        let byte = byte_hint % image.len();
        let mut corrupt = image.clone();
        corrupt[byte] ^= 1 << bit;
        prop_assert!(
            Mpcbf::<u64, Murmur3>::decode(&corrupt).is_err(),
            "flip of byte {} bit {} went undetected", byte, bit
        );
    }
}

/// A valid multi-record WAL stream (header + frames) plus its records.
fn wal_stream() -> (Vec<u8>, Vec<WalRecord>) {
    let records: Vec<WalRecord> = (1..=8u64)
        .map(|seq| WalRecord {
            seq,
            op: match seq % 3 {
                0 => WalOp::Remove(seq.to_le_bytes().to_vec()),
                1 => WalOp::Insert(seq.to_le_bytes().to_vec()),
                _ => WalOp::InsertBatch(vec![vec![seq as u8; 3], vec![0xAB; 5]]),
            },
        })
        .collect();
    let mut stream = mpcbf::durability::wal::SEGMENT_HEADER.to_vec();
    for record in &records {
        stream.extend_from_slice(&encode_frame(record));
    }
    (stream, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Same contract as the image decoders: random bytes must come
        // back as a structured FrameError whose Display renders.
        if let Err(e) = decode_frame(&bytes) {
            prop_assert!(!e.to_string().is_empty());
        }
    }
}

#[test]
fn every_single_bit_flip_of_a_wal_record_is_detected_exhaustively() {
    let frame = encode_frame(&WalRecord {
        seq: 99,
        op: WalOp::InsertBatch(vec![b"alice".to_vec(), b"bob".to_vec()]),
    });
    let (record, consumed) = decode_frame(&frame).expect("pristine frame decodes");
    assert_eq!(consumed, frame.len());
    assert_eq!(record.seq, 99);
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut corrupt = frame.clone();
            corrupt[byte] ^= 1 << bit;
            assert!(
                decode_frame(&corrupt).is_err(),
                "flip of frame byte {byte} bit {bit} went undetected"
            );
        }
    }
}

#[test]
fn torn_wal_tail_at_every_byte_offset_recovers_a_strict_prefix() {
    // Cut a real WAL segment at every possible byte offset and run the
    // repairing recovery scan over it: no panic, and the records that
    // come back are exactly a leading prefix of what was written — a
    // torn tail may drop records but can never fabricate or alter one.
    let (stream, records) = wal_stream();
    // Byte offsets where a cut is a clean end-of-log, not a torn frame
    // (0 = crash before the header write, treated as an empty log).
    let mut boundaries = vec![0, mpcbf::durability::wal::SEGMENT_HEADER.len()];
    for record in &records {
        boundaries.push(boundaries.last().unwrap() + encode_frame(record).len());
    }
    let base = std::env::temp_dir().join(format!("mpcbf-torn-scan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for cut in 0..=stream.len() {
        let dir = base.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-00000000000000000001.wal"), &stream[..cut]).unwrap();
        let (recovered, scan) = Wal::scan(&dir, "wal").expect("scan must not fail");
        assert_eq!(
            recovered,
            records[..recovered.len()],
            "cut at {cut}: recovered records must be a strict prefix"
        );
        if cut == stream.len() {
            assert_eq!(recovered.len(), records.len(), "uncut stream replays whole");
        }
        if boundaries.contains(&cut) {
            assert!(
                scan.torn.is_none(),
                "cut at {cut}: a frame-boundary cut is a clean (shorter) log"
            );
        } else {
            // Mid-header or mid-frame: the stray bytes must be reported
            // (and, below, physically amputated).
            assert!(
                scan.torn.is_some(),
                "cut at {cut}: dropped bytes must be reported as a torn tail"
            );
        }
        // The repair is physical: a second scan over the amputated file
        // is clean and returns the same prefix.
        let (again, rescan) = Wal::scan(&dir, "wal").expect("rescan");
        assert_eq!(again, recovered, "cut at {cut}: repair must be stable");
        assert!(rescan.torn.is_none(), "cut at {cut}: rescan must be clean");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn every_single_bit_flip_of_a_small_image_is_detected_exhaustively() {
    // CRC-32 detects *all* single-bit errors, so this holds for every
    // position, not just sampled ones — cheap enough to prove outright.
    type Case = (&'static str, Vec<u8>, fn(&[u8]) -> bool);
    let cases: Vec<Case> = vec![
        ("mpcbf", mpcbf_image(), |b: &[u8]| {
            Mpcbf::<u64, Murmur3>::decode(b).is_ok()
        }),
        ("cbf", cbf_image(), |b: &[u8]| {
            Cbf::<Murmur3>::decode(b).is_ok()
        }),
    ];
    for (name, image, decodes) in cases {
        assert!(decodes(&image), "{name}: pristine image must decode");
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut corrupt = image.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    !decodes(&corrupt),
                    "{name}: flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
}

#[test]
fn decoded_errors_are_the_documented_variants() {
    use mpcbf::core::CodecError;
    assert_eq!(
        Mpcbf::<u64, Murmur3>::decode(b"nope").err(),
        Some(CodecError::Truncated)
    );
    let mut bad_magic = mpcbf_image();
    bad_magic[0] = b'X';
    assert_eq!(
        Mpcbf::<u64, Murmur3>::decode(&bad_magic).err(),
        Some(CodecError::BadMagic)
    );
    let image = mpcbf_image();
    let mut flipped = image.clone();
    let mid = image.len() / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        Mpcbf::<u64, Murmur3>::decode(&flipped),
        Err(CodecError::ChecksumMismatch { .. })
    ));

    // A sharded image whose flip also breaks a word: the streamed
    // decoder meets the broken word before the trailer, and must still
    // report the checksum, not the word.
    let sharded = sharded_image();
    let words_from = sharded.len() - 4 - 8 * 32;
    let (at, flipped) = (words_from * 8..(sharded.len() - 4) * 8)
        .map(|bit| {
            let mut flipped = sharded.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            (bit, flipped)
        })
        .find(|(_, flipped)| {
            let mut resealed = flipped.clone();
            let body = resealed.len() - 4;
            let crc = mpcbf::core::codec::crc32(&resealed[..body]);
            resealed[body..].copy_from_slice(&crc.to_le_bytes());
            ShardedMpcbf::<u64>::decode(&resealed).err()
                == Some(CodecError::BadHeader("word invariant"))
        })
        .expect("some flip breaks a word");
    assert!(
        matches!(
            ShardedMpcbf::<u64>::decode(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ),
        "flip of bit {at}"
    );
}

/// A 2-shard, 32-word sharded image.
fn sharded_image() -> Vec<u8> {
    let cfg = MpcbfConfig::builder()
        .memory_bits(2_048)
        .expected_items(40)
        .hashes(3)
        .seed(0xDEC0DE)
        .build()
        .unwrap();
    let filter: ShardedMpcbf<u64> = ShardedMpcbf::new(cfg, 2);
    for i in 0..40u64 {
        let _ = filter.insert(&i);
    }
    filter.encode()
}

/// A 2 MB image: two blocks of the two-core load
/// ([`LOAD_BLOCK_WORDS`](mpcbf::core::codec::LOAD_BLOCK_WORDS) words
/// each), whose chunks the calling thread and a helper thread share.
/// Returns the image and the offset of its first word.
fn split_image() -> (Vec<u8>, usize) {
    let words = 2 * mpcbf::core::codec::LOAD_BLOCK_WORDS;
    let cfg = MpcbfConfig::builder()
        .memory_bits(words as u64 * 64)
        .expected_items(words as u64 / 2)
        .hashes(3)
        .seed(0xDEC0DE)
        .build()
        .unwrap();
    let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    for i in 0..words as u64 / 2 {
        let _ = f.insert(&i);
    }
    let image = f.encode();
    assert_eq!(image.len(), 2 * 1024 * 1024 + 54);
    let words_from = image.len() - 4 - 8 * words;
    (image, words_from)
}

#[test]
fn single_bit_flips_above_the_split_size_are_detected() {
    // The first and last word of each half of each block (so both
    // sides of each block's middle chunk boundary, whichever thread
    // takes each chunk), and every trailer byte.
    use mpcbf::core::CodecError;
    let (image, words_from) = split_image();
    assert!(Mpcbf::<u64, Murmur3>::decode(&image).is_ok());
    let half = mpcbf::core::codec::LOAD_BLOCK_WORDS / 2;
    let mut bytes: Vec<usize> = (0..4)
        .flat_map(|h| [h * half, (h + 1) * half - 1])
        .flat_map(|word| [words_from + 8 * word, words_from + 8 * word + 7])
        .collect();
    bytes.extend(image.len() - 4..image.len());
    for byte in bytes {
        for bit in [0, 3, 7] {
            let mut corrupt = image.clone();
            corrupt[byte] ^= 1 << bit;
            let err = Mpcbf::<u64, Murmur3>::decode(&corrupt).err();
            assert!(
                matches!(err, Some(CodecError::ChecksumMismatch { .. })),
                "flip of byte {byte} bit {bit}: {err:?}"
            );
        }
    }
}

#[test]
fn a_resealed_broken_final_word_above_the_split_size_is_a_word_error() {
    // The last word of the last chunk of a two-core load: where the
    // helper thread may be working, and where the word check's vector
    // loop ends. Bit 63 set breaks any word (it must lie below bit
    // `used - 1`, which is at most 63).
    use mpcbf::core::CodecError;
    let (mut image, _) = split_image();
    let body = image.len() - 4;
    image[body - 1] |= 0x80;
    let crc = mpcbf::core::codec::crc32(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(
        Mpcbf::<u64, Murmur3>::decode(&image).err(),
        Some(CodecError::BadHeader("word invariant"))
    );
}

#[test]
fn truncation_above_the_split_size_is_a_structured_error() {
    let (image, words_from) = split_image();
    let half = 8 * mpcbf::core::codec::LOAD_BLOCK_WORDS / 2;
    for cut in [
        0,
        5,
        words_from - 1,
        words_from,
        words_from + half - 3,
        words_from + half,
        words_from + 2 * half + 11,
        words_from + 3 * half,
        image.len() - 4,
        image.len() - 1,
    ] {
        let err = Mpcbf::<u64, Murmur3>::decode(&image[..cut])
            .err()
            .unwrap_or_else(|| panic!("cut at {cut} decoded"));
        assert!(!err.to_string().is_empty());
    }
}
