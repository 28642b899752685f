//! Corruption detection and scrubbing: seal → verify → scrub.
//!
//! Filter state is long-lived, dense, and silently trusted: a single
//! flipped bit in an HCBF word desynchronises the hierarchy levels and
//! can manufacture false negatives — the one failure a counting Bloom
//! filter promises never to produce. This module makes such damage
//! *detectable* instead of silent:
//!
//! * a [`FilterSeal`] checksums the raw word array segment by segment
//!   (CRC-32, the same machinery the wire codec uses for whole images),
//!   taken at a moment the owner knows the filter is healthy;
//! * `verify()` on a filter re-checks every word's *structural*
//!   invariants (the §III.B.1 level-walk identities), which catches a
//!   large class of flips with no seal at all;
//! * `scrub(&seal)` combines both: recompute each segment's CRC against
//!   the seal and re-walk each word, reporting every damaged segment in a
//!   [`ScrubReport`].
//!
//! Detection is intentionally separated from repair: a damaged segment's
//! true contents are unknowable from the filter alone, so the honest
//! response is [`FilterError::CorruptionDetected`] and a rebuild from the
//! source of truth, not a guess.

use crate::codec::crc32;
use crate::FilterError;

/// 64-bit limbs per checksummed segment (512 bytes of filter state — a
/// few cache lines, so one flipped bit localises to a small region while
/// the seal stays ~0.1 % of the filter's size).
pub const SEGMENT_WORDS: usize = 64;

/// The segment a given word/limb index belongs to.
#[inline]
pub fn segment_of(word: usize) -> usize {
    word / SEGMENT_WORDS
}

/// Per-segment CRC-32 checksums of a filter's raw 64-bit storage, taken
/// at a moment the filter is known healthy.
///
/// A seal is a pure function of the word array: two bit-identical filters
/// produce equal seals, and any later divergence from the sealed state —
/// whether a legitimate update or a corruption — flips at least one
/// segment CRC. Owners therefore re-seal after every batch of updates and
/// scrub between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSeal {
    limbs: usize,
    crcs: Vec<u32>,
}

impl FilterSeal {
    /// Checksums `limbs` in [`SEGMENT_WORDS`]-sized segments, reading
    /// each limb once, in place (a slice, or words under a lock).
    pub fn compute(limbs: impl IntoIterator<Item = u64>) -> Self {
        let mut crcs = Vec::new();
        let limbs = segment_crcs(limbs, |_, crc| crcs.push(crc));
        FilterSeal { limbs, crcs }
    }

    /// Number of checksummed segments.
    pub fn segments(&self) -> usize {
        self.crcs.len()
    }

    /// Number of limbs the seal covers.
    pub fn limb_count(&self) -> usize {
        self.limbs
    }

    /// Compares `limbs` against the sealed checksums, returning the
    /// indices of every segment that no longer matches (ascending).
    ///
    /// # Panics
    /// Panics if `limbs` has a different length than the sealed array —
    /// the seal belongs to a different filter.
    pub fn diff<I>(&self, limbs: I) -> Vec<usize>
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let limbs = limbs.into_iter();
        assert_eq!(
            limbs.len(),
            self.limbs,
            "seal covers {} limbs, filter has {}",
            self.limbs,
            limbs.len()
        );
        let mut damaged = Vec::new();
        segment_crcs(limbs, |i, crc| {
            if crc != self.crcs[i] {
                damaged.push(i);
            }
        });
        damaged
    }
}

/// Streams `limbs` through the CRC, calling `f(segment, crc)` as each
/// [`SEGMENT_WORDS`]-limb segment (the last one possibly short) closes.
/// Each segment is copied into a stack buffer and checksummed in one
/// call, so a whole segment takes the fast CRC kernel. Returns the limb
/// count.
fn segment_crcs(limbs: impl IntoIterator<Item = u64>, mut f: impl FnMut(usize, u32)) -> usize {
    let mut limbs = limbs.into_iter();
    let mut segment = [0u8; SEGMENT_WORDS * 8];
    let mut count = 0;
    loop {
        let mut filled = 0;
        for (slot, limb) in segment.chunks_exact_mut(8).zip(&mut limbs) {
            slot.copy_from_slice(&limb.to_le_bytes());
            filled += 8;
        }
        if filled == 0 {
            return count;
        }
        f(count / SEGMENT_WORDS, crc32(&segment[..filled]));
        count += filled / 8;
        if filled < segment.len() {
            return count;
        }
    }
}

/// Outcome of one scrub pass over a filter's storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments examined.
    pub segments_checked: usize,
    /// Segments whose checksum or structural invariants failed, ascending
    /// and deduplicated.
    pub corrupt_segments: Vec<usize>,
}

impl ScrubReport {
    /// Builds a report, normalising the damage list (sorted, deduplicated).
    pub fn new(segments_checked: usize, mut corrupt: Vec<usize>) -> Self {
        corrupt.sort_unstable();
        corrupt.dedup();
        ScrubReport {
            segments_checked,
            corrupt_segments: corrupt,
        }
    }

    /// True if no corruption was found.
    pub fn is_clean(&self) -> bool {
        self.corrupt_segments.is_empty()
    }

    /// `Ok(())` when clean; otherwise the first damaged segment as a
    /// [`FilterError::CorruptionDetected`].
    pub fn to_result(&self) -> Result<(), FilterError> {
        match self.corrupt_segments.first() {
            None => Ok(()),
            Some(&segment) => Err(FilterError::CorruptionDetected { segment }),
        }
    }

    /// Merges another report over the same storage into this one.
    pub fn merge(&mut self, other: ScrubReport) {
        self.segments_checked = self.segments_checked.max(other.segments_checked);
        self.corrupt_segments.extend(other.corrupt_segments);
        self.corrupt_segments.sort_unstable();
        self.corrupt_segments.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_detects_any_single_bit_flip() {
        let mut limbs: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let seal = FilterSeal::compute(limbs.iter().copied());
        assert_eq!(seal.segments(), 200usize.div_ceil(SEGMENT_WORDS));
        assert!(seal.diff(limbs.iter().copied()).is_empty());
        for limb in [0usize, 63, 64, 150, 199] {
            for bit in [0u32, 17, 63] {
                limbs[limb] ^= 1u64 << bit;
                assert_eq!(
                    seal.diff(limbs.iter().copied()),
                    vec![segment_of(limb)],
                    "flip at limb {limb} bit {bit}"
                );
                limbs[limb] ^= 1u64 << bit; // restore
            }
        }
        assert!(seal.diff(limbs.iter().copied()).is_empty());
    }

    #[test]
    fn segment_crcs_equal_the_per_limb_crc() {
        // The seal values of the limb-at-a-time CRC this module used to
        // run: stored seals stay valid.
        let limbs: Vec<u64> = (0..300u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for len in [0, 1, 63, 64, 65, 128, 200, 300] {
            let mut expected = Vec::new();
            for segment in limbs[..len].chunks(SEGMENT_WORDS) {
                let crc = segment.iter().fold(0, |crc, limb| {
                    crate::codec::crc32_update(crc, &limb.to_le_bytes())
                });
                expected.push(crc);
            }
            let mut seen = Vec::new();
            assert_eq!(
                segment_crcs(limbs[..len].iter().copied(), |i, crc| seen.push((i, crc))),
                len
            );
            assert_eq!(
                seen,
                expected.into_iter().enumerate().collect::<Vec<_>>(),
                "{len} limbs"
            );
        }
    }

    #[test]
    fn diff_reports_multiple_segments() {
        let mut limbs = vec![0u64; 3 * SEGMENT_WORDS];
        let seal = FilterSeal::compute(limbs.iter().copied());
        limbs[0] ^= 1;
        limbs[2 * SEGMENT_WORDS] ^= 1 << 40;
        assert_eq!(seal.diff(limbs.iter().copied()), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "seal covers")]
    fn diff_rejects_mismatched_length() {
        let seal = FilterSeal::compute([1, 2, 3]);
        let _ = seal.diff([1, 2]);
    }

    #[test]
    fn report_result_and_merge() {
        let clean = ScrubReport::new(4, vec![]);
        assert!(clean.is_clean());
        assert_eq!(clean.to_result(), Ok(()));
        let mut dirty = ScrubReport::new(4, vec![3, 1, 3]);
        assert_eq!(dirty.corrupt_segments, vec![1, 3]);
        assert_eq!(
            dirty.to_result(),
            Err(FilterError::CorruptionDetected { segment: 1 })
        );
        dirty.merge(ScrubReport::new(4, vec![0, 3]));
        assert_eq!(dirty.corrupt_segments, vec![0, 1, 3]);
    }

    #[test]
    fn empty_storage_seals_cleanly() {
        let seal = FilterSeal::compute([]);
        assert_eq!(seal.segments(), 0);
        assert!(seal.diff([]).is_empty());
    }
}
