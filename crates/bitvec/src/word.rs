//! The [`Word`] trait: a fixed-width bit container supporting the in-word
//! operations HCBF performs.
//!
//! HCBF (§III.B) treats one machine word as a little dynamic structure:
//! levels are contiguous bit ranges, navigation uses *ranked popcounts*
//! (number of ones below a position within a level), and every counter
//! increment inserts one zero bit into the middle of the word, shifting the
//! tail right. The trait below is the minimal algebra for that.
//!
//! Every primitive has exactly one portable body, branch-free via
//! [`Word::mask_below`]: a masked popcount for `rank`, a mask/shift/merge
//! for the shifting insert and remove. An HCBF operation costs one memory
//! access (§III.B.2), so it is bound by that access, not by these few
//! register instructions.

use core::fmt::Debug;

/// All ones strictly below bit `i` of a 64-bit limb (`i ≥ 64` saturates to
/// all ones) — the mask [`WideWord`](crate::WideWord) builds its boundary
/// limb from. The double shift `(MAX >> 1) >> (63 - i)` keeps every shift
/// amount in `0..64` for every `i < 64`, so no shift is ever undefined.
#[inline]
pub fn mask_below_u64(i: u32) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (u64::MAX >> 1) >> (63 - i)
    }
}

/// A fixed-width bit container.
///
/// Bit positions run from `0` (least significant) to `Self::BITS - 1`.
/// All range arguments are half-open `[a, b)` and clamped to the width by
/// contract — callers must pass positions `≤ Self::BITS`.
pub trait Word: Copy + Clone + Eq + Debug + Default + Send + Sync + 'static {
    /// Width of the word in bits.
    const BITS: u32;

    /// The all-zeros word.
    fn zero() -> Self;

    /// All ones strictly below bit `i`; `i ≥ Self::BITS` saturates to the
    /// all-ones word (the same contract as x86's `BZHI` mask). Every
    /// position-masking primitive below is defined in terms of this, so no
    /// implementation ever computes `(1 << i) - 1` with `i` at the width —
    /// the shift hazard the old `rank` carried.
    fn mask_below(i: u32) -> Self;

    /// Tests bit `i`.
    fn bit(&self, i: u32) -> bool;

    /// Sets bit `i` to one.
    fn set_bit(&mut self, i: u32);

    /// Clears bit `i` to zero.
    fn clear_bit(&mut self, i: u32);

    /// Number of one bits in the whole word.
    fn count_ones(&self) -> u32;

    /// Number of one bits strictly below position `i` (i.e. in `[0, i)`).
    fn rank(&self, i: u32) -> u32;

    /// Number of one bits in `[a, b)`.
    #[inline]
    fn rank_range(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a <= b && b <= Self::BITS);
        self.rank(b) - self.rank(a)
    }

    /// Inserts a zero bit at `pos`: bits in `[pos, BITS-1)` move up one
    /// position, the former top bit is discarded, and bit `pos` becomes 0.
    ///
    /// HCBF guarantees the discarded bit is always zero (capacity is checked
    /// before inserting); [`Word::is_zero_from`] lets callers verify.
    fn insert_zero(&mut self, pos: u32);

    /// Removes the bit at `pos`: bits in `(pos, BITS)` move down one
    /// position and the top bit becomes 0.
    fn remove_bit(&mut self, pos: u32);

    /// True if every bit in `[pos, BITS)` is zero.
    fn is_zero_from(&self, pos: u32) -> bool;

    /// Position of the highest set bit, if any.
    fn highest_set_bit(&self) -> Option<u32>;

    /// Total number of bits in use, i.e. `highest_set_bit() + 1` (0 if none).
    #[inline]
    fn used_bits(&self) -> u32 {
        self.highest_set_bit().map_or(0, |b| b + 1)
    }
}

macro_rules! impl_word_for_prim {
    ($($t:ty),* $(,)?) => {$(
        impl Word for $t {
            const BITS: u32 = <$t>::BITS;

            #[inline]
            fn zero() -> Self { 0 }

            #[inline]
            fn mask_below(i: u32) -> Self {
                // Branch-free for every in-range i: both shifts stay in
                // 0..BITS. The compare handles the i == BITS saturation
                // the old `(1 << i) - 1` form could not express.
                if i >= Self::BITS {
                    <$t>::MAX
                } else {
                    (<$t>::MAX >> 1) >> (Self::BITS - 1 - i)
                }
            }

            #[inline]
            fn bit(&self, i: u32) -> bool {
                debug_assert!(i < Self::BITS);
                (self >> i) & 1 == 1
            }

            #[inline]
            fn set_bit(&mut self, i: u32) {
                debug_assert!(i < Self::BITS);
                *self |= 1 << i;
            }

            #[inline]
            fn clear_bit(&mut self, i: u32) {
                debug_assert!(i < Self::BITS);
                *self &= !(1 << i);
            }

            #[inline]
            fn count_ones(&self) -> u32 {
                <$t>::count_ones(*self)
            }

            #[inline]
            fn rank(&self, i: u32) -> u32 {
                (*self & Self::mask_below(i)).count_ones()
            }

            #[inline]
            fn rank_range(&self, a: u32, b: u32) -> u32 {
                debug_assert!(a <= b && b <= Self::BITS);
                if a >= Self::BITS {
                    // Only reachable as the empty range [BITS, BITS).
                    return 0;
                }
                ((*self >> a) & Self::mask_below(b - a)).count_ones()
            }

            #[inline]
            fn insert_zero(&mut self, pos: u32) {
                debug_assert!(pos < Self::BITS);
                let low = *self & Self::mask_below(pos);
                *self = ((*self ^ low) << 1) | low;
            }

            #[inline]
            fn remove_bit(&mut self, pos: u32) {
                debug_assert!(pos < Self::BITS);
                let low_mask = Self::mask_below(pos);
                let low = *self & low_mask;
                *self = ((*self >> 1) & !low_mask) | low;
            }

            #[inline]
            fn is_zero_from(&self, pos: u32) -> bool {
                debug_assert!(pos <= Self::BITS);
                *self & !Self::mask_below(pos) == 0
            }

            #[inline]
            fn highest_set_bit(&self) -> Option<u32> {
                if *self == 0 {
                    None
                } else {
                    Some(Self::BITS - 1 - self.leading_zeros())
                }
            }
        }
    )*};
}

impl_word_for_prim!(u16, u32, u64, u128);

#[cfg(test)]
mod tests {
    use super::*;

    fn check_basic<W: Word>() {
        let mut w = W::zero();
        assert_eq!(w.count_ones(), 0);
        assert_eq!(w.highest_set_bit(), None);
        assert!(w.is_zero_from(0));

        w.set_bit(0);
        w.set_bit(W::BITS - 1);
        w.set_bit(W::BITS / 2);
        assert!(w.bit(0) && w.bit(W::BITS - 1) && w.bit(W::BITS / 2));
        assert_eq!(w.count_ones(), 3);
        assert_eq!(w.highest_set_bit(), Some(W::BITS - 1));
        assert_eq!(w.used_bits(), W::BITS);
        assert_eq!(w.rank(W::BITS), 3);
        assert_eq!(w.rank(1), 1);
        assert_eq!(w.rank_range(1, W::BITS - 1), 1);

        w.clear_bit(W::BITS / 2);
        assert_eq!(w.count_ones(), 2);
        assert!(!w.bit(W::BITS / 2));
    }

    #[test]
    fn basic_ops_all_widths() {
        check_basic::<u16>();
        check_basic::<u32>();
        check_basic::<u64>();
        check_basic::<u128>();
    }

    fn check_mask_below<W: Word>() {
        assert_eq!(W::mask_below(0), W::zero());
        for i in 0..=W::BITS {
            let mask = W::mask_below(i);
            assert_eq!(mask.count_ones(), i, "popcount of mask_below({i})");
            assert!(mask.is_zero_from(i), "mask_below({i}) has high bits");
        }
        // Saturation beyond the width.
        assert_eq!(W::mask_below(W::BITS + 1), W::mask_below(W::BITS));
        assert_eq!(W::mask_below(u32::MAX), W::mask_below(W::BITS));
    }

    #[test]
    fn mask_below_all_widths() {
        check_mask_below::<u16>();
        check_mask_below::<u32>();
        check_mask_below::<u64>();
        check_mask_below::<u128>();
    }

    #[test]
    fn mask_below_u64_full_range() {
        assert_eq!(mask_below_u64(0), 0);
        assert_eq!(mask_below_u64(1), 1);
        assert_eq!(mask_below_u64(63), u64::MAX >> 1);
        assert_eq!(mask_below_u64(64), u64::MAX);
        assert_eq!(mask_below_u64(200), u64::MAX);
        for i in 0..=64u32 {
            assert_eq!(mask_below_u64(i), u64::mask_below(i));
        }
    }

    fn check_insert_remove_roundtrip<W: Word>() {
        // Build a pattern, insert a zero everywhere, remove it, compare.
        let mut base = W::zero();
        for i in (0..W::BITS).step_by(3) {
            base.set_bit(i);
        }
        // Keep the top bit clear so insert_zero loses nothing.
        base.clear_bit(W::BITS - 1);
        for pos in 0..W::BITS - 1 {
            let mut w = base;
            w.insert_zero(pos);
            assert!(!w.bit(pos), "inserted bit must be zero at {pos}");
            w.remove_bit(pos);
            assert_eq!(w, base, "round-trip failed at pos {pos}");
        }
    }

    #[test]
    fn insert_remove_roundtrip_all_widths() {
        check_insert_remove_roundtrip::<u16>();
        check_insert_remove_roundtrip::<u32>();
        check_insert_remove_roundtrip::<u64>();
        check_insert_remove_roundtrip::<u128>();
    }

    #[test]
    fn insert_zero_shifts_tail_up() {
        let mut w: u64 = 0b1011;
        w.insert_zero(1);
        assert_eq!(w, 0b10101);
        let mut w: u64 = 0b1;
        w.insert_zero(0);
        assert_eq!(w, 0b10);
    }

    #[test]
    fn remove_bit_shifts_tail_down() {
        let mut w: u64 = 0b10101;
        w.remove_bit(1);
        assert_eq!(w, 0b1011);
        let mut w: u64 = 0b10;
        w.remove_bit(0);
        assert_eq!(w, 0b1);
    }

    #[test]
    fn rank_is_prefix_popcount() {
        let w: u64 = 0b1101_0110;
        assert_eq!(w.rank(0), 0);
        assert_eq!(w.rank(1), 0);
        assert_eq!(w.rank(2), 1);
        assert_eq!(w.rank(3), 2);
        assert_eq!(w.rank(8), 5);
        assert_eq!(w.rank(64), 5);
    }

    #[test]
    fn is_zero_from_boundaries() {
        let mut w = u32::zero();
        w.set_bit(5);
        assert!(!w.is_zero_from(0));
        assert!(!w.is_zero_from(5));
        assert!(w.is_zero_from(6));
        assert!(w.is_zero_from(32));
    }

    #[test]
    fn insert_zero_at_top_discards() {
        let mut w: u16 = 0xFFFF;
        w.insert_zero(15);
        assert_eq!(w, 0x7FFF); // top bit replaced by the inserted zero
    }
}
