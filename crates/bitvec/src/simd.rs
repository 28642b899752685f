//! Hardware kernels for the full-image integrity passes, chosen once at
//! run time.
//!
//! Two passes touch every byte of a filter image: its CRC-32 (every
//! checkpoint, cold start, WAL frame and scrub seal) and the per-word
//! invariant check of a load. Baseline x86-64 has no carry-less multiply,
//! no POPCNT and no LZCNT, so the portable code runs a table CRC and a
//! SWAR popcount. This module runs both passes with those instructions
//! when the CPU has them:
//!
//! * [`crc32_clmul`] folds 16-byte blocks with PCLMULQDQ: the method of
//!   Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction" (Intel, 2009), bit-identical to the table CRC;
//! * [`all_words`] is one safe fold over a run of words, compiled twice:
//!   for baseline x86-64 ([`all_words_portable`]) and with AVX2, POPCNT
//!   and LZCNT enabled ([`all_words_avx2`]).
//!
//! There is nothing to configure. The CPU is asked once per process
//! (`is_x86_feature_detected!` runs CPUID on first use and caches the
//! answer in a static), and every other CPU and target takes the portable
//! path. Each path is a public function, so tests run the kernel and its
//! fallback side by side on every x86-64 machine that has the kernel.
//!
//! # Safety
//!
//! Besides `aligned`, this is the only module of the crate with `unsafe`.
//! It is needed for two things:
//!
//! 1. calling a `#[target_feature]` function, which is undefined
//!    behaviour on a CPU without the features it enables. Every such call
//!    sits in a safe function, right after `is_x86_feature_detected!` has
//!    confirmed each feature the callee enables;
//! 2. the CRC kernel's unaligned 16-byte loads, each from a 16-byte
//!    chunk of the caller's slice.

#![allow(unsafe_code)]

/// The CRC-32 (reflected IEEE polynomial, zlib's `crc32`) of `data`,
/// continued from the finished CRC `crc` (0 to start), by carry-less
/// multiply folding. `None` when the CPU lacks PCLMULQDQ or SSE4.1, or
/// when `data` is not a whole number of 16-byte blocks, at least four of
/// them: the caller then runs its table CRC over the same bytes.
pub fn crc32_clmul(crc: u32, data: &[u8]) -> Option<u32> {
    if data.len() < 64 || !data.len().is_multiple_of(16) {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: the CPU has PCLMULQDQ and SSE4.1, every feature
        // `clmul::fold` enables (detected just above).
        return Some(unsafe { clmul::fold(crc, data) });
    }
    let _ = crc; // unused off x86-64
    None
}

/// Whether `holds` is true of every little-endian `u64` in `bytes` (a
/// whole number of 8-byte words; a trailing partial word is ignored).
/// Every word is tested, with no early exit, so the loop has no
/// data-dependent branch and vectorizes. Runs [`all_words_avx2`] when the
/// CPU has it and [`all_words_portable`] otherwise; both give the same
/// answer.
#[inline]
pub fn all_words<F: Fn(u64) -> bool>(bytes: &[u8], holds: F) -> bool {
    match all_words_avx2(bytes, &holds) {
        Some(all) => all,
        None => all_words_portable(bytes, holds),
    }
}

/// [`all_words`] built for baseline x86-64 (or whatever the target's
/// default is): the fallback, and the reference its twin is tested
/// against.
#[inline]
pub fn all_words_portable<F: Fn(u64) -> bool>(bytes: &[u8], holds: F) -> bool {
    fold_words(bytes, &holds)
}

/// [`all_words`] built with AVX2, POPCNT and LZCNT enabled (the same
/// source as [`all_words_portable`]), or `None` when the CPU lacks one of
/// them or the target is not x86-64.
#[inline]
pub fn all_words_avx2<F: Fn(u64) -> bool>(bytes: &[u8], holds: F) -> Option<bool> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("popcnt")
        && is_x86_feature_detected!("lzcnt")
    {
        // SAFETY: the CPU has AVX2, POPCNT and LZCNT, every feature
        // `fold_words_avx2` enables (detected just above).
        return Some(unsafe { fold_words_avx2(bytes, &holds) });
    }
    let _ = (bytes, holds); // unused off x86-64
    None
}

/// The one body of both word folds: `holds` of each word, joined by a
/// branch-free `&`.
#[inline(always)]
fn fold_words<F: Fn(u64) -> bool>(bytes: &[u8], holds: &F) -> bool {
    bytes.chunks_exact(8).fold(true, |all, word| {
        all & holds(u64::from_le_bytes(word.try_into().expect("8 bytes")))
    })
}

/// [`fold_words`] compiled with AVX2, POPCNT and LZCNT enabled.
///
/// # Safety
/// The CPU must have AVX2, POPCNT and LZCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt,lzcnt")]
unsafe fn fold_words_avx2<F: Fn(u64) -> bool>(bytes: &[u8], holds: &F) -> bool {
    fold_words(bytes, holds)
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial 0xEDB88320, each
    // x^n mod P(x) bit-reflected and shifted left by one.
    /// Fold by four blocks: x^(4·128+32) and x^(4·128−32) mod P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by one block: x^(128+32) and x^(128−32) mod P.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64-bit reduction: x^64 mod P.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: P(x) itself and μ = ⌊x^64 / P(x)⌋.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// PCLMULQDQ folding CRC of `data` continued from the finished CRC
    /// `crc`: four 128-bit lanes fold 64 bytes per step, then merge into
    /// one, which takes any remaining 16-byte blocks; one 128 → 64-bit
    /// step and a Barrett reduction then leave the 32-bit CRC. `data`
    /// must be a whole number of 16-byte blocks, at least four (it panics
    /// on fewer; a trailing partial block is ignored).
    ///
    /// # Safety
    /// The CPU must have PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        /// `acc` carried 128 bits (one block, `k` = K3/K4) or 512 bits
        /// (four, `k` = K1/K2) further, then `next` added in.
        macro_rules! fold {
            ($acc:expr, $next:expr, $k:expr) => {{
                let (acc, k) = ($acc, $k);
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128(acc, k, 0x00),
                        _mm_clmulepi64_si128(acc, k, 0x11),
                    ),
                    $next,
                )
            }};
        }
        let (head, rest) = data.split_at(64);
        let mut quads = rest.chunks_exact(64);
        // SAFETY: the caller guarantees PCLMULQDQ and SSE4.1 (this
        // function's contract), the only features beyond baseline x86-64
        // these intrinsics use. Each load reads `b[..16]`, which the
        // slice index has bounds-checked.
        unsafe {
            let load = |b: &[u8]| _mm_loadu_si128(b[..16].as_ptr().cast::<__m128i>());
            let mut x = [0, 16, 32, 48].map(|at| load(&head[at..]));
            x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!crc as i32));
            let k1k2 = _mm_set_epi64x(K2, K1);
            for quad in &mut quads {
                for (lane, at) in x.iter_mut().zip([0, 16, 32, 48]) {
                    *lane = fold!(*lane, load(&quad[at..]), k1k2);
                }
            }
            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut acc = fold!(x[0], x[1], k3k4);
            acc = fold!(acc, x[2], k3k4);
            acc = fold!(acc, x[3], k3k4);
            for block in quads.remainder().chunks_exact(16) {
                acc = fold!(acc, load(block), k3k4);
            }
            // 128 → 64 bits, then Barrett down to 32 (the bit-reflected
            // variant, so the CRC is the upper half of the low 64 bits).
            let low32 = _mm_set_epi32(0, 0, 0, !0);
            let acc = _mm_xor_si128(
                _mm_clmulepi64_si128(acc, k3k4, 0x10),
                _mm_srli_si128(acc, 8),
            );
            let acc = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
                _mm_srli_si128(acc, 4),
            );
            let pmu = _mm_set_epi64x(MU, P_X);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
            !(_mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reflected IEEE CRC-32, continued from `crc`.
    fn crc32_bitwise(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            })
            .collect()
    }

    fn has_clmul() -> bool {
        cfg!(target_arch = "x86_64") && crc32_clmul(0, &[0; 64]).is_some()
    }

    #[test]
    fn clmul_crc_matches_the_bitwise_crc() {
        if !has_clmul() {
            return;
        }
        let data = bytes(4096 + 16, 7);
        assert_eq!(
            crc32_clmul(
                0,
                b"123456789123456789123456789123456789123456789123456789123456789x"
            ),
            Some(crc32_bitwise(
                0,
                b"123456789123456789123456789123456789123456789123456789123456789x"
            ))
        );
        for offset in 0..16 {
            for len in (64..=4096).step_by(16) {
                let window = &data[offset..offset + len];
                for crc in [0, 0xCBF4_3926, !0] {
                    assert_eq!(
                        crc32_clmul(crc, window),
                        Some(crc32_bitwise(crc, window)),
                        "{offset}+{len} from {crc:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn clmul_crc_declines_what_it_cannot_fold() {
        let data = bytes(200, 3);
        for len in [0, 16, 48, 63, 65, 79, 129, 199] {
            assert_eq!(crc32_clmul(0, &data[..len]), None, "{len}");
        }
    }

    #[test]
    fn both_word_folds_equal_all() {
        let data = bytes(8 * 200 + 5, 11);
        let holds = |w: u64| w.count_ones() < 40 && w.leading_zeros() > 0;
        for len in 0..=data.len() {
            let words = &data[..len];
            let all = words
                .chunks_exact(8)
                .all(|w| holds(u64::from_le_bytes(w.try_into().unwrap())));
            assert_eq!(all_words_portable(words, holds), all, "{len}");
            assert_eq!(all_words(words, holds), all, "{len}");
            if let Some(avx2) = all_words_avx2(words, holds) {
                assert_eq!(avx2, all, "{len}");
            }
        }
    }
}
