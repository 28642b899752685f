//! Bit-level storage substrate for the MPCBF workspace.
//!
//! The paper's data structures are all bit-packed arrays with word-granular
//! access patterns:
//!
//! * the standard Bloom filter is an `m`-bit vector ([`BitVec`]);
//! * the standard CBF is a vector of `m` packed `c`-bit counters
//!   ([`CounterVec`], `c = 4` in the paper);
//! * PCBF/MPCBF partition their storage into machine words, and MPCBF's
//!   HCBF additionally performs *in-word bit insertion and removal with
//!   shifting* (§III.B.1: "insert a 0 at position popcount(e) of the next
//!   level … and shift right the bits at the positions larger than
//!   popcount(e)").
//!
//! The [`Word`] trait captures exactly the in-word operations HCBF needs —
//! bit test/set/clear, ranked popcounts, and shifting insert/remove — and is
//! implemented for `u16`/`u32`/`u64`/`u128` plus arbitrary-width
//! [`wide::WideWord`]s built from 64-bit limbs, so the harness can sweep the
//! paper's word sizes (w = 16…64 in the figures) and beyond (256/512-bit
//! cache-line words).
//!
//! The crate is safe Rust except for one tightly-scoped module,
//! [`aligned`] (cache-line-aligned allocation), whose blocks carry
//! per-block safety comments; everything else compiles to the obvious
//! mask-and-shift instruction sequences.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aligned;
pub mod bitvec;
pub mod counters;
pub mod wide;
pub mod word;

pub use crate::aligned::{advise_huge_slice, AlignedVec, CACHE_LINE_BYTES};
pub use crate::bitvec::BitVec;
pub use crate::counters::CounterVec;
pub use crate::wide::WideWord;
pub use crate::word::Word;

/// 256-bit word (four 64-bit limbs): a common cache-line-quarter size.
pub type W256 = WideWord<4>;
/// 512-bit word (eight 64-bit limbs): one full cache line.
pub type W512 = WideWord<8>;
