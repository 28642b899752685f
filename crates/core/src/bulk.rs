//! Streaming bulk build: cache-bucketed staging for billion-key ingest.
//!
//! The scalar insert path pays one *random* read-modify-write per probed
//! word. While the filter fits in cache that is the paper's one-access
//! ideal; past L3 it becomes a DRAM-latency (and, on virtual machines, a
//! page-walk) wall — every key stalls on a cold line. This module
//! rebuilds construction as a **staging pipeline** that converts those
//! random writes into near-linear memory traffic:
//!
//! ```text
//! key ─hash─▶ entry ─▶ L1 bucket ─▶ L2 bucket ─▶ L3 region ─▶ sweep
//!             (u64)     (hot, 32KB)   (2MB)        (3–8 B entries)
//! ```
//!
//! * **L1**: up to 64 buckets of 64 entries, indexed by the high bits of
//!   the target word — appends land in a cache-resident array.
//! * **L2**: up to 64 coarser buckets of 4096 entries. A full L1 bucket
//!   is spilled into its enclosing L2 bucket with one contiguous copy.
//! * **L3**: one bucket per *region* (an aligned range of `2^s3` words,
//!   from `2^12` to `2^15` by shape, so the region's words occupy at most
//!   256 KB and stay cache-resident during a sweep), all striped through
//!   one flat lazily-faulted byte slab. A full L2 bucket is
//!   split-appended by region; a full region bucket is **flushed** as
//!   one sweep over the region's words.
//!
//! # Packed entries
//!
//! A slot index is below `b1`, so it takes `⌈log₂ b1⌉` bits (§III of the
//! paper: a word's first level has `b1` slots). L1 and L2 entries carry
//! the absolute target word: one `u64` `word ‖ slots`, or a
//! `(word, slots)` pair of them when the slots fill most of a `u64`. An
//! L3 bucket's region is implicit in the bucket, so its entries carry
//! only the word's offset in the region, `(word − base) ‖ slots`, in the
//! fewest whole bytes, three to eight, that hold the slots and an offset
//! into a region of at least `2^12` words; the region is then the widest,
//! up to `2^15` words, that those bytes leave room for:
//!
//! | staging | slots | slab per entry | region |
//! |---|---|---|---|
//! | deferred, `k = 3`, `8 < b1 ≤ 16` (MPCBF-1 at 16 bits/key) | 12 bits | 3 B (one key) | `2^12` words |
//! | deferred, `k = 3`, `16 < b1 ≤ 32` | 15 bits | 4 B (one key) | `2^15` words |
//! | deferred, `k = 3`, `b1 > 32` (the served shapes, `b1` = 43, 37) | 18 bits | 4 B (one key) | `2^14` words |
//! | deferred, `k ≤ 2` | `≤ 12` bits | 3 B (one key) | `2^12`–`2^15` words |
//! | deferred, `4 ≤ k ≤ 8` | `k⌈log₂ b1⌉` bits | 3–8 B (one key) | `2^12`–`2^15` words |
//! | admitted | `⌈log₂ b1⌉ ≤ 6` bits | 3 B (one probe) | `2^15` words |
//!
//! The slab is one byte buffer, read and written as unaligned
//! little-endian `u64`s masked to the entry width, so one code path
//! serves every width. Each region bucket is followed by `8 − width` pad
//! bytes: the 8-byte store of its last entry then ends in its own pad,
//! not in the next bucket's first entries. A region is never wider than
//! the array, so a small array may pack tighter. A deferred shape whose
//! slots leave fewer than 12 offset bits even in eight bytes (`k ≥ 9` at
//! six-bit slots, unless the whole array is that narrow) stages admitted
//! instead.
//!
//! # Memory budget
//!
//! Given the expected key count, a region bucket holds `μ + 8·√(cμ) +
//! 64` entries, where `μ` is the region's expected share of the staged
//! entries and `c` the entries one key drops into one word (1 when
//! deferred, `⌈k/g⌉` when admitted). A region's count is (compound)
//! Poisson with variance `cμ`, so the bucket sits eight standard
//! deviations above the mean: every region buckets *all* of its entries
//! and sweeps once, onto still-empty words. The slab is then the staged
//! entries plus a few percent — for MPCBF-1, 3 B per key at the CLI's
//! default 16 bits/key (`b1 ≤ 16`) and 4 B above `b1 = 16` (see the
//! table above). The 10 M-key build of 2.5 M words stages 611 regions of
//! 17,472 three-byte entries, 30.5 MiB. A bucket that overflows anyway
//! (pushes past the hint) only flushes early: speed is lost, never
//! exactness.
//!
//! The slab and the word array are never fully resident together. The
//! slab is zero-allocated, so a bucket's pages fault in as its entries
//! arrive, and each region's job hands its bucket's pages back to the
//! kernel ([`release_pages`]) as soon as the region is swept. The word
//! array is a [`LazyVec`] chunked by region: a region's words are first
//! touched by the sweep (or mid-stream flush) that builds them, and only
//! the regions no key reached are filled at the end. So while the finish
//! runs, slab pages leave as word pages arrive, and a build peaks at
//! about `max(filter, staged entries)` — `max(l × 8 B, 3 B × keys)` for
//! MPCBF-1 at 16 bits/key — plus the L1/L2 buckets (about 2 MB per
//! stage, freed as soon as the finish has drained them) and one sweep
//! scratch per thread, rather than the sum of the two.
//!
//! The sweep itself has two tiers. A region's *first* sweep lands on
//! words nothing has written, so it skips incremental increments
//! entirely: `construct_entries` histograms each word's slot counts
//! (arrival order, exact admission bookkeeping) and then writes each
//! word's canonical encoding in one pass — the words are written once,
//! sequentially, never read. A region swept *again* (its bucket
//! overflowed mid-stream — only when pushes exceed the sizing hint) is
//! dirty, and `apply_entries` replays its entries in arrival order
//! through a statically inlined counter walk. No sort in that walk:
//! within a region every word access is a cache hit anyway, and arrival
//! order keeps same-word entries apart so their dependent walks
//! overlap.
//!
//! # Why sweeps preserve HCBF semantics
//!
//! Two facts about [`HcbfWord`] make out-of-order application exact:
//!
//! 1. **Every increment costs exactly one bit** (`used_bits = b1 +
//!    popcount`), so a word accepts increments while `total_count + need
//!    ≤ W::BITS − b1`. Whether a *sequential* insert succeeds therefore
//!    depends only on per-word running totals, never on bit layout — and
//!    the all-or-nothing rollback erases refused keys entirely.
//! 2. **The word encoding is canonical in the counter multiset**: any
//!    order of admitted increments produces bit-identical words.
//!
//! So it suffices to reproduce the sequential *admission decisions*; the
//! increments themselves may then be applied in any order. Two staging
//! modes cover all shapes:
//!
//! * **Deferred** (`g == 1`, see the table above): a key stages one
//!   packed entry `word ‖ k×slot` and admission is decided *at flush
//!   time* from the word's running total. This is exact because every
//!   bucket level preserves per-word arrival order (each word travels one
//!   FIFO bucket chain), and with `g = 1` admission is word-local.
//! * **Admitted** (`g ≥ 2`, or when the caller must learn refusals at
//!   push time, e.g. the resilient spill): a per-word occupancy array
//!   decides admission *at push time* in global arrival order — the exact
//!   sequential criterion "every distinct probed word still fits the
//!   key's whole need" — and only admitted probes are staged, so flushes
//!   apply unconditionally in any order.
//!
//! Refused keys count one `overflow` each, admitted keys one item, both
//! identical to the scalar loop — the `bulk_equivalence` suite pins
//! bit-for-bit equality across all three filter families.
//!
//! # Parallel finish
//!
//! [`BulkStage::finish_with`] drains L1/L2 into L3 and hands the caller
//! disjoint [`RegionJob`]s — each owns a region's slab bucket *and* the
//! region's chunk of the word array — so an executor (see
//! `mpcbf-concurrent`) can run regions on scoped threads with no locks
//! and no false sharing. Regions are independent even in deferred mode
//! because admission is word-local there.
//!
//! # Pipelined ingest
//!
//! A key's digest depends on the key and the seed alone, so only the
//! staging push needs the builder. `mpcbf-concurrent`'s `ingest` (what
//! `mpcbf build --bulk` runs) splits the streaming phase in two: the
//! calling thread generates or reads keys and hashes them into chunks of
//! 8 Ki digests, and one helper thread stages the chunks in stream order
//! through [`BulkBuilder::push_digests`], the two joined by a bounded
//! channel of four recycled chunk buffers (512 KiB). Every stage still
//! receives its digests in arrival order, so the build is bit-identical
//! at any thread count; with one thread, or for a build that expects
//! fewer than 512 Ki keys (where the helper thread's fixed 0.2 MiB would
//! outweigh the milliseconds it saves), the same chunk loop stages
//! inline. On the `batch-mix-dram` preload (6.4 M keys into 8 shards,
//! 2-vCPU x86-64 VM) the serial phase measured, each part timed alone:
//! key generation about 70 ms, hashing about 75 ms, routing and staging
//! about 175 ms. Overlapped, the phase costs about what staging does.
//! Staging itself is memory-bound and stays on one thread: split across
//! two by shard, it ran no faster (193–206 ms against 177–240 ms alone).

use crate::config::MpcbfConfig;
use crate::hcbf::HcbfWord;
use crate::mpcbf::Mpcbf;
use crate::resilient::ResilientMpcbf;
use crate::{split_hashes, GROUP_SALT, WORD_SALT};
use mpcbf_bitvec::{advise_huge_slice, release_pages, AlignedVec, LazyChunk, LazyVec};
use mpcbf_hash::{DoubleHasher, Hasher128, Murmur3};
use std::marker::PhantomData;

/// L1 geometry: up to `2^L1_REGION_BITS` hot buckets of `L1_CAP`
/// `u64`s — 64 × 64 × 8 B = 32 KB flat, sized to stay resident in L1d
/// so the per-key append never leaves the first cache level.
const L1_REGION_BITS: u32 = 6;
const L1_CAP: usize = 64;

/// L2 geometry: up to `2^L2_REGION_BITS` buckets of `L2_CAP` `u64`s.
const L2_REGION_BITS: u32 = 6;
const L2_CAP: usize = 4096;

/// L3 regions span at most `2^L3_REGION_BITS` words (a 256 KB window
/// of the filter), so every word a flush's sweep probes stays resident
/// in L2 — and each L2-bucket spill fans out over few region tails,
/// keeping the append streams long and TLB-friendly on huge builds.
const L3_REGION_BITS: u32 = 15;

/// The narrowest region an entry may use (unless the whole array is
/// narrower): below it the per-region bucket slack and the spill
/// fan-out outweigh the saved byte, and the stage widens the entry
/// instead.
const L3_MIN_REGION_BITS: u32 = 12;

/// Bounds on an L3 entry's width in bytes. The slab is read and written
/// as unaligned little-endian `u64`s, so an entry is at most eight
/// bytes; three already hold an admitted probe over the widest region.
const ENTRY_MIN_BYTES: u32 = 3;
const ENTRY_MAX_BYTES: u32 = 8;

/// Fallback region-bucket density (staged entries per region word) when
/// the caller gives no expected-key hint. [`BulkStage::with_expected`]
/// sizes each bucket off the region's expected entries instead (see the
/// module docs), so that in the common case a region buckets *every*
/// one of its entries and flushes exactly once — onto still-empty
/// words, where the sweep can construct each word directly instead of
/// walking increments (see `construct_entries`). A bucket that does
/// overflow mid-stream flushes early and its region falls back to the
/// incremental walk; only speed is lost, never exactness.
const L3_MIN_DENSITY: u64 = 2;

/// Ceiling on a hinted bucket's expected entries per region word: a
/// word admits fewer than 64 increments, so a larger expectation can
/// only stage entries that will be refused.
const L3_MAX_DENSITY: u64 = 64;

/// Standard deviations of head-room above a region's expected count.
const L3_SIGMAS: f64 = 8.0;

/// Entries of slack every hinted bucket carries on top, so small
/// regions (few expected entries, large relative spread) stay covered.
const L3_SLACK: u64 = 64;

/// Staging counters (spill/flush activity; admission totals live on the
/// built filter as `items()` / `overflows()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Keys pushed into the builder.
    pub keys: u64,
    /// Full L1 buckets spilled into L2.
    pub l1_spills: u64,
    /// Full L2 buckets split-appended into L3 regions.
    pub l2_spills: u64,
    /// Region sweeps executed (mid-stream and final).
    pub flushes: u64,
}

/// How a stage packs and applies its entries (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Packing {
    /// `Some(k)` in deferred mode, where an entry carries a whole key's
    /// `k` slots; `None` in admitted mode (one admitted probe per entry).
    deferred: Option<u32>,
    /// Bits of one in-word slot index: `⌈log₂ b1⌉`.
    slot_width: u32,
    /// Slot bits below an entry's word field: `k` slots deferred, one
    /// admitted.
    slot_bits: u32,
    /// `u64`s per L1/L2 entry: 1, or 2 when `word ‖ slots` overflows one.
    stride: usize,
    /// Bytes per L3 entry, `ENTRY_MIN_BYTES..=ENTRY_MAX_BYTES`.
    width: usize,
    /// `log₂` of the region width (`s3`).
    region_bits: u32,
    b1: u32,
    /// Increment capacity of one word: `64 − b1`.
    cap: u32,
}

impl Packing {
    /// Deferred packing when `defer` is asked for, `g == 1` and a key's
    /// slots fit an entry of at most [`ENTRY_MAX_BYTES`] over a region of
    /// at least `2^L3_MIN_REGION_BITS` words (or the whole array);
    /// admitted packing otherwise. Either way the entry takes the fewest
    /// whole bytes that hold its slots and such a region, and the region
    /// is the widest those bytes leave room for.
    fn new(l: u64, k: u32, g: u32, b1: u32, defer: bool) -> Self {
        let wb = index_bits(l);
        let slot_width = index_bits(u64::from(b1));
        // At least one offset bit, so no shift below spans a whole `u64`.
        let floor = wb.clamp(1, L3_MIN_REGION_BITS);
        let fit = |deferred: Option<u32>, slot_bits: u32| {
            let bytes = (ENTRY_MIN_BYTES..=ENTRY_MAX_BYTES).find(|b| 8 * b >= slot_bits + floor)?;
            Some(Packing {
                deferred,
                slot_width,
                slot_bits,
                stride: if slot_bits + wb < 64 { 1 } else { 2 },
                width: bytes as usize,
                region_bits: (8 * bytes - slot_bits).min(L3_REGION_BITS).min(wb),
                b1,
                cap: 64 - b1,
            })
        };
        let deferred = if defer && g == 1 {
            fit(Some(k), slot_width * k)
        } else {
            None
        };
        deferred
            .or_else(|| fit(None, slot_width))
            .expect("one slot and the widest region fit the narrowest entry")
    }

    /// Mask of one slot index within an entry.
    fn slot_mask(&self) -> u64 {
        (1 << self.slot_width) - 1
    }

    /// Mask of one entry's bytes within an 8-byte slab read.
    fn entry_mask(&self) -> u64 {
        u64::MAX >> (64 - 8 * self.width)
    }

    /// Zero bytes after each region bucket, so the 8-byte store of its
    /// last entry ends inside the bucket's own allocation instead of in
    /// the next bucket's first entries.
    fn pad(&self) -> usize {
        ENTRY_MAX_BYTES as usize - self.width
    }

    /// Slab bytes of a bucket holding `cap` entries, its pad included.
    fn bucket_bytes(&self, cap: usize) -> usize {
        cap * self.width + self.pad()
    }
}

/// Stores `entry` at byte `at` of a slab bucket as one unaligned 8-byte
/// write. The bytes past the entry's width are zeroed: they belong to
/// later entries, not yet appended, or to the bucket's pad.
#[inline(always)]
fn put_entry(bucket: &mut [u8], at: usize, entry: u64) {
    bucket[at..at + 8].copy_from_slice(&entry.to_le_bytes());
}

/// The first `len` entries of a slab bucket, `offset ‖ slots` each.
#[inline(always)]
fn entries(bucket: &[u8], len: usize, pack: Packing) -> impl Iterator<Item = u64> + '_ {
    let mask = pack.entry_mask();
    bucket
        .windows(8)
        .step_by(pack.width)
        .take(len)
        .map(move |w| u64::from_le_bytes(w.try_into().expect("8-byte window")) & mask)
}

/// The staging hierarchy over one word array: routes packed probe
/// entries through L1/L2/L3 cache buckets and flushes full regions as
/// cache-resident sweeps.
///
/// This is the building block shared by [`BulkBuilder`] (one `Mpcbf`
/// word array) and the sharded builder in `mpcbf-concurrent` (one stage
/// per shard sub-filter). The stage owns its word array, a [`LazyVec`]
/// chunked by region: push keys, finish once ([`BulkStage::finish`] or
/// [`BulkStage::finish_with`]), then take the words with
/// [`BulkStage::into_words`].
pub struct BulkStage {
    l: u64,
    k: u32,
    g: u32,
    pack: Packing,
    /// Admitted mode: per-word increments admitted so far (empty when
    /// deferred).
    admit: Vec<u8>,
    /// Region shifts: `word >> sN` = bucket index at level N (`s3` is
    /// `pack.region_bits`).
    s1: u32,
    s2: u32,
    l1: Vec<u64>,
    l1_len: Vec<u8>,
    l2: Vec<u64>,
    l2_len: Vec<u16>,
    /// One flat hugepage-advised byte slab holding every region bucket
    /// at a fixed stride of `pack.bucket_bytes(l3_cap)` bytes: bucket
    /// `r3` holds its `l3_len[r3]` entries of `pack.width` bytes each,
    /// then its pad. Flat beats a vec-of-vecs twice over: the zeroed
    /// allocation is faulted in lazily, and one `madvise(MADV_HUGEPAGE)`
    /// covers all the tails — the random appends of the L2 split are
    /// exactly the access pattern 4 KB pages punish with a TLB miss each.
    /// A plain `Vec`, deliberately: `vec![0u8; n]` rides `calloc`'s
    /// untouched zero pages, where a cache-aligned allocation would
    /// eagerly `memset` the worst-case gigabytes (see
    /// [`advise_huge_slice`]).
    l3: Vec<u8>,
    l3_len: Vec<u32>,
    /// Bucket stride: the capacity of every full-width region.
    l3_cap: usize,
    /// Capacity of the last region, which may be narrower than `2^s3`.
    l3_last_cap: usize,
    /// The word array, one chunk per region. A chunk not yet initialised
    /// is a region never swept: its words are still all-empty, so its
    /// first sweep may *construct* them from slot histograms; a swept
    /// region must take the incremental walk.
    words: LazyVec<HcbfWord<u64>>,
    /// Histogram scratch reused across this stage's own sweeps.
    scratch: SweepScratch,
    items: u64,
    refused: u64,
    stats: BulkStats,
}

/// Bits needed to index `l` words (0 for `l == 1`).
fn index_bits(l: u64) -> u32 {
    64 - (l - 1).leading_zeros()
}

impl BulkStage {
    /// A stage over an `l`-word array with the given probe shape,
    /// picking deferred staging when the shape allows it.
    ///
    /// # Panics
    /// Panics if `l` is not in `1..=2^32`, `k` or `g` are out of the
    /// planner's range, or `b1` is not in `1..64`.
    pub fn new(l: u64, k: u32, g: u32, b1: u32) -> Self {
        Self::with_packing(l, k, g, b1, true, None)
    }

    /// [`BulkStage::new`] with region buckets sized for `expected` keys:
    /// each holds its region's expected entries plus eight standard
    /// deviations and 64 entries of slack (see the module docs), so a
    /// region ingests its whole share without a mid-stream flush and the
    /// final sweep lands on still-empty words, unlocking direct word
    /// construction (see `construct_entries`).
    pub fn with_expected(l: u64, k: u32, g: u32, b1: u32, expected: u64) -> Self {
        Self::with_packing(l, k, g, b1, true, Some(expected))
    }

    /// A stage that always decides admission at push time, for callers
    /// that must observe refusals per key (the resilient spill path).
    pub fn admitted(l: u64, k: u32, g: u32, b1: u32) -> Self {
        Self::with_packing(l, k, g, b1, false, None)
    }

    /// [`BulkStage::admitted`] with expectation-sized region buckets
    /// (`k` staged probes per key — admitted entries carry one probe
    /// each, unlike the one-entry-per-key deferred packing).
    pub fn admitted_with_expected(l: u64, k: u32, g: u32, b1: u32, expected: u64) -> Self {
        Self::with_packing(l, k, g, b1, false, Some(expected))
    }

    /// `expected`: the keys expected over the whole array, or `None` for
    /// the unhinted [`L3_MIN_DENSITY`] buckets.
    fn with_packing(l: u64, k: u32, g: u32, b1: u32, defer: bool, expected: Option<u64>) -> Self {
        assert!((1..=1 << 32).contains(&l), "word count {l} out of 1..=2^32");
        assert!((1..=64).contains(&k) && g >= 1 && g <= k, "probe shape");
        assert!((1..64).contains(&b1), "b1 = {b1} out of 1..64");
        let pack = Packing::new(l, k, g, b1, defer);
        let wb = index_bits(l);
        let s1 = wb.saturating_sub(L1_REGION_BITS);
        let s2 = wb.saturating_sub(L2_REGION_BITS);
        let s3 = pack.region_bits;
        let r1 = l.div_ceil(1 << s1) as usize;
        let r2 = l.div_ceil(1 << s2) as usize;
        let r3 = l.div_ceil(1 << s3) as usize;
        // A deferred entry carries a whole key; an admitted one a probe.
        let entries = expected.map(|keys| match pack.deferred {
            Some(_) => keys,
            None => keys.saturating_mul(u64::from(k)),
        });
        // Entries one key drops into one word: the cluster size of the
        // compound-Poisson region count.
        let cluster = if pack.deferred.is_some() {
            1
        } else {
            k.div_ceil(g)
        };
        let bucket = |words: u64| -> usize {
            let Some(entries) = entries else {
                return (L3_MIN_DENSITY * words) as usize;
            };
            let mu =
                (entries as f64 * words as f64 / l as f64).min((L3_MAX_DENSITY * words) as f64);
            let spread = L3_SIGMAS * (f64::from(cluster) * mu).sqrt();
            (mu + spread).ceil() as usize + L3_SLACK as usize
        };
        let l3_cap = bucket(1 << s3);
        let l3_last_cap = bucket(l - ((r3 as u64 - 1) << s3));
        BulkStage {
            l,
            k,
            g,
            admit: match pack.deferred {
                Some(_) => Vec::new(),
                None => vec![0u8; l as usize],
            },
            pack,
            s1,
            s2,
            l1: vec![0; r1 * L1_CAP],
            l1_len: vec![0; r1],
            l2: vec![0; r2 * L2_CAP],
            l2_len: vec![0; r2],
            l3: {
                let bytes = (r3 - 1) * pack.bucket_bytes(l3_cap) + pack.bucket_bytes(l3_last_cap);
                let mut slab = vec![0u8; bytes];
                advise_huge_slice(&mut slab);
                slab
            },
            l3_len: vec![0; r3],
            l3_cap,
            l3_last_cap,
            words: LazyVec::new(l as usize, 1 << s3, HcbfWord::new()),
            scratch: SweepScratch::new(),
            items: 0,
            refused: 0,
            stats: BulkStats::default(),
        }
    }

    /// True when admission is decided at flush time.
    pub fn is_deferred(&self) -> bool {
        self.pack.deferred.is_some()
    }

    /// Words per staging region (the last region may be narrower): the
    /// span one sweep covers.
    pub fn region_words(&self) -> u64 {
        1 << self.pack.region_bits
    }

    /// Bytes one staged entry takes in the region buckets (see *Packed
    /// entries* in the module docs).
    pub fn entry_bytes(&self) -> usize {
        self.pack.width
    }

    /// Keys admitted so far. Exact only after the stage is drained
    /// (deferred refusals are discovered at flush time).
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Keys refused so far (same caveat as [`BulkStage::items`]).
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Spill/flush counters.
    pub fn stats(&self) -> BulkStats {
        self.stats
    }

    /// Hashes and stages one probe digest (the full 128-bit digest for a
    /// plain filter, the low 112 bits for a shard sub-filter). Returns
    /// `false` iff the key was refused — only ever at push time in
    /// admitted mode; deferred mode always returns `true` and tallies
    /// refusals during flushes.
    #[inline]
    pub fn push_digest(&mut self, digest: u128) -> bool {
        self.stats.keys += 1;
        let mut picker = DoubleHasher::with_salt(digest, WORD_SALT, self.l);
        if self.is_deferred() {
            let word = picker.next_index() as u64;
            let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT, u64::from(self.pack.b1));
            let mut slots = 0u64;
            for j in 0..self.k {
                slots |= (inner.next_index() as u64) << (self.pack.slot_width * j);
            }
            self.route(word, slots);
            true
        } else {
            let mut probe_words = [0u32; 64];
            let mut slots = [0u32; 64];
            let mut cursor = 0usize;
            for t in 0..self.g {
                let word = picker.next_index() as u32;
                let k_t = split_hashes(self.k, self.g, t);
                let mut inner = DoubleHasher::with_salt(
                    digest,
                    GROUP_SALT ^ u64::from(t),
                    u64::from(self.pack.b1),
                );
                for _ in 0..k_t {
                    probe_words[cursor] = word;
                    slots[cursor] = inner.next_index() as u32;
                    cursor += 1;
                }
            }
            self.stage_admitted(&probe_words[..cursor], &slots[..cursor])
        }
    }

    /// Hashes and stages a whole chunk of probe digests, returning how
    /// many were admitted so far (see [`BulkStage::push_digest`] for the
    /// deferred-mode caveat). Behaves exactly like pushing each digest
    /// singly, but keeps the deferred hot loop inside one call — the
    /// per-key entry point costs a cross-crate call per key, which at
    /// streaming rates is a measurable fraction of the budget.
    pub fn push_digests(&mut self, digests: &[u128]) -> u64 {
        if !self.is_deferred() {
            let mut admitted = 0u64;
            for &digest in digests {
                admitted += u64::from(self.push_digest(digest));
            }
            return admitted;
        }
        self.stats.keys += digests.len() as u64;
        let b1 = u64::from(self.pack.b1);
        let sw = self.pack.slot_width;
        if self.k == 3 {
            // Unrolled MPCBF-1 shape: three probe draws, no slot loop.
            for &digest in digests {
                let mut picker = DoubleHasher::with_salt(digest, WORD_SALT, self.l);
                let word = picker.next_index() as u64;
                let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT, b1);
                let slots = (inner.next_index() as u64)
                    | ((inner.next_index() as u64) << sw)
                    | ((inner.next_index() as u64) << (2 * sw));
                self.route(word, slots);
            }
        } else {
            for &digest in digests {
                let mut picker = DoubleHasher::with_salt(digest, WORD_SALT, self.l);
                let word = picker.next_index() as u64;
                let mut inner = DoubleHasher::with_salt(digest, GROUP_SALT, b1);
                let mut slots = 0u64;
                for j in 0..self.k {
                    slots |= (inner.next_index() as u64) << (sw * j);
                }
                self.route(word, slots);
            }
        }
        digests.len() as u64
    }

    /// Stages one pre-planned key: `plan_words` are its `g` target words
    /// and `slots` its `k` in-word positions, both in
    /// [`PlanBuffer`](crate::plan::PlanBuffer) layout (group `t` owns the next
    /// `split_hashes(k, g, t)` slots). Same contract as
    /// [`BulkStage::push_digest`].
    #[inline]
    pub fn push_planned(&mut self, plan_words: &[u32], slots: &[u32]) -> bool {
        debug_assert_eq!(plan_words.len(), self.g as usize);
        debug_assert_eq!(slots.len(), self.k as usize);
        self.stats.keys += 1;
        if self.is_deferred() {
            let mut packed = 0u64;
            for (j, &slot) in slots.iter().enumerate() {
                packed |= u64::from(slot) << (self.pack.slot_width * j as u32);
            }
            self.route(u64::from(plan_words[0]), packed);
            true
        } else {
            let mut probe_words = [0u32; 64];
            let mut cursor = 0usize;
            for t in 0..self.g {
                let k_t = split_hashes(self.k, self.g, t);
                for _ in 0..k_t {
                    probe_words[cursor] = plan_words[t as usize];
                    cursor += 1;
                }
            }
            self.stage_admitted(&probe_words[..cursor], slots)
        }
    }

    /// Admitted-mode admission: the key needs `probe_words.iter().count()`
    /// increments spread over its distinct words; admit iff every
    /// distinct word still has room for its whole share — exactly the
    /// sequential criterion (rollback makes partial application
    /// unobservable, and each increment costs one bit).
    fn stage_admitted(&mut self, probe_words: &[u32], slots: &[u32]) -> bool {
        // Per-distinct-word need (k ≤ 64, g typically ≤ 4 — a scan wins).
        let mut distinct = [0u32; 64];
        let mut need = [0u8; 64];
        let mut n = 0usize;
        for &w in probe_words {
            match distinct[..n].iter().position(|&d| d == w) {
                Some(i) => need[i] += 1,
                None => {
                    distinct[n] = w;
                    need[n] = 1;
                    n += 1;
                }
            }
        }
        for i in 0..n {
            if u32::from(self.admit[distinct[i] as usize]) + u32::from(need[i]) > self.pack.cap {
                self.refused += 1;
                return false;
            }
        }
        for i in 0..n {
            self.admit[distinct[i] as usize] += need[i];
        }
        self.items += 1;
        for (&w, &slot) in probe_words.iter().zip(slots) {
            self.route(u64::from(w), u64::from(slot));
        }
        true
    }

    /// Appends one entry — target `word`, packed `slots` — to its L1
    /// bucket, spilling on overflow.
    #[inline]
    fn route(&mut self, word: u64, slots: u64) {
        let r1 = (word >> self.s1) as usize;
        let len = self.l1_len[r1] as usize;
        let at = r1 * L1_CAP + len;
        let len = if self.pack.stride == 1 {
            self.l1[at] = (word << self.pack.slot_bits) | slots;
            len + 1
        } else {
            self.l1[at] = word;
            self.l1[at + 1] = slots;
            len + 2
        };
        self.l1_len[r1] = len as u8;
        if len == L1_CAP {
            self.spill_l1(r1);
        }
    }

    /// Copies L1 bucket `r1` into its enclosing L2 bucket (one
    /// contiguous move; `s2 ≥ s1` makes the destination unique).
    /// Out-of-line: runs once per `L1_CAP` pushes — keeping it out of
    /// the inlined hot path lets the append loop stay tight.
    #[inline(never)]
    fn spill_l1(&mut self, r1: usize) {
        let n = self.l1_len[r1] as usize;
        if n == 0 {
            return;
        }
        self.stats.l1_spills += 1;
        let r2 = r1 >> (self.s2 - self.s1);
        if self.l2_len[r2] as usize + n > L2_CAP {
            self.spill_l2(r2);
        }
        let dst = r2 * L2_CAP + self.l2_len[r2] as usize;
        let src = r1 * L1_CAP;
        self.l2[dst..dst + n].copy_from_slice(&self.l1[src..src + n]);
        self.l2_len[r2] += n as u16;
        self.l1_len[r1] = 0;
    }

    /// Splits L2 bucket `r2` into its regions' L3 buckets, flushing any
    /// region bucket that fills.
    fn spill_l2(&mut self, r2: usize) {
        let n = self.l2_len[r2] as usize;
        if n == 0 {
            return;
        }
        self.stats.l2_spills += 1;
        let Packing {
            slot_bits,
            region_bits,
            stride,
            ..
        } = self.pack;
        let low = slot_bits + region_bits;
        let start = r2 * L2_CAP;
        let last = self.l3_len.len() - 1;
        for i in (start..start + n).step_by(stride) {
            // Re-pack as a region-relative entry, `offset ‖ slots`.
            let (r3, entry) = if stride == 1 {
                // `word ‖ slots`: the region is the top of the word, and
                // the region-relative entry is what lies below it.
                let e = self.l2[i];
                ((e >> low) as usize, e & ((1 << low) - 1))
            } else {
                let (word, slots) = (self.l2[i], self.l2[i + 1]);
                let offset = word & ((1 << region_bits) - 1);
                (
                    (word >> region_bits) as usize,
                    (offset << slot_bits) | slots,
                )
            };
            let len = self.l3_len[r3] as usize;
            self.put_l3(r3, len, entry);
            let cap = if r3 == last {
                self.l3_last_cap
            } else {
                self.l3_cap
            };
            if len + 1 == cap {
                self.flush_region(r3);
            }
        }
        self.l2_len[r2] = 0;
    }

    /// Writes `entry` as the `i`-th of region `r3`'s bucket and counts
    /// it staged.
    #[inline(always)]
    fn put_l3(&mut self, r3: usize, i: usize, entry: u64) {
        let at = r3 * self.pack.bucket_bytes(self.l3_cap) + i * self.pack.width;
        put_entry(&mut self.l3, at, entry);
        self.l3_len[r3] = (i + 1) as u32;
    }

    /// Applies region `r3`'s staged entries mid-stream as one
    /// cache-resident sweep (its bucket filled before the finish).
    fn flush_region(&mut self, r3: usize) {
        let len = self.l3_len[r3] as usize;
        self.stats.flushes += 1;
        let start = r3 * self.pack.bucket_bytes(self.l3_cap);
        let (items, refused) = sweep(
            &self.l3[start..],
            len,
            &mut self.words.chunk_mut(r3),
            self.pack,
            &mut self.scratch,
        );
        self.items += items;
        self.refused += refused;
        self.l3_len[r3] = 0;
    }

    /// Drains every bucket level and sweeps every region on the calling
    /// thread, completing the build. See [`BulkStage::finish_with`].
    pub fn finish(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.finish_with(|jobs| {
            for job in jobs {
                job.run_with(&mut scratch);
            }
        });
    }

    /// Drains L1 and L2 into the region buckets and frees them, then
    /// hands `exec` one [`RegionJob`] per non-empty region and folds the
    /// jobs' admission tallies back. Jobs own disjoint slab buckets and
    /// word chunks and may run on different threads; `exec` must run each
    /// exactly once. The slab is freed afterwards (each job has already
    /// handed its bucket's pages back), so the stage holds nothing but
    /// its words: take them with [`BulkStage::into_words`]. A second
    /// finish does nothing; pushing after a finish panics.
    pub fn finish_with(&mut self, exec: impl FnOnce(&mut [RegionJob<'_>])) {
        if self.l1.is_empty() {
            return; // already finished (a live stage has an L1 bucket)
        }
        for r1 in 0..self.l1_len.len() {
            self.spill_l1(r1);
        }
        for r2 in 0..self.l2_len.len() {
            self.spill_l2(r2);
        }
        // Nothing routes through L1/L2 again: hand their buffers (about
        // 2 MB) back before the sweeps start touching words.
        self.l1 = Vec::new();
        self.l1_len = Vec::new();
        self.l2 = Vec::new();
        self.l2_len = Vec::new();
        self.admit = Vec::new();
        self.scratch = SweepScratch::new();
        let (pack, l3_cap, l3_last_cap) = (self.pack, self.l3_cap, self.l3_last_cap);
        let last = self.l3_len.len() - 1;
        let mut jobs = Vec::new();
        let mut slab = self.l3.as_mut_slice();
        for (r3, region) in self.words.chunks_mut().enumerate() {
            let cap = if r3 == last { l3_last_cap } else { l3_cap };
            let (bucket, rest) = std::mem::take(&mut slab).split_at_mut(pack.bucket_bytes(cap));
            slab = rest;
            let len = std::mem::take(&mut self.l3_len[r3]) as usize;
            if len == 0 {
                continue;
            }
            self.stats.flushes += 1;
            jobs.push(RegionJob {
                bucket,
                len,
                region,
                pack,
                items: 0,
                refused: 0,
            });
        }
        exec(&mut jobs);
        for job in &jobs {
            self.items += job.items;
            self.refused += job.refused;
        }
        drop(jobs);
        self.l3 = Vec::new();
    }

    /// The built word array: regions no key reached are filled empty now.
    pub fn into_words(self) -> AlignedVec<HcbfWord<u64>> {
        self.words.into_filled()
    }
}

/// One region's final sweep, detached from the stage so an executor can
/// run disjoint regions on scoped threads: owns the region's slab bucket
/// and its chunk of the word array.
pub struct RegionJob<'w> {
    /// The region's whole bucket, pad included; its first `len` entries
    /// are staged.
    bucket: &'w mut [u8],
    len: usize,
    region: LazyChunk<'w, HcbfWord<u64>>,
    pack: Packing,
    /// Keys admitted by this sweep (deferred mode only).
    pub items: u64,
    /// Keys refused by this sweep (deferred mode only).
    pub refused: u64,
}

impl RegionJob<'_> {
    /// Staged entries this job will apply.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the job has nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Applies the region's entries. Idempotence is *not* provided —
    /// run once.
    pub fn run(&mut self) {
        self.run_with(&mut SweepScratch::new());
    }

    /// [`RegionJob::run`] with caller-owned histogram scratch, so an
    /// executor draining many jobs on one thread allocates it once. The
    /// bucket's pages go back to the kernel as soon as the sweep is done.
    pub fn run_with(&mut self, scratch: &mut SweepScratch) {
        let (items, refused) = sweep(self.bucket, self.len, &mut self.region, self.pack, scratch);
        self.items += items;
        self.refused += refused;
        self.len = 0;
        release_pages(self.bucket);
    }
}

/// One region's sweep over the first `len` entries of `bucket`: direct
/// word construction when the region was never swept (its words are not
/// even written yet), the incremental walk otherwise. Returns the
/// (items, refused) admission tally.
fn sweep(
    bucket: &[u8],
    len: usize,
    region: &mut LazyChunk<'_, HcbfWord<u64>>,
    pack: Packing,
    scratch: &mut SweepScratch,
) -> (u64, u64) {
    let entries = entries(bucket, len, pack);
    if region.is_init() {
        apply_entries(entries, len, region.get_or_fill(), pack)
    } else {
        construct_entries(entries, region, pack, scratch)
    }
}

/// Applies `entries` to their region in staged (arrival) order as one
/// cache-resident sweep, returning the (items, refused) admission tally
/// — nonzero only in deferred mode, where each entry is one whole key
/// and admission is decided here against the word's running total. The
/// bucket hierarchy appends FIFO at every level, so a bucket holds each
/// word's entries in arrival order and the tally matches the scalar
/// loop exactly. No sort: the region spans at most `2^L3_REGION_BITS`
/// words, small enough that every probed word stays cache-hot, and
/// applying in bucket order lets the walks of neighbouring entries
/// overlap (sorting by word was measured slower — it puts same-word
/// entries back to back, serialising their dependent hierarchy walks,
/// and pays three extra passes over the entries to boot).
fn apply_entries(
    entries: impl Iterator<Item = u64>,
    len: usize,
    region: &mut [HcbfWord<u64>],
    pack: Packing,
) -> (u64, u64) {
    let Packing {
        slot_width: sw,
        slot_bits,
        b1,
        cap,
        ..
    } = pack;
    let mask = pack.slot_mask();
    let mut items = 0u64;
    let mut refused = 0u64;
    // Warm the region's cachelines with one linear pass before the
    // random-order sweep: the words have been cold since this region's
    // previous flush, and a bandwidth-bound stream beats ~one
    // latency-bound DRAM miss per line scattered through the sweep.
    // (One load per 64-byte line; `black_box` keeps the pass alive.)
    if len >= region.len() / 4 {
        let mut warm = 0u64;
        for word in region.iter().step_by(8) {
            warm ^= u64::from(word.total_count());
        }
        std::hint::black_box(warm);
    }
    match pack.deferred {
        // `k == 3` is the classic MPCBF-1 shape (and the bench config);
        // unrolling it drops the per-slot loop counter and lets the
        // three dependent walks schedule as straight-line code.
        Some(3) => {
            for e in entries {
                let w = (e >> slot_bits) as usize;
                // Work on a register-held copy: the `k` dependent walks
                // then never round-trip through the store buffer.
                let mut word = region[w];
                if word.total_count() + 3 > cap {
                    refused += 1;
                    continue;
                }
                word.increment((e & mask) as u32, b1)
                    .expect("capacity checked against the running total");
                word.increment(((e >> sw) & mask) as u32, b1)
                    .expect("capacity checked against the running total");
                word.increment(((e >> (2 * sw)) & mask) as u32, b1)
                    .expect("capacity checked against the running total");
                region[w] = word;
                items += 1;
            }
        }
        Some(k) => {
            for e in entries {
                let w = (e >> slot_bits) as usize;
                let mut word = region[w];
                if word.total_count() + k > cap {
                    refused += 1;
                    continue;
                }
                for j in 0..k {
                    let slot = ((e >> (sw * j)) & mask) as u32;
                    word.increment(slot, b1)
                        .expect("capacity checked against the running total");
                }
                region[w] = word;
                items += 1;
            }
        }
        None => {
            for e in entries {
                let w = (e >> slot_bits) as usize;
                let slot = (e & mask) as u32;
                region[w]
                    .increment(slot, b1)
                    .expect("entry was admitted at push time");
            }
        }
    }
    (items, refused)
}

/// Reusable per-thread scratch for `construct_entries`: slot histograms
/// for every word of one region — 64 B of counts per word (73 B with
/// the totals and masks), so 0.3 MiB at the `2^12`-word regions of
/// MPCBF-1 at 16 bits/key, 1.2 MiB at `2^14` words and 2.3 MiB at the
/// widest, `2^15`; cache-resident through a sweep. Kept all-zero between
/// sweeps: the serialisation pass re-zeroes exactly the rows it
/// consumed, so reuse costs nothing. Executors allocate one per thread.
#[derive(Default)]
pub struct SweepScratch {
    /// Per word: running increment total (admission bookkeeping).
    totals: Vec<u8>,
    /// Per word: bitmap of touched slots. A word's 64 slot counts span
    /// exactly one cache line, and the bitmap lets serialisation visit
    /// only the populated ones.
    mask: Vec<u64>,
    /// Per word × 64 slots: the count histogram (counts ≤ `cap` < 64).
    counts: Vec<u8>,
}

impl SweepScratch {
    /// Empty scratch; grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, words: usize) {
        if self.totals.len() < words {
            self.totals.resize(words, 0);
            self.mask.resize(words, 0);
            self.counts.resize(words * 64, 0);
        }
    }
}

/// `apply_entries` for a region **never swept** (its words not yet
/// written): instead of walking `k` dependent carried-rank increments
/// per key, histogram the slot counts per word and write each word's
/// canonical encoding in one serialisation pass — the pass that first
/// initialises the region's chunk of the word array.
///
/// Exactness rests on the same two invariants as the walk (see the
/// module docs): admission depends only on per-word running totals —
/// reproduced here entry-by-entry in arrival order — and the HCBF word
/// encoding is canonical in the counter multiset, so building the final
/// multiset directly yields bit-identical words. The encoding itself
/// follows the level layout: level 1 is the slot bitmap; level `j ≥ 2`
/// holds one bit per chain that reached depth `j − 1`, in ascending
/// slot order (children are allocated in rank order, which inductively
/// preserves slot order), set iff the chain continues to depth `j`.
///
/// The payoff over the walk is structural: the entry pass touches three
/// resident scratch lines per key instead of executing ~`k` serial
/// 20-to-40-cycle rank walks, and the region's words are *written once,
/// sequentially* — never read, never warmed, never filled beforehand.
fn construct_entries(
    entries: impl Iterator<Item = u64>,
    region: &mut LazyChunk<'_, HcbfWord<u64>>,
    pack: Packing,
    scratch: &mut SweepScratch,
) -> (u64, u64) {
    let Packing {
        slot_width: sw,
        slot_bits,
        b1,
        cap,
        ..
    } = pack;
    let slot = pack.slot_mask();
    scratch.ensure(region.len());
    let SweepScratch {
        totals,
        mask,
        counts,
    } = scratch;
    let mut items = 0u64;
    let mut refused = 0u64;
    match pack.deferred {
        // The unrolled MPCBF-1 shape, mirroring `apply_entries`.
        Some(3) => {
            for e in entries {
                let w = (e >> slot_bits) as usize;
                let t = u32::from(totals[w]);
                if t + 3 > cap {
                    refused += 1;
                    continue;
                }
                totals[w] = (t + 3) as u8;
                items += 1;
                let (s0, s1, s2) = (
                    (e & slot) as usize,
                    ((e >> sw) & slot) as usize,
                    ((e >> (2 * sw)) & slot) as usize,
                );
                let row = w * 64;
                counts[row + s0] += 1;
                counts[row + s1] += 1;
                counts[row + s2] += 1;
                mask[w] |= (1 << s0) | (1 << s1) | (1 << s2);
            }
        }
        Some(k) => {
            for e in entries {
                let w = (e >> slot_bits) as usize;
                let t = u32::from(totals[w]);
                if t + k > cap {
                    refused += 1;
                    continue;
                }
                totals[w] = (t + k) as u8;
                items += 1;
                let row = w * 64;
                for j in 0..k {
                    let s = ((e >> (sw * j)) & slot) as usize;
                    counts[row + s] += 1;
                    mask[w] |= 1 << s;
                }
            }
        }
        // Admitted mode: one pre-admitted probe per entry, no tally.
        None => {
            for e in entries {
                let w = (e >> slot_bits) as usize;
                let s = (e & slot) as usize;
                counts[w * 64 + s] += 1;
                mask[w] |= 1 << s;
            }
        }
    }
    // Serialise: one sequential pass writing every word of the region,
    // re-zeroing the populated words' scratch rows behind itself.
    region.get_or_init_with(|w| {
        let m = mask[w];
        if m == 0 {
            return HcbfWord::new();
        }
        mask[w] = 0;
        totals[w] = 0;
        let row = w * 64;
        // Chains in ascending slot order, consuming the histogram.
        let mut chain = [0u8; 64];
        let mut n = 0usize;
        let mut rest = m;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            chain[n] = counts[row + s];
            counts[row + s] = 0;
            n += 1;
            rest &= rest - 1;
        }
        // Level 1 is the slot bitmap itself; level j ≥ 2 appends one
        // bit per chain of depth ≥ j − 1, set iff depth ≥ j.
        let mut bits = m;
        let mut pos = b1;
        let mut j = 2u8;
        while n > 0 {
            let mut kept = 0usize;
            for i in 0..n {
                let c = chain[i];
                if c >= j {
                    bits |= 1 << pos;
                    chain[kept] = c;
                    kept += 1;
                }
                pos += 1;
            }
            n = kept;
            j += 1;
        }
        HcbfWord::from_raw(bits)
    });
    (items, refused)
}

/// Streaming bulk builder for [`Mpcbf`]: push keys (singly or in
/// batches), then [`BulkBuilder::finish`] into a filter bit-for-bit
/// identical to a scalar insert loop over the same key stream.
///
/// ```
/// use mpcbf_core::{BulkBuilder, MpcbfConfig};
///
/// let config = MpcbfConfig::builder()
///     .memory_bits(1 << 20)
///     .expected_items(10_000)
///     .hashes(3)
///     .build()
///     .unwrap();
/// let mut builder: BulkBuilder = BulkBuilder::new(config);
/// for i in 0..10_000u64 {
///     builder.push(&i.to_le_bytes());
/// }
/// let filter = builder.finish();
/// // Every key is accounted for: admitted or (rarely) refused by a
/// // full word — exactly as the scalar insert loop would tally them.
/// assert_eq!(filter.items() + filter.overflows(), 10_000);
/// ```
pub struct BulkBuilder<H: Hasher128 = Murmur3> {
    config: MpcbfConfig,
    seed: u64,
    stage: BulkStage,
    _hasher: PhantomData<H>,
}

impl<H: Hasher128> BulkBuilder<H> {
    /// A builder for the configuration's shape (64-bit words).
    ///
    /// # Panics
    /// Panics if the configuration derives a non-64-bit word.
    pub fn new(config: MpcbfConfig) -> Self {
        let expected = config.expected_items();
        Self::with_stage(config, |s| {
            BulkStage::with_expected(s.0, s.1, s.2, s.3, expected)
        })
    }

    /// A builder whose stage always resolves admission at push time (the
    /// resilient bulk path needs per-key refusal feedback).
    fn admitted(config: MpcbfConfig) -> Self {
        let expected = config.expected_items();
        Self::with_stage(config, |s| {
            BulkStage::admitted_with_expected(s.0, s.1, s.2, s.3, expected)
        })
    }

    fn with_stage(
        config: MpcbfConfig,
        make: impl FnOnce((u64, u32, u32, u32)) -> BulkStage,
    ) -> Self {
        let shape = config.shape();
        assert_eq!(shape.w, 64, "bulk build requires 64-bit words");
        BulkBuilder {
            seed: config.seed(),
            stage: make((shape.l, shape.k, shape.g, shape.b1)),
            config,
            _hasher: PhantomData,
        }
    }

    /// Stages one key. Returns `false` iff the key is already known to
    /// be refused (admitted-mode stages only; deferred stages tally
    /// refusals at flush time and always return `true` here).
    pub fn push(&mut self, key: &[u8]) -> bool {
        let digest = H::hash128(self.seed, key);
        self.stage.push_digest(digest)
    }

    /// Stages a chunk of pre-hashed keys (each digest is
    /// `H::hash128(seed, key)`, see [`BulkBuilder::config`]) through the
    /// tight digest loop; the entry point of the pipelined ingest in
    /// `mpcbf-concurrent`, which hashes on another thread.
    pub fn push_digests(&mut self, digests: &[u128]) {
        self.stage.push_digests(digests);
    }

    /// The configuration being built: its seed digests the keys.
    pub fn config(&self) -> MpcbfConfig {
        self.config
    }

    /// Staging counters so far.
    pub fn stats(&self) -> BulkStats {
        self.stage.stats()
    }

    /// True when this builder's stage defers admission to flush time
    /// (see [`BulkStage::is_deferred`]).
    pub fn is_deferred(&self) -> bool {
        self.stage.is_deferred()
    }

    /// Completes the build on the calling thread.
    pub fn finish(mut self) -> Mpcbf<u64, H> {
        self.stage.finish();
        self.into_filter()
    }

    /// Completes the build through a caller-supplied executor: the
    /// closure receives one [`RegionJob`] per non-empty region (disjoint
    /// word slices — safe to run on scoped threads) and must run each
    /// exactly once. `mpcbf-concurrent` provides the threaded executor.
    pub fn finish_with(mut self, exec: impl for<'w> FnOnce(&mut [RegionJob<'w>])) -> Mpcbf<u64, H> {
        self.stage.finish_with(exec);
        self.into_filter()
    }

    /// The filter around the finished stage's words.
    fn into_filter(self) -> Mpcbf<u64, H> {
        let (items, refused) = (self.stage.items(), self.stage.refused());
        Mpcbf::from_words(self.config, self.stage.into_words(), items, refused)
    }
}

/// Bulk builder for [`ResilientMpcbf`]: keys the main shape refuses are
/// spilled losslessly at push time (gate + exact map), in arrival order,
/// exactly as the scalar resilient insert would.
pub struct ResilientBulkBuilder<H: Hasher128 = Murmur3> {
    builder: BulkBuilder<H>,
    resilient: ResilientMpcbf<H>,
}

impl<H: Hasher128> ResilientBulkBuilder<H> {
    /// A builder for the configuration's shape.
    pub fn new(config: MpcbfConfig) -> Self {
        ResilientBulkBuilder {
            builder: BulkBuilder::admitted(config),
            resilient: ResilientMpcbf::new(config),
        }
    }

    /// Stages one key; a refused key is spilled immediately (the build
    /// is lossless — this never fails).
    pub fn push(&mut self, key: &[u8]) {
        if !self.builder.push(key) {
            self.resilient.bulk_spill_insert(key);
        }
    }

    /// Staging counters so far.
    pub fn stats(&self) -> BulkStats {
        self.builder.stats()
    }

    /// Completes the build on the calling thread.
    pub fn finish(self) -> ResilientMpcbf<H> {
        let ResilientBulkBuilder {
            builder,
            mut resilient,
        } = self;
        resilient.bulk_replace_main(builder.finish());
        resilient
    }

    /// Completes the build through a caller-supplied executor (see
    /// [`BulkBuilder::finish_with`]).
    pub fn finish_with(self, exec: impl for<'w> FnOnce(&mut [RegionJob<'w>])) -> ResilientMpcbf<H> {
        let ResilientBulkBuilder {
            builder,
            mut resilient,
        } = self;
        resilient.bulk_replace_main(builder.finish_with(exec));
        resilient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Filter;

    fn config(memory: u64, items: u64, k: u32, g: u32, seed: u64) -> MpcbfConfig {
        MpcbfConfig::builder()
            .memory_bits(memory)
            .expected_items(items)
            .hashes(k)
            .accesses(g)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn keys(n: u64, salt: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("bulk-{salt}-{i}").into_bytes())
            .collect()
    }

    #[test]
    fn deferred_mode_selected_for_g1() {
        let c = config(1 << 20, 10_000, 3, 1, 7);
        let b: BulkBuilder = BulkBuilder::new(c);
        assert!(b.stage.is_deferred());
        let c = config(1 << 20, 10_000, 3, 2, 7);
        let b: BulkBuilder = BulkBuilder::new(c);
        assert!(!b.stage.is_deferred());
    }

    #[test]
    fn bulk_equals_sequential_g1() {
        let c = config(1 << 20, 50_000, 3, 1, 11);
        let keys = keys(50_000, 1);
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.overflows(), seq.overflows());
    }

    #[test]
    fn bulk_equals_sequential_g2_with_overflow_pressure() {
        // A deliberately overfull shape so refusals actually occur.
        let c = config(4_096, 600, 4, 2, 3);
        let keys = keys(600, 2);
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert!(seq.overflows() > 0, "test premise: shape must saturate");
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.overflows(), seq.overflows());
    }

    #[test]
    fn resilient_bulk_is_lossless() {
        // Push past the configured capacity so the spill path engages.
        let c = config(2_048, 400, 3, 1, 9);
        let keys = keys(1_200, 4);
        let mut seq: ResilientMpcbf = ResilientMpcbf::new(c);
        for k in &keys {
            seq.insert_bytes(k).unwrap();
        }
        let mut bulk: ResilientBulkBuilder = ResilientBulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert!(seq.spilled_inserts() > 0, "test premise: must spill");
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.spilled_inserts(), seq.spilled_inserts());
        assert_eq!(built.spill_occupancy(), seq.spill_occupancy());
        assert_eq!(built.main().raw_words(), seq.main().raw_words());
        for k in &keys {
            assert!(built.contains_bytes(k), "lost a key in bulk build");
        }
    }

    #[test]
    fn duplicate_keys_mid_stream() {
        let c = config(8_192, 1_000, 3, 1, 13);
        let mut keys = keys(500, 5);
        // Interleave a hot key 200 times.
        for i in 0..200 {
            keys.insert(i * 2, b"hot-key".to_vec());
        }
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        let built = bulk.finish();
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.overflows(), seq.overflows());
    }

    /// Splitmix-style scrambler for deterministic pseudo-random tests.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// One region's bucket for `pack`, as staged: `offset ‖ slots`
    /// entries of `pack.width` bytes, then the pad.
    fn encode(entries: &[(u64, u64)], pack: Packing) -> Vec<u8> {
        let mut bucket = vec![0; pack.bucket_bytes(entries.len())];
        for (i, &(offset, slots)) in entries.iter().enumerate() {
            let e = (offset << pack.slot_bits) | slots;
            assert_eq!(e & pack.entry_mask(), e, "entry overflows its bytes");
            put_entry(&mut bucket, i * pack.width, e);
        }
        bucket
    }

    /// Sweeps `len` entries of `bucket` over a fresh `rw`-word region —
    /// constructed — and over an already-filled one — walked; returns
    /// both results.
    #[allow(clippy::type_complexity)]
    fn construct_and_walk(
        bucket: &[u8],
        len: usize,
        rw: usize,
        pack: Packing,
        scratch: &mut SweepScratch,
    ) -> (
        (u64, u64, Vec<HcbfWord<u64>>),
        (u64, u64, Vec<HcbfWord<u64>>),
    ) {
        let mut fresh = LazyVec::new(rw, rw, HcbfWord::new());
        let (ci, cr) = sweep(bucket, len, &mut fresh.chunk_mut(0), pack, scratch);
        let mut filled = LazyVec::new(rw, rw, HcbfWord::new());
        let mut chunk = filled.chunk_mut(0);
        chunk.get_or_fill();
        let (wi, wr) = sweep(bucket, len, &mut chunk, pack, scratch);
        (
            (ci, cr, fresh.into_filled().to_vec()),
            (wi, wr, filled.into_filled().to_vec()),
        )
    }

    #[test]
    fn construct_matches_walk_on_fresh_regions() {
        // Differential: on a never-swept region, the histogram
        // construction must emit bit-identical words and tallies to the
        // incremental walk, including under overflow pressure — at every
        // entry width from the narrowest that holds the shape to eight
        // bytes.
        for (k, b1, rw, n) in [
            (3u32, 55u32, 64usize, 2_000usize),
            (3, 16, 32, 1_200),
            (4, 40, 16, 1_500),
            (1, 60, 8, 400),
            (8, 2, 4, 300),
        ] {
            let sw = index_bits(u64::from(b1));
            let keys: Vec<(u64, u64)> = (0..n)
                .map(|i| {
                    let r = mix(i as u64 ^ u64::from(k) << 32);
                    let mut slots = 0;
                    for j in 0..k {
                        slots |= ((r >> (8 + 6 * j)) % u64::from(b1)) << (sw * j);
                    }
                    (r % rw as u64, slots)
                })
                .collect();
            let region_bits = index_bits(rw as u64);
            let narrowest = (k * sw + region_bits).div_ceil(8).max(ENTRY_MIN_BYTES);
            for width in narrowest..=ENTRY_MAX_BYTES {
                let pack = Packing {
                    deferred: Some(k),
                    slot_width: sw,
                    slot_bits: sw * k,
                    stride: 1,
                    width: width as usize,
                    region_bits,
                    b1,
                    cap: 64 - b1,
                };
                let bucket = encode(&keys, pack);
                let mut scratch = SweepScratch::new();
                let (built, walked) = construct_and_walk(&bucket, n, rw, pack, &mut scratch);
                assert_eq!(built, walked, "diverged (k={k}, b1={b1}, width={width})");
                // Scratch self-cleans: a second, different sweep through
                // the same scratch must stay exact.
                let half = encode(&keys[..n / 2], pack);
                let (built, walked) = construct_and_walk(&half, n / 2, rw, pack, &mut scratch);
                assert_eq!(built, walked, "reused scratch diverged (k={k}, b1={b1})");
            }
        }
    }

    #[test]
    fn construct_matches_walk_in_admitted_mode() {
        let b1 = 50u32;
        let rw = 32usize;
        // Admitted-mode entries: one probe each, pre-admitted — cap the
        // per-word load below capacity while generating.
        let mut load = vec![0u32; rw];
        let mut probes = Vec::new();
        for i in 0..4_000u64 {
            let r = mix(i);
            let w = (r % rw as u64) as usize;
            if load[w] + 1 > 64 - b1 {
                continue;
            }
            load[w] += 1;
            probes.push((w as u64, (r >> 8) % u64::from(b1)));
        }
        let pack = Packing::new(rw as u64, 3, 2, b1, true);
        assert!(pack.deferred.is_none());
        assert_eq!(pack.width, 3);
        let bucket = encode(&probes, pack);
        let (built, walked) =
            construct_and_walk(&bucket, probes.len(), rw, pack, &mut SweepScratch::new());
        assert_eq!(built, walked);
    }

    #[test]
    fn overfull_push_falls_back_to_walk_and_stays_exact() {
        // A hot key repeated far past one word's capacity drives its
        // bucket chain through mid-stream region flushes; every later
        // sweep of that region must take the incremental-walk path
        // (dirty region) — still bit-exact, refusals included.
        let c = config(4_096, 500, 3, 1, 29);
        let mut keys = keys(500, 7);
        keys.extend(std::iter::repeat_n(b"molten-key".to_vec(), 9_000));
        let mut seq: Mpcbf<u64> = Mpcbf::new(c);
        for k in &keys {
            let _ = seq.insert_bytes(k);
        }
        let mut bulk: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            bulk.push(k);
        }
        assert!(
            bulk.stats().flushes > 0,
            "test premise: overfull push must flush mid-stream"
        );
        let built = bulk.finish();
        assert_eq!(built.raw_words(), seq.raw_words());
        assert_eq!(built.items(), seq.items());
        assert_eq!(built.overflows(), seq.overflows());
    }

    /// Regions of `words` holding any admitted key: the sweeps a build
    /// needs when no region flushes early.
    fn nonempty_regions(words: &[HcbfWord<u64>], width: u64) -> u64 {
        words
            .chunks(width as usize)
            .filter(|region| region.iter().any(|w| !w.is_empty()))
            .count() as u64
    }

    #[test]
    fn hinted_slab_holds_the_expected_entries_plus_a_tenth() {
        // Deferred (one entry per key) on whole regions — 4 bytes at
        // b1 = 50, 3 at b1 = 16 (four keys a word, the CLI's 16 bits per
        // key) — six-byte deferred (k = 5), and admitted
        // (k entries per key, clusters of two) with a narrow last region.
        for (l, k, g, b1, expected, width) in [
            (1u64 << 18, 3u32, 1u32, 50u32, 209_715u64, 4usize),
            (1 << 18, 3, 1, 16, 1 << 20, 3),
            (1 << 18, 5, 1, 50, 150_000, 6),
            ((1 << 18) + 12_345, 4, 2, 50, 70_000, 3),
        ] {
            let stage = BulkStage::with_expected(l, k, g, b1, expected);
            assert_eq!(stage.entry_bytes(), width, "l={l} k={k} g={g} b1={b1}");
            let entries = if stage.is_deferred() {
                expected
            } else {
                expected * u64::from(k)
            };
            let bytes = stage.l3.len() as f64;
            let regions = stage.l3_len.len() as f64;
            let (width, pad) = (width as f64, stage.pack.pad() as f64);
            let bound = width * (1.1 * entries as f64 + 64.0 * regions) + pad * regions;
            assert!(
                bytes <= bound,
                "slab {bytes} B over {bound:.0} B (l={l}, k={k}, g={g}, b1={b1})"
            );
            assert!(bytes >= width * entries as f64, "slab below the hint");
        }
    }

    #[test]
    fn no_shape_stages_more_bytes_than_a_u64_per_entry() {
        // The packing never stages more bytes than the one-`u64`-per-entry
        // layout it replaced (deferred iff `6k + ⌈log₂ l⌉ ≤ 64`, else one
        // entry per probe), every entry fits its bytes, and no narrower
        // entry would hold the slots over a region of the minimum width.
        for l in [2u64, 100, 256, 257, 1_024, 1_025, 1 << 14, 1 << 20, 1 << 32] {
            let wb = index_bits(l);
            for b1 in [2u32, 16, 17, 33, 50, 63] {
                for k in 1..=12u32 {
                    for g in 1..=k.min(8) {
                        let pack = Packing::new(l, k, g, b1, true);
                        let at = format!("l={l} b1={b1} k={k} g={g}");
                        let was_deferred = g == 1 && 6 * k + wb <= 64;
                        let width = pack.width as u32;
                        let bytes = match pack.deferred {
                            Some(_) => width,
                            None => width * k,
                        };
                        let before = if was_deferred { 8 } else { 8 * k };
                        assert!(bytes <= before, "{at}: {bytes} B > {before} B");
                        assert!((ENTRY_MIN_BYTES..=ENTRY_MAX_BYTES).contains(&width), "{at}");
                        assert!(pack.slot_bits + pack.region_bits <= 8 * width, "{at}");
                        // Stride-1 L2 entries split at `slot_bits + region_bits`.
                        assert!(pack.slot_bits + wb < 64 || pack.stride == 2, "{at}");
                        assert!(pack.region_bits <= L3_REGION_BITS.min(wb), "{at}");
                        assert!(pack.region_bits >= L3_MIN_REGION_BITS.min(wb), "{at}");
                        let floor = wb.clamp(1, L3_MIN_REGION_BITS);
                        assert!(
                            width == ENTRY_MIN_BYTES || 8 * (width - 1) < pack.slot_bits + floor,
                            "{at}: a narrower entry fits"
                        );
                        if was_deferred {
                            assert!(pack.deferred.is_some(), "{at}: lost deferred mode");
                        }
                    }
                }
            }
        }
        // The fixed cases: `(k, g, b1, defer)` → (entry bytes, region bits).
        let wide = 1 << 20;
        for (k, g, b1, defer, width, region_bits) in [
            // MPCBF-1 at the CLI's 16 bits/key (b1 ≤ 16) and on the served
            // shapes (b1 = 43, 37).
            (3u32, 1u32, 16u32, true, 3usize, 12u32),
            (3, 1, 4, true, 3, 15),
            (3, 1, 50, true, 4, 14),
            (3, 1, 43, true, 4, 14),
            // k = 2 packs 12 slot bits: 3 bytes over 2^12 words.
            (2, 1, 50, true, 3, 12),
            // Deferred k = 4..8: 5 to 8 bytes at b1 > 32, k = 6 in six.
            (4, 1, 50, true, 5, 15),
            (6, 1, 50, true, 6, 12),
            (7, 1, 50, true, 7, 14),
            (8, 1, 50, true, 8, 15),
            (8, 1, 32, true, 7, 15),
            // Admitted: one slot over the widest region in 3 bytes.
            (3, 1, 50, false, 3, 15),
            (6, 2, 50, true, 3, 15),
        ] {
            let pack = Packing::new(wide, k, g, b1, defer);
            assert_eq!(
                (pack.width, pack.region_bits),
                (width, region_bits),
                "k={k} g={g} b1={b1} defer={defer}"
            );
        }
    }

    #[test]
    fn adjacent_full_buckets_keep_their_edge_entries() {
        // At every entry width, fill region 1's bucket to capacity, then
        // region 0's, and read back the last entry of the first bucket
        // and the first entry of the second. The first bucket's last
        // 8-byte store reaches past its entries: only the pad keeps it
        // off the second bucket's.
        for (k, b1, width) in [
            (3u32, 16u32, 3usize),
            (3, 50, 4),
            (4, 50, 5),
            (5, 50, 6),
            (7, 50, 7),
            (8, 50, 8),
        ] {
            let mut stage = BulkStage::with_expected(1 << 17, k, 1, b1, 1 << 10);
            assert_eq!(stage.entry_bytes(), width, "k={k} b1={b1}");
            assert!(
                stage.l3_len.len() > 2,
                "test premise: a full-width second region"
            );
            let (pack, cap) = (stage.pack, stage.l3_cap);
            // High bytes all ones, low bits unique per entry.
            let value = |r3: usize, i: usize| pack.entry_mask() ^ (r3 * cap + i) as u64;
            for r3 in [1, 0] {
                for i in 0..cap {
                    stage.put_l3(r3, i, value(r3, i));
                }
            }
            let bucket = |r3: usize| &stage.l3[r3 * pack.bucket_bytes(cap)..];
            let last = entries(bucket(0), cap, pack).last();
            let first = entries(bucket(1), 1, pack).next();
            assert_eq!(last, Some(value(0, cap - 1)), "width {width}");
            assert_eq!(first, Some(value(1, 0)), "width {width}");
            for r3 in [0, 1] {
                let expected = (0..cap).map(|i| value(r3, i));
                assert!(entries(bucket(r3), cap, pack).eq(expected), "width {width}");
            }
        }
    }

    #[test]
    fn unhinted_stage_keeps_the_minimum_density() {
        for stage in [
            BulkStage::new(1 << 16, 3, 1, 50),
            BulkStage::admitted(1 << 16, 3, 1, 50),
        ] {
            let pads = stage.l3_len.len() * stage.pack.pad();
            let entries = (stage.l3.len() - pads) / stage.pack.width;
            assert_eq!(entries as u64, L3_MIN_DENSITY << 16);
        }
    }

    #[test]
    fn at_the_hint_every_region_sweeps_exactly_once() {
        // Deferred and admitted stages over 2^19 words — thirty-two
        // 2^14-word regions deferred, sixteen 2^15-word ones admitted —
        // each fed exactly the expected keys. Every flush — mid-stream,
        // while the finish drains L1/L2, or the final sweep — is counted:
        // with the head-room honest there is one per non-empty region.
        for (k, g, n) in [(3u32, 1u32, 420_000u64), (4, 2, 200_000)] {
            let l = 1u64 << 19;
            let mut stage = BulkStage::with_expected(l, k, g, 50, n);
            assert_eq!(stage.is_deferred(), g == 1);
            let digests: Vec<u128> = (0..n)
                .map(|i| u128::from(mix(i)) << 64 | u128::from(mix(!i)))
                .collect();
            stage.push_digests(&digests);
            stage.finish();
            let (width, flushes) = (stage.region_words(), stage.stats().flushes);
            let regions = nonempty_regions(&stage.into_words(), width);
            assert_eq!(regions, l / width, "test premise (g={g})");
            assert_eq!(flushes, regions, "g={g}");
        }
    }

    #[test]
    fn slot_62_in_the_last_word_of_a_narrow_last_region() {
        // b1 = 63 packs slot 62, the largest a six-bit field carries;
        // the probed word is the last of a last region narrower than the
        // rest, and the first word of the full region before it. Each
        // shape gets far more keys than its words hold, so refusals
        // decide as much as admissions. Reference: the scalar criterion,
        // word by word.
        for (k, g, b1, l) in [
            (1u32, 1u32, 63u32, (1u64 << 15) + 37),
            (2, 2, 63, (1 << 15) + 5),
            (3, 1, 60, (1 << 14) + 3),
            (5, 1, 34, (1 << 15) + 9),
        ] {
            let mut stage = BulkStage::with_expected(l, k, g, b1, 64);
            let cap = 64 - b1;
            let mut reference = vec![HcbfWord::<u64>::new(); l as usize];
            let (mut items, mut refused) = (0u64, 0u64);
            let last = l as u32 - 1;
            let boundary = last / stage.region_words() as u32 * stage.region_words() as u32;
            for i in 0..200u64 {
                let r = mix(i ^ u64::from(k) << 40);
                let hot = [last, boundary - 1, boundary][i as usize % 3];
                let words: Vec<u32> = (0..g)
                    .map(|t| {
                        if t == 0 {
                            hot
                        } else {
                            (r >> (8 * t)) as u32 % last
                        }
                    })
                    .collect();
                let slots: Vec<u32> = (0..k)
                    .map(|j| {
                        if j == 0 {
                            b1 - 1
                        } else {
                            (r >> (5 * j)) as u32 % b1
                        }
                    })
                    .collect();
                stage.push_planned(&words, &slots);
                // The scalar loop: admit iff every distinct word fits its
                // whole share, then apply every probe.
                let mut probes = Vec::new();
                for t in 0..g {
                    let group = split_hashes(k, g, t) as usize;
                    let at = probes.len();
                    probes.extend(
                        slots[at..at + group]
                            .iter()
                            .map(|&s| (words[t as usize], s)),
                    );
                }
                let fits = probes.iter().all(|&(w, _)| {
                    let need = probes.iter().filter(|p| p.0 == w).count() as u32;
                    reference[w as usize].total_count() + need <= cap
                });
                if !fits {
                    refused += 1;
                    continue;
                }
                items += 1;
                for (w, s) in probes {
                    reference[w as usize].increment(s, b1).unwrap();
                }
            }
            stage.finish();
            assert_eq!(
                (stage.items(), stage.refused()),
                (items, refused),
                "k={k} g={g}"
            );
            assert!(items > 0 && refused > 0, "test premise (k={k}, g={g})");
            assert!(!reference[last as usize].is_empty());
            assert_eq!(stage.into_words().as_slice(), &reference[..], "k={k} g={g}");
        }
    }

    #[test]
    fn finish_with_jobs_matches_sequential_finish() {
        let c = config(1 << 20, 40_000, 3, 1, 17);
        let keys = keys(40_000, 6);
        let mut a: BulkBuilder = BulkBuilder::new(c);
        let mut b: BulkBuilder = BulkBuilder::new(c);
        for k in &keys {
            a.push(k);
            b.push(k);
        }
        let seq = a.finish();
        // Run jobs in reverse order — admission must be region-local.
        let rev = b.finish_with(|jobs| {
            for job in jobs.iter_mut().rev() {
                job.run();
            }
        });
        assert_eq!(seq.raw_words(), rev.raw_words());
        assert_eq!(seq.items(), rev.items());
    }
}
