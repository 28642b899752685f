//! Wire format for shipping filters between nodes.
//!
//! The paper's MapReduce deployment *broadcasts the filter* to every map
//! task through DistributedCache (§V) — which requires a byte encoding.
//! This module defines a small, versioned, checksummed format:
//!
//! ```text
//! magic  "MPCB"          4 bytes
//! kind   u8              1 = CBF, 2 = MPCBF(u64 words)
//! ver    u8              format version (currently 1)
//! header fields          kind-specific, little-endian
//! payload                raw limbs, little-endian u64s
//! crc32  u32             IEEE CRC-32 of everything above
//! ```
//!
//! No serde: the format is explicit, stable, and independent of Rust
//! struct layout.
//!
//! Both directions stream, so each byte of an image crosses memory once
//! per side. A [`Writer`] checksums and hands on cache-sized pieces as
//! it goes, into any [`Sink`] (a `Vec`, a [`Measure`], a file). A
//! [`Reader`] reads from any [`BufRead`] (a slice, or a buffered file),
//! checksums and parses as it goes, and checks each filter word and
//! writes it straight into the filter's array. A word array of at least
//! [`LOAD_BLOCK_WORDS`] loads on two cores (see [`Reader::hcbf_words`]).
//! Decoding still checks everything before a filter is returned, with
//! the checks run while the bytes stream:
//!
//! * magic, kind and version come first, from the header;
//! * every length field is bounded by the bytes the image holds (the
//!   slice's or the file's length) before anything is allocated for it;
//! * every word is checked as it lands;
//! * no value is returned until the trailer matches the CRC of the body;
//!   after any structural failure the rest of the body is still
//!   checksummed, so damage reports [`CodecError::ChecksumMismatch`]
//!   ahead of whatever structural error it caused.
//!
//! Nested images (a resilient filter's main and gate, an elastic stack's
//! generations) are read in the same pass: their CRC joins the outer one
//! through [`crc32_combine`] instead of a second checksum of their bytes.
//! `decode(&[u8])` is the slice form of each type's `read_from`.

use crate::cbf::Cbf;
use crate::config::MpcbfConfig;
use crate::hcbf::HcbfWord;
use crate::mpcbf::Mpcbf;
use crate::traits::Filter;
use mpcbf_bitvec::{AlignedVec, LazyChunk, LazyVec};
use mpcbf_hash::Hasher128;
use std::io::BufRead;

/// Errors from decoding a filter image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// The magic bytes don't match.
    BadMagic,
    /// Unknown filter kind byte.
    UnknownKind(u8),
    /// Unsupported format version.
    UnsupportedVersion(u8),
    /// The CRC-32 does not match the contents.
    ChecksumMismatch {
        /// CRC stored in the image.
        stored: u32,
        /// CRC computed over the image.
        computed: u32,
    },
    /// A header field is structurally invalid.
    BadHeader(&'static str),
    /// Reading the image's source failed (a streamed file), or it ended
    /// before the length it was opened with. Not a verdict on the image.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "filter image truncated"),
            CodecError::BadMagic => write!(f, "bad magic (not a filter image)"),
            CodecError::UnknownKind(k) => write!(f, "unknown filter kind {k}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#10x}, computed {computed:#10x}"
                )
            }
            CodecError::BadHeader(what) => write!(f, "invalid header field: {what}"),
            CodecError::Io(kind) => write!(f, "read error: {}", std::io::Error::from(*kind)),
        }
    }
}

impl std::error::Error for CodecError {}

const MAGIC: &[u8; 4] = b"MPCB";
const VERSION: u8 = 1;
/// Image kind byte for [`Cbf`].
pub const KIND_CBF: u8 = 1;
/// Image kind byte for [`Mpcbf`] over 64-bit words.
pub const KIND_MPCBF64: u8 = 2;
/// Image kind byte for [`ResilientMpcbf`](crate::resilient::ResilientMpcbf)
/// (main + gate + spill map).
pub const KIND_RESILIENT: u8 = 3;
/// Image kind byte for `ShardedMpcbf` over 64-bit words (encoded by the
/// `mpcbf-concurrent` crate through this module's [`Writer`]/[`Reader`]).
pub const KIND_SHARDED64: u8 = 4;
/// Image kind byte for [`ElasticMpcbf`](crate::elastic::ElasticMpcbf)
/// (generation stack + rosters + capacity-policy state).
pub const KIND_ELASTIC: u8 = 5;
/// Image kind byte for `ElasticShardedMpcbf` (encoded by the
/// `mpcbf-concurrent` crate through this module's [`Writer`]/[`Reader`]).
pub const KIND_ELASTIC_SHARDED: u8 = 6;

/// Hard ceiling on any single length field decoded from an image, in
/// entries. Nothing this codec serializes legitimately exceeds it, and
/// rejecting larger values up front means a crafted (but CRC-valid)
/// header can never drive `Vec::with_capacity` into an abort or OOM.
const MAX_DECODE_ENTRIES: u64 = 1 << 40;

/// The reflected IEEE CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `CRC_TABLES[0][b]` is the classic
/// byte-at-a-time table, and `CRC_TABLES[t][b]` is the CRC contribution
/// of byte `b` followed by `t` zero bytes. Built at compile time
/// (16 KiB, static).
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut t = 1;
        while t < 16 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            t += 1;
        }
        b += 1;
    }
    tables
}

/// IEEE CRC-32 (reflected, poly 0xEDB88320) of `data`.
///
/// Every full-image integrity pass runs through here: codec images at
/// each checkpoint and cold start, WAL frames, and the per-segment seals
/// of scrubs. See [`crc32_update`] for how it runs; its output is
/// bit-identical to a bit-at-a-time loop, so every stored image stays
/// valid.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// The contribution of the 4 bytes of `word` (little-endian) followed
/// by `zeros` zero bytes.
#[inline(always)]
fn crc_fold(t: &[[u32; 256]; 16], word: u32, zeros: usize) -> u32 {
    t[zeros + 3][(word & 0xFF) as usize]
        ^ t[zeros + 2][((word >> 8) & 0xFF) as usize]
        ^ t[zeros + 1][((word >> 16) & 0xFF) as usize]
        ^ t[zeros][(word >> 24) as usize]
}

/// Inputs at least this long go to the carry-less-multiply kernel when
/// the CPU has one: below it, the kernel's fixed cost (four 16-byte lanes
/// to set up and reduce) outweighs its speed.
const CLMUL_MIN_BYTES: usize = 128;

/// Extends a finished CRC-32 with more bytes: for any split,
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and `crc32_update(0, x)`
/// is `crc32(x)`. Lets callers checksum data that is not contiguous in
/// memory (e.g. a segment of words read in place) without copying it.
///
/// On a CPU with PCLMULQDQ, an input of at least 128 bytes has its
/// 16-byte blocks folded by carry-less multiplication
/// ([`mpcbf_bitvec::simd::crc32_clmul`], about ten times the table
/// kernel's speed), and the table kernel takes the last few bytes.
/// Everything else runs the table kernel, slicing-by-16 (sixteen
/// independent lookups per 16 bytes, no data-dependent branches).
#[inline]
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    if data.len() >= CLMUL_MIN_BYTES {
        let (blocks, tail) = data.split_at(data.len() & !15);
        if let Some(crc) = mpcbf_bitvec::simd::crc32_clmul(crc, blocks) {
            return crc32_table(crc, tail);
        }
    }
    crc32_table(crc, data)
}

/// [`crc32_update`] by slicing-by-16 alone: the portable kernel, and the
/// one every other path is tested against. Inlined, as `crc32_update`
/// was before the dispatch, so a short input (a WAL frame, a header
/// field) costs one length compare more than it did.
#[inline]
fn crc32_table(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let word = |c: &[u8], at: usize| u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]]);
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        crc = crc_fold(t, crc ^ word(c, 0), 12)
            ^ crc_fold(t, word(c, 4), 8)
            ^ crc_fold(t, word(c, 8), 4)
            ^ crc_fold(t, word(c, 12), 0);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `a·b` modulo the CRC polynomial, over GF(2) in the CRC's reflected
/// bit order (bit 31 is x⁰).
const fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
        bit += 1;
    }
    product
}

/// `X_POW_2N[k]` is x^(2^k) modulo the CRC polynomial.
static X_POW_2N: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30;
    let mut k = 1;
    while k < 32 {
        table[k] = mult_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// without touching the bytes: zlib's `crc32_combine`, which shifts
/// `crc32(a)` across `len_b` zero bytes by multiplying it by x^(8·len_b)
/// modulo the polynomial, built from the powers x^(2^k) in
/// O(log len_b) products of 32 steps each (about a microsecond). The
/// snapshot envelope uses it to take in the CRC its image already carries
/// instead of checksumming the image a second time, on write and on load;
/// a two-core load joins its chunks' CRCs with it, 16 per 1 MiB block.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^(8·len_b): one factor x^(2^k) per set bit k of 8·len_b.
    let (mut shift, mut len, mut k) = (1u32 << 31, len_b, 3);
    while len != 0 {
        if len & 1 != 0 {
            shift = mult_mod_p(X_POW_2N[k % 32], shift);
        }
        len >>= 1;
        k += 1;
    }
    mult_mod_p(shift, crc_a) ^ crc_b
}

/// The CRC-32 of any sealed image — a body followed by its own CRC-32,
/// little-endian — whatever the body: the CRC's residue. A writer that
/// has just sealed an image therefore knows the image's CRC without
/// computing it, and a reader can tell an intact image by it.
pub const CRC32_RESIDUE: u32 = 0x2144_DF1C;

/// Bit-at-a-time CRC-32: the test oracle [`crc32`] must match on every
/// input.
#[cfg(test)]
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
    }
    !crc
}

/// Where a [`Writer`] sends the bytes it encodes: an in-memory image
/// (`Vec<u8>`), a [`Measure`] that only counts them, or a file (the
/// durability crate streams snapshots through a buffered file sink).
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Accounts for `len` bytes without receiving them when this sink
    /// only measures, returning `true`; a sink that needs the bytes
    /// returns `false` and accounts nothing. Writers ask before
    /// producing a payload, so a measuring pass skips the copies and the
    /// checksum.
    fn measure(&mut self, _len: u64) -> bool {
        false
    }

    /// Room for `bytes` more bytes (a hint: in-memory sinks pre-size).
    fn reserve(&mut self, _bytes: usize) {}
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn reserve(&mut self, bytes: usize) {
        Vec::reserve(self, bytes);
    }
}

impl<S: Sink + ?Sized> Sink for &mut S {
    fn put(&mut self, bytes: &[u8]) {
        (**self).put(bytes);
    }

    fn measure(&mut self, len: u64) -> bool {
        (**self).measure(len)
    }

    fn reserve(&mut self, bytes: usize) {
        (**self).reserve(bytes);
    }
}

/// A sink that only counts: the length an encoder's image will have,
/// found without producing (or checksumming) its payload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Measure {
    /// Bytes accounted so far.
    pub bytes: u64,
}

impl Sink for Measure {
    fn put(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len() as u64;
    }

    fn measure(&mut self, len: u64) -> bool {
        self.bytes += len;
        true
    }
}

/// Bytes a [`Writer`] checksums and hands to its sink at once: small
/// enough to stay in L1 between the two.
const CHUNK: usize = 4096;

/// Words per block of a two-core load (1 MiB of image): a word array at
/// least this long is read a block at a time, and each block's chunks are
/// shared between the calling thread and one helper thread (see
/// [`Reader::hcbf_words`]). A shorter array loads inline. Each block
/// spawns its helper, so a block must stay large enough (about 1 MiB)
/// that the spawn is a small fraction of the block's work.
pub const LOAD_BLOCK_WORDS: usize = 1 << 17;

/// Words per chunk of a two-core load's array (64 KiB): the unit a block
/// is shared out in, and the piece a thread checksums before checking
/// its words, so the second pass reads from cache.
const LOAD_CHUNK_WORDS: usize = 8192;

/// Builds a framed image: magic + kind + version, caller-appended
/// fields, and a trailing CRC-32 sealed by [`Writer::finish`]. The CRC
/// runs as the bytes pass through, so the image streams into any
/// [`Sink`] and is never held whole unless the sink is a `Vec`.
///
/// Public so sibling crates (e.g. `mpcbf-concurrent`'s sharded codec and
/// the durability crate's snapshots) can emit images in the same framed
/// format without re-implementing the envelope.
pub struct Writer<S: Sink = Vec<u8>> {
    sink: S,
    crc: u32,
}

impl Writer {
    /// Starts an in-memory image of the given kind byte (see the
    /// `KIND_*` consts).
    pub fn new(kind: u8) -> Self {
        Writer::framed(Vec::with_capacity(64), kind)
    }
}

impl<S: Sink> Writer<S> {
    /// Starts an image of the given kind byte, written into `sink`.
    pub fn framed(sink: S, kind: u8) -> Self {
        let mut w = Writer { sink, crc: 0 };
        w.bytes(MAGIC);
        w.bytes(&[kind, VERSION]);
        w
    }

    /// Reserves room for `bytes` more bytes, so an in-memory image whose
    /// size is known up front is written without regrowing its buffer.
    pub fn reserve(&mut self, bytes: usize) {
        self.sink.reserve(bytes);
    }

    /// True, accounting `len` bytes, when the sink only measures: the
    /// caller must then skip writing those bytes (see [`Sink::measure`]).
    pub fn measure(&mut self, len: u64) -> bool {
        self.sink.measure(len)
    }

    /// Appends a little-endian u32 field.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian u64 field.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim (callers encode the length separately),
    /// in cache-sized pieces: the sink copies each piece while the
    /// checksum has just brought it into L1.
    pub fn bytes(&mut self, b: &[u8]) {
        if self.sink.measure(b.len() as u64) {
            return;
        }
        for piece in b.chunks(CHUNK) {
            self.crc = crc32_update(self.crc, piece);
            self.sink.put(piece);
        }
    }

    /// Appends limbs as little-endian u64s, straight from any source
    /// (a slice, or words read in place) without staging them in a
    /// `Vec<u64>` first: they go out in small chunks, each checksummed
    /// while cache-hot. A measuring sink counts an exact-size source
    /// without reading it.
    pub fn limbs(&mut self, limbs: impl IntoIterator<Item = u64>) {
        let mut limbs = limbs.into_iter();
        let (count, exact) = limbs.size_hint();
        if exact == Some(count) && self.sink.measure(count as u64 * 8) {
            return;
        }
        self.sink.reserve(count * 8);
        let mut chunk = [0u8; CHUNK];
        loop {
            let mut filled = 0;
            for (slot, limb) in chunk.chunks_exact_mut(8).zip(&mut limbs) {
                slot.copy_from_slice(&limb.to_le_bytes());
                filled += 8;
            }
            self.bytes(&chunk[..filled]);
            if filled < CHUNK {
                return;
            }
        }
    }

    /// Seals the image with its CRC-32 and returns the sink.
    pub fn finish(mut self) -> S {
        let crc = self.crc;
        self.u32(crc);
        self.sink
    }
}

/// A decoded value and the CRC-32 of every byte of its image, trailer
/// included — what [`read_framed`] and the types' `read_from` return.
/// The CRC lets an enclosing checksum (a nesting image, the snapshot
/// envelope) take the image in with [`crc32_combine`] instead of a
/// second pass. It covers all the image's bytes even when the value is
/// an error, except an [`CodecError::Io`], after which it means nothing.
pub type Framed<T> = (Result<T, CodecError>, u32);

/// Cursor over a framed image previously produced by [`Writer`], read as
/// it streams from any [`BufRead`] source: a slice (`&[u8]`) or a
/// buffered file.
///
/// The image's length is known up front (the slice's, or the file's), so
/// every length field is bounded by the bytes that remain before anything
/// is allocated for it. Fields and short word arrays are read in 4 KiB
/// pieces, each checksummed and parsed while it sits in cache; a word
/// array of at least [`LOAD_BLOCK_WORDS`] is read in 1 MiB blocks, each
/// checked on two threads ([`Reader::hcbf_words`]). Either way each byte
/// crosses memory once. Decoders run inside [`read_framed`], which owns the
/// verdict order: magic, kind and version are checked first; after any
/// other failure the rest of the body is still checksummed, so a damaged
/// image reports [`CodecError::ChecksumMismatch`] ahead of whatever
/// structural error the damage caused, and no value is returned before
/// the trailer matches. Malformed input yields [`CodecError`], never a
/// panic and never an unbounded allocation.
pub struct Reader<'a> {
    src: &'a mut dyn BufRead,
    /// Body bytes (everything before the CRC trailer) not yet read.
    body_left: u64,
    /// CRC-32 of the body bytes read so far.
    crc: u32,
    /// The header's kind byte.
    kind: u8,
    /// The block buffer of a two-core load from a source that does not
    /// hold a whole block: allocated by the first such block, then reused
    /// for every later one (the shards of a sharded image included).
    block: Vec<u8>,
}

/// Reads the `len`-byte framed image at the front of `src` with `body`
/// (which reads the fields after the header) and returns the value with
/// the CRC-32 of the image's bytes (see [`Framed`]). `kind` is the kind
/// byte the header must carry (`None`: any).
///
/// On every outcome but an I/O error all `len` bytes are consumed, so a
/// caller reading a longer stream stays aligned.
fn frame<T>(
    src: &mut dyn BufRead,
    len: u64,
    kind: Option<u8>,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Framed<T> {
    let trailer = len.min(4) as usize;
    let mut r = Reader {
        src,
        body_left: len - trailer as u64,
        crc: 0,
        kind: 0,
        block: Vec::new(),
    };
    let header = r.header(len, kind);
    let early = header.is_err();
    let result = header
        .and_then(|()| body(&mut r))
        .and_then(|value| match r.body_left {
            0 => Ok(value),
            _ => Err(CodecError::BadHeader("trailing bytes")),
        });
    r.seal(result, trailer, early)
}

/// Decodes the `len`-byte image of kind `kind` streamed from `src` with
/// `body`, for types that read the fields after the header (see
/// [`Reader`] for the checks and their order).
pub fn read_framed<T>(
    src: &mut dyn BufRead,
    len: u64,
    kind: u8,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Framed<T> {
    frame(src, len, Some(kind), body)
}

/// [`read_framed`] over an in-memory image.
pub fn decode_framed<T>(
    buf: &[u8],
    kind: u8,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut src = buf;
    read_framed(&mut src, buf.len() as u64, kind, body).0
}

/// Checks the magic, version and CRC of a `len`-byte image of any kind
/// streamed from `src`, without decoding it: `Ok` carries its kind byte.
pub fn check_framed(src: &mut dyn BufRead, len: u64) -> Framed<u8> {
    frame(src, len, None, |r| {
        r.skip(r.body_left)?;
        Ok(r.kind)
    })
}

impl Reader<'_> {
    /// Reads and checks magic, kind and version.
    fn header(&mut self, len: u64, kind: Option<u8>) -> Result<(), CodecError> {
        if len < (MAGIC.len() + 2 + 4) as u64 {
            return Err(CodecError::Truncated);
        }
        let mut head = [0u8; 6];
        self.fill(&mut head)?;
        if &head[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if kind.is_some_and(|k| k != head[4]) {
            return Err(CodecError::UnknownKind(head[4]));
        }
        if head[5] != VERSION {
            return Err(CodecError::UnsupportedVersion(head[5]));
        }
        self.kind = head[4];
        Ok(())
    }

    /// Checksums whatever body is left, reads the `trailer`-byte CRC and
    /// settles the verdict: a header error stands as it is, then a CRC
    /// mismatch, then `result`.
    fn seal<T>(mut self, result: Result<T, CodecError>, trailer: usize, early: bool) -> Framed<T> {
        if let Err(CodecError::Io(_)) = result {
            return (result, self.crc);
        }
        if let Err(e) = self.skip(self.body_left) {
            return (Err(e), self.crc);
        }
        let mut stored = [0u8; 4];
        if let Err(e) = self.src.read_exact(&mut stored[..trailer]) {
            return (Err(CodecError::Io(e.kind())), self.crc);
        }
        let computed = self.crc;
        let all = crc32_update(computed, &stored[..trailer]);
        let stored = u32::from_le_bytes(stored);
        let result = match result {
            Err(e) if early => Err(e),
            _ if trailer == 4 && stored != computed => {
                Err(CodecError::ChecksumMismatch { stored, computed })
            }
            result => result,
        };
        (result, all)
    }

    /// Reads `out.len()` body bytes, checksummed.
    fn fill(&mut self, out: &mut [u8]) -> Result<(), CodecError> {
        self.fill_raw(out)?;
        self.crc = crc32_update(self.crc, out);
        Ok(())
    }

    /// Reads `out.len()` body bytes without checksumming them: the caller
    /// folds them into `crc` itself.
    fn fill_raw(&mut self, out: &mut [u8]) -> Result<(), CodecError> {
        if out.len() as u64 > self.body_left {
            return Err(CodecError::Truncated);
        }
        self.src
            .read_exact(out)
            .map_err(|e| CodecError::Io(e.kind()))?;
        self.body_left -= out.len() as u64;
        Ok(())
    }

    /// Checksums and drops `count` body bytes in place, without copying.
    fn skip(&mut self, count: u64) -> Result<(), CodecError> {
        if count > self.body_left {
            return Err(CodecError::Truncated);
        }
        let mut left = count;
        while left > 0 {
            let buf = match self.src.fill_buf() {
                Ok([]) => return Err(CodecError::Io(std::io::ErrorKind::UnexpectedEof)),
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(CodecError::Io(e.kind())),
            };
            let take = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
            self.crc = crc32_update(self.crc, &buf[..take]);
            self.src.consume(take);
            left -= take as u64;
            self.body_left -= take as u64;
        }
        Ok(())
    }

    /// Reads a little-endian u32 field.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian u64 field.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads `count` raw bytes; a count the body cannot hold is
    /// [`CodecError::Truncated`] before anything is allocated.
    pub fn bytes(&mut self, count: u64) -> Result<Vec<u8>, CodecError> {
        if count > self.body_left {
            return Err(CodecError::Truncated);
        }
        let mut out = vec![0u8; count as usize];
        self.fill(&mut out)?;
        Ok(out)
    }

    /// Body bytes not yet consumed (excludes the CRC trailer).
    pub fn remaining(&self) -> u64 {
        self.body_left
    }

    /// Bytes `count` limbs occupy, checked against the remaining body.
    fn limb_bytes(&self, count: usize) -> Result<u64, CodecError> {
        let need = (count as u64)
            .checked_mul(8)
            .ok_or(CodecError::BadHeader("limb count overflows"))?;
        if need > self.body_left {
            return Err(CodecError::Truncated);
        }
        Ok(need)
    }

    /// Reads `count` little-endian u64 limbs into a `Vec`.
    pub fn limbs(&mut self, count: usize) -> Result<Vec<u64>, CodecError> {
        self.limb_bytes(count)?;
        let mut limbs = Vec::with_capacity(count);
        let mut chunk = [0u8; CHUNK];
        while limbs.len() < count {
            let take = ((count - limbs.len()) * 8).min(CHUNK);
            self.fill(&mut chunk[..take])?;
            limbs.extend(
                chunk[..take]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
            );
        }
        Ok(limbs)
    }

    /// Reads `count` HCBF words straight into a new cache-line-aligned
    /// array, checking each word's invariant for `b1`: the array is
    /// written once, never prefilled or copied. The count is checked
    /// against the remaining body before the array is allocated, which is
    /// advised toward huge pages before its first write (it is the filter
    /// the caller serves).
    ///
    /// An array of at least [`LOAD_BLOCK_WORDS`] loads on two cores, a
    /// block at a time. A block is read in place when the source already
    /// buffers it (a slice holds the whole image); otherwise it is read
    /// into one reused block buffer (a `BufReader` passes a read this
    /// large straight through to the file). The block's 64 KiB chunks of
    /// the array are then shared between the calling thread and one
    /// scoped helper thread, each taking the next chunk as it finishes
    /// one, and checksumming, checking and writing it; the chunks' CRCs
    /// join in order through [`crc32_combine`]. HCBF words are
    /// self-contained (every level of a word lives in the word), so the
    /// threads share nothing but the queue of chunks. A shorter array
    /// loads inline in 4 KiB pieces, with no helper and no block buffer.
    ///
    /// After a block (or piece) holding a broken word, the read stops
    /// with [`CodecError::BadHeader`] and the array is dropped; the bytes
    /// read so far are checksummed, so [`read_framed`] still reports a
    /// damaged image's checksum mismatch first.
    pub fn hcbf_words(
        &mut self,
        count: usize,
        b1: u32,
    ) -> Result<AlignedVec<HcbfWord<u64>>, CodecError> {
        self.limb_bytes(count)?;
        let broken = CodecError::BadHeader("word invariant");
        if count < LOAD_BLOCK_WORDS {
            let mut words = LazyVec::new(count, CHUNK / 8, HcbfWord::new());
            let mut piece = [0u8; CHUNK];
            for mut chunk in words.chunks_mut() {
                let bytes = &mut piece[..chunk.len() * 8];
                self.fill_raw(bytes)?;
                let (crc, held) = load_words(self.crc, bytes, &mut chunk, b1);
                self.crc = crc;
                if !held {
                    return Err(broken);
                }
            }
            return Ok(words.into_filled());
        }
        let mut words = LazyVec::new(count, LOAD_CHUNK_WORDS, HcbfWord::new());
        let mut chunks: Vec<_> = words.chunks_mut().collect();
        for block in chunks.chunks_mut(LOAD_BLOCK_WORDS / LOAD_CHUNK_WORDS) {
            let need = block.iter().map(LazyChunk::len).sum::<usize>() * 8;
            let buffered = self.src.fill_buf().map_or(0, <[u8]>::len);
            let (crc, held) = if buffered >= need {
                let bytes = self.src.fill_buf().map_err(|e| CodecError::Io(e.kind()))?;
                let done = load_block(self.crc, &bytes[..need], block, b1);
                self.src.consume(need);
                self.body_left -= need as u64;
                done
            } else {
                let mut buf = std::mem::take(&mut self.block);
                buf.resize(need, 0);
                let read = self.fill_raw(&mut buf);
                let done = read.map(|()| load_block(self.crc, &buf, block, b1));
                self.block = buf;
                done?
            };
            self.crc = crc;
            if !held {
                return Err(broken);
            }
        }
        drop(chunks);
        Ok(words.into_filled())
    }

    /// Reads a nested `len`-byte framed image with `read` (a type's
    /// `read_from`). The nested image's CRC joins this one's through
    /// [`crc32_combine`], so its bytes are checksummed once.
    pub fn nested<T>(
        &mut self,
        len: u64,
        read: impl FnOnce(&mut dyn BufRead, u64) -> Framed<T>,
    ) -> Result<T, CodecError> {
        if len > self.body_left {
            return Err(CodecError::Truncated);
        }
        let (result, crc) = read(&mut *self.src, len);
        if let Err(CodecError::Io(_)) = result {
            return result;
        }
        self.crc = crc32_combine(self.crc, crc, len);
        self.body_left -= len;
        result
    }
}

/// Checksums `bytes` on from `crc`, checks every word they hold for `b1`
/// in one branch-free fold ([`mpcbf_bitvec::simd::all_words`]), then
/// writes the words into `chunk` (exactly as many), all while the bytes
/// are still in cache. Returns the CRC and whether every word held; a
/// chunk with a broken word is still written, since the caller then
/// drops the array.
fn load_words(
    crc: u32,
    bytes: &[u8],
    chunk: &mut LazyChunk<'_, HcbfWord<u64>>,
    b1: u32,
) -> (u32, bool) {
    let crc = crc32_update(crc, bytes);
    let held = mpcbf_bitvec::simd::all_words(bytes, |w| HcbfWord::from_raw(w).holds(b1));
    let mut raw = bytes.chunks_exact(8);
    chunk.get_or_init_with(|_| {
        let raw = raw.next().expect("one word per slot");
        HcbfWord::from_raw(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    });
    (crc, held)
}

/// [`load_words`] of one block on two threads: its chunks are handed out
/// one at a time to the calling thread and one scoped helper, each taking
/// the next as it finishes one, so a thread that runs slower (a busier
/// core, a colder cache) takes fewer and neither waits long for the
/// other. Each chunk's CRC is taken alone; the CRCs join in chunk order
/// through [`crc32_combine`]. A block of one chunk loads inline.
fn load_block(
    crc: u32,
    bytes: &[u8],
    chunks: &mut [LazyChunk<'_, HcbfWord<u64>>],
    b1: u32,
) -> (u32, bool) {
    if let [chunk] = chunks {
        return load_words(crc, bytes, chunk, b1);
    }
    let queue = std::sync::Mutex::new(
        chunks
            .iter_mut()
            .zip(bytes.chunks(LOAD_CHUNK_WORDS * 8))
            .enumerate(),
    );
    // Per chunk taken: its index, its CRC alone, its length, whether
    // every word held.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("no thread panics holding it").next();
            let Some((i, (chunk, bytes))) = next else {
                return done;
            };
            let (crc, held) = load_words(0, bytes, chunk, b1);
            done.push((i, crc, bytes.len() as u64, held));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helper = s.spawn(drain);
        let mut done = drain();
        done.extend(
            helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        );
        done
    });
    done.sort_unstable_by_key(|&(i, ..)| i);
    done.iter().fold(
        (crc, true),
        |(crc, held), &(_, chunk_crc, len, chunk_held)| {
            (crc32_combine(crc, chunk_crc, len), held && chunk_held)
        },
    )
}

impl<H: Hasher128> Cbf<H> {
    /// Encodes the filter into the portable wire format.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_to(Vec::with_capacity(64))
    }

    /// [`Cbf::encode`] streamed into any [`Sink`].
    pub fn encode_to<S: Sink>(&self, sink: S) -> S {
        let (limbs, len, width, saturations) = self.raw_parts();
        let mut w = Writer::framed(sink, KIND_CBF);
        w.u64(len as u64);
        w.u32(width);
        w.u32(self.num_hashes());
        w.u64(self.seed());
        w.u32(self.word_bits());
        w.u64(self.items());
        w.u64(saturations);
        w.limbs(limbs.iter().copied());
        w.finish()
    }

    /// Decodes a filter previously produced by [`Cbf::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        decode_framed(buf, KIND_CBF, Self::read_body)
    }

    /// [`Cbf::decode`] of a `len`-byte image streamed from `src`.
    pub fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self> {
        read_framed(src, len, KIND_CBF, Self::read_body)
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.u64()? as usize;
        let width = r.u32()?;
        let k = r.u32()?;
        let seed = r.u64()?;
        let word_bits = r.u32()?;
        let items = r.u64()?;
        let saturations = r.u64()?;
        if len == 0 || len as u64 > MAX_DECODE_ENTRIES || !(1..=32).contains(&width) {
            return Err(CodecError::BadHeader("counter geometry"));
        }
        if !(1..=64).contains(&k) {
            return Err(CodecError::BadHeader("hash count"));
        }
        if !word_bits.is_power_of_two() || !(8..=512).contains(&word_bits) {
            return Err(CodecError::BadHeader("word bits"));
        }
        let limb_count = len
            .checked_mul(width as usize)
            .ok_or(CodecError::BadHeader("counter geometry"))?
            .div_ceil(64);
        let limbs = r.limbs(limb_count)?;
        // The bits past the last counter are never written: set ones are
        // damage, the same that [`Cbf::verify`] reports.
        let used = len * width as usize - (limb_count - 1) * 64;
        if used < 64 && limbs[limb_count - 1] >> used != 0 {
            return Err(CodecError::BadHeader("counter padding"));
        }
        Ok(Self::from_raw_parts(
            limbs,
            len,
            width,
            saturations,
            k,
            seed,
            word_bits,
            items,
        ))
    }
}

impl<H: Hasher128> Mpcbf<u64, H> {
    /// Encodes the filter into the portable wire format
    /// (64-bit-word filters only — the paper's deployment configuration).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_to(Vec::with_capacity(64))
    }

    /// [`Mpcbf::encode`] streamed into any [`Sink`].
    pub fn encode_to<S: Sink>(&self, sink: S) -> S {
        let shape = self.shape();
        let mut w = Writer::framed(sink, KIND_MPCBF64);
        w.u64(shape.l);
        w.u32(shape.k);
        w.u32(shape.g);
        w.u32(shape.n_max);
        w.u64(self.seed());
        w.u64(self.items());
        w.u64(self.overflows());
        w.limbs(self.raw_iter());
        w.finish()
    }

    /// Decodes a filter previously produced by [`Mpcbf::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        decode_framed(buf, KIND_MPCBF64, Self::read_body)
    }

    /// [`Mpcbf::decode`] of a `len`-byte image streamed from `src`: the
    /// words go straight into the filter's array, each checked as it
    /// lands.
    pub fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self> {
        read_framed(src, len, KIND_MPCBF64, Self::read_body)
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let l = r.u64()?;
        let k = r.u32()?;
        let g = r.u32()?;
        let n_max = r.u32()?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let overflows = r.u64()?;
        if !(2..=MAX_DECODE_ENTRIES).contains(&l) {
            return Err(CodecError::BadHeader("word count"));
        }
        let config = MpcbfConfig::builder()
            .memory_bits(l * 64)
            .expected_items(items.max(1))
            .hashes(k)
            .accesses(g)
            .n_max(n_max)
            .seed(seed)
            .build()
            .map_err(|_| CodecError::BadHeader("shape"))?;
        // Reject corrupted words: every word must satisfy the HCBF
        // capacity invariant for this b1.
        let words = r.hcbf_words(l as usize, config.shape().b1)?;
        Ok(Self::from_words(config, words, items, overflows))
    }
}

impl<H: Hasher128> crate::resilient::ResilientMpcbf<H> {
    /// Encodes the resilient filter — main filter image, spill-gate
    /// image, and the exact spill map — into one framed image.
    ///
    /// Spill entries are sorted by key so the encoding is deterministic:
    /// two filters in the same logical state produce byte-identical
    /// images (snapshots taken by the durability layer rely on this).
    pub fn encode(&self) -> Vec<u8> {
        let (main, gate, exact, spilled_inserts) = self.spill_parts();
        let main_image = main.encode();
        let gate_image = gate.encode();
        let mut w = Writer::new(KIND_RESILIENT);
        w.u64(main_image.len() as u64);
        w.bytes(&main_image);
        w.u64(gate_image.len() as u64);
        w.bytes(&gate_image);
        w.u64(spilled_inserts);
        w.u64(exact.len() as u64);
        let mut entries: Vec<(&Vec<u8>, &u32)> = exact.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (key, &mult) in entries {
            w.u32(key.len() as u32);
            w.bytes(key);
            w.u32(mult);
        }
        w.finish()
    }

    /// Decodes a filter previously produced by [`ResilientMpcbf::encode`](crate::resilient::ResilientMpcbf::encode).
    ///
    /// Both nested images revalidate their own envelopes, and every
    /// spill entry is bounds-checked — a malformed image errors, it
    /// never panics or fabricates spill state.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        decode_framed(buf, KIND_RESILIENT, Self::read_body)
    }

    /// [`ResilientMpcbf::decode`](crate::resilient::ResilientMpcbf::decode)
    /// of a `len`-byte image streamed from `src`.
    pub fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self> {
        read_framed(src, len, KIND_RESILIENT, Self::read_body)
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let main_len = r.u64()?;
        let main = r.nested(main_len, Mpcbf::<u64, H>::read_from)?;
        let gate_len = r.u64()?;
        let gate = r.nested(gate_len, Cbf::<H>::read_from)?;
        let spilled_inserts = r.u64()?;
        let entry_count = r.u64()?;
        // Each entry is at least 8 bytes on the wire, so the remaining
        // body bounds the plausible count before anything is allocated.
        if entry_count > r.remaining() / 8 {
            return Err(CodecError::BadHeader("spill entry count"));
        }
        let mut exact = std::collections::HashMap::with_capacity(entry_count as usize);
        for _ in 0..entry_count {
            let klen = r.u32()?;
            let key = r.bytes(u64::from(klen))?;
            let mult = r.u32()?;
            if mult == 0 {
                return Err(CodecError::BadHeader("zero spill multiplicity"));
            }
            if exact.insert(key, mult).is_some() {
                return Err(CodecError::BadHeader("duplicate spill key"));
            }
        }
        Ok(Self::from_spill_parts(main, gate, exact, spilled_inserts))
    }
}

/// Encodes one sorted roster (key → multiplicity) into `w`.
fn encode_roster<S: Sink>(w: &mut Writer<S>, roster: &std::collections::HashMap<Vec<u8>, u32>) {
    w.u64(roster.len() as u64);
    let mut entries: Vec<(&Vec<u8>, &u32)> = roster.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (key, &mult) in entries {
        w.u32(key.len() as u32);
        w.bytes(key);
        w.u32(mult);
    }
}

/// Decodes a roster written by [`encode_roster`], rejecting zero
/// multiplicities, duplicate keys, and counts the body cannot hold.
fn decode_roster(
    r: &mut Reader<'_>,
) -> Result<std::collections::HashMap<Vec<u8>, u32>, CodecError> {
    let entry_count = r.u64()?;
    if entry_count > r.remaining() / 8 {
        return Err(CodecError::BadHeader("roster entry count"));
    }
    let mut roster = std::collections::HashMap::with_capacity(entry_count as usize);
    for _ in 0..entry_count {
        let klen = r.u32()?;
        let key = r.bytes(u64::from(klen))?;
        let mult = r.u32()?;
        if mult == 0 {
            return Err(CodecError::BadHeader("zero roster multiplicity"));
        }
        if roster.insert(key, mult).is_some() {
            return Err(CodecError::BadHeader("duplicate roster key"));
        }
    }
    Ok(roster)
}

impl<H: Hasher128> crate::elastic::ElasticMpcbf<H> {
    /// Encodes the whole generation stack — policy, trigger state, every
    /// generation's resilient image + roster, and the in-flight
    /// migration's source ids — into one framed image.
    ///
    /// The migration *worklist* is deliberately not serialized: migrated
    /// keys leave their source roster, so the remaining work is exactly
    /// the keys still in the source rosters and [`decode`] rebuilds it
    /// deterministically. Rosters are sorted, so the encoding is
    /// deterministic end to end (durability snapshots rely on this).
    ///
    /// [`decode`]: crate::elastic::ElasticMpcbf::decode
    pub fn encode(&self) -> Vec<u8> {
        self.encode_to(Vec::with_capacity(64))
    }

    /// [`ElasticMpcbf::encode`](crate::elastic::ElasticMpcbf::encode)
    /// streamed into any [`Sink`].
    pub fn encode_to<S: Sink>(&self, sink: S) -> S {
        let mut w = Writer::framed(sink, KIND_ELASTIC);
        // Policy (f64 thresholds as raw bits).
        w.u64(self.policy.max_pressure.to_bits());
        w.u64(self.policy.release_pressure.to_bits());
        w.u64(self.policy.max_spilled);
        w.u64(self.policy.growth.to_bits());
        w.u64(self.policy.max_generations as u64);
        w.u64(self.policy.check_interval);
        w.u64(self.policy.compact_batch as u64);
        // Base shape parameters.
        w.u64(self.base.seed);
        w.u32(self.base.k);
        w.u32(self.base.g);
        w.u32(self.base.w);
        w.u32(self.base.n_max);
        // Trigger / lifecycle state.
        let mut flags = 0u32;
        if self.auto {
            flags |= 1;
        }
        if self.latched {
            flags |= 2;
        }
        if self.pending_scale.is_some() {
            flags |= 4;
        }
        if self.migration.is_some() {
            flags |= 8;
        }
        w.u32(flags);
        w.u64(self.next_id);
        w.u64(self.scale_events);
        w.u64(self.compactions);
        w.u64(self.migrated_keys);
        if let Some(spec) = &self.pending_scale {
            w.u64(spec.memory_bits);
            w.u64(spec.expected_items);
        }
        // The generation stack, oldest first.
        w.u64(self.generations.len() as u64);
        for gen in &self.generations {
            w.u64(gen.id);
            w.u64(gen.memory_bits);
            w.u64(gen.expected_items);
            let image = gen.filter.encode();
            w.u64(image.len() as u64);
            w.bytes(&image);
            encode_roster(&mut w, &gen.roster);
        }
        if let Some(migration) = &self.migration {
            w.u64(migration.source_ids.len() as u64);
            for &id in &migration.source_ids {
                w.u64(id);
            }
        }
        w.finish()
    }

    /// Decodes a filter previously produced by [`ElasticMpcbf::encode`](crate::elastic::ElasticMpcbf::encode).
    ///
    /// Every nested resilient image revalidates its own envelope, the
    /// policy is re-validated, generation ids must be strictly increasing
    /// below `next_id`, each roster's total multiplicity must equal its
    /// filter's item count, and migration source ids must name sealed
    /// generations — a malformed image errors, never panics, and never
    /// fabricates a stack that the filter's own invariants would reject.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        decode_framed(buf, KIND_ELASTIC, Self::read_body)
    }

    /// [`ElasticMpcbf::decode`](crate::elastic::ElasticMpcbf::decode) of
    /// a `len`-byte image streamed from `src`.
    pub fn read_from(src: &mut dyn BufRead, len: u64) -> Framed<Self> {
        read_framed(src, len, KIND_ELASTIC, Self::read_body)
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use crate::elastic::{BaseParams, Generation, ScaleSpec};
        use crate::policy::CapacityPolicy;

        let policy = CapacityPolicy {
            max_pressure: f64::from_bits(r.u64()?),
            release_pressure: f64::from_bits(r.u64()?),
            max_spilled: r.u64()?,
            growth: f64::from_bits(r.u64()?),
            max_generations: usize::try_from(r.u64()?)
                .map_err(|_| CodecError::BadHeader("max_generations"))?,
            check_interval: r.u64()?,
            compact_batch: usize::try_from(r.u64()?)
                .map_err(|_| CodecError::BadHeader("compact_batch"))?,
        };
        policy
            .validate()
            .map_err(|_| CodecError::BadHeader("capacity policy"))?;
        let base = BaseParams {
            seed: r.u64()?,
            k: r.u32()?,
            g: r.u32()?,
            w: r.u32()?,
            n_max: r.u32()?,
        };
        let flags = r.u32()?;
        if flags & !0xF != 0 {
            return Err(CodecError::BadHeader("unknown flags"));
        }
        let auto = flags & 1 != 0;
        let latched = flags & 2 != 0;
        let next_id = r.u64()?;
        let scale_events = r.u64()?;
        let compactions = r.u64()?;
        let migrated_keys = r.u64()?;
        let pending_scale = if flags & 4 != 0 {
            Some(ScaleSpec {
                memory_bits: r.u64()?,
                expected_items: r.u64()?,
            })
        } else {
            None
        };
        let gen_count = r.u64()?;
        if gen_count == 0 || gen_count > r.remaining() / 32 {
            return Err(CodecError::BadHeader("generation count"));
        }
        let mut generations: Vec<Generation<H>> = Vec::with_capacity(gen_count as usize);
        let mut last_id: Option<u64> = None;
        for _ in 0..gen_count {
            let id = r.u64()?;
            if id >= next_id || last_id.is_some_and(|prev| id <= prev) {
                return Err(CodecError::BadHeader("generation id order"));
            }
            last_id = Some(id);
            let memory_bits = r.u64()?;
            let expected_items = r.u64()?;
            let image_len = r.u64()?;
            let filter = r.nested(image_len, crate::resilient::ResilientMpcbf::<H>::read_from)?;
            let roster = decode_roster(r)?;
            let total: u64 = roster.values().map(|&c| u64::from(c)).sum();
            if total != filter.items() {
                return Err(CodecError::BadHeader("roster does not cover the filter"));
            }
            generations.push(Generation {
                id,
                filter,
                roster,
                memory_bits,
                expected_items,
            });
        }
        let migration_sources = if flags & 8 != 0 {
            let count = r.u64()?;
            if count > r.remaining() / 8 {
                return Err(CodecError::BadHeader("migration source count"));
            }
            let active_id = generations.last().expect("gen_count >= 1").id;
            let mut sources = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let id = r.u64()?;
                if id == active_id || !generations.iter().any(|g| g.id == id) {
                    return Err(CodecError::BadHeader("migration source id"));
                }
                sources.push(id);
            }
            Some(sources)
        } else {
            None
        };
        Ok(Self::from_parts(
            generations,
            policy,
            base,
            next_id,
            latched,
            auto,
            pending_scale,
            migration_sources,
            scale_events,
            compactions,
            migrated_keys,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticMpcbf;
    use crate::resilient::ResilientMpcbf;
    use crate::traits::{CountingFilter, Filter};
    use mpcbf_hash::Murmur3;

    fn loaded_cbf() -> Cbf<Murmur3> {
        let mut f = Cbf::new(5_000, 3, 77);
        for i in 0..1_000u64 {
            f.insert(&i).unwrap();
        }
        f
    }

    fn loaded_mpcbf() -> Mpcbf<u64, Murmur3> {
        let cfg = MpcbfConfig::builder()
            .memory_bits(200_000)
            .expected_items(2_000)
            .hashes(3)
            .seed(78)
            .build()
            .unwrap();
        let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        for i in 0..2_000u64 {
            let _ = f.insert(&i);
        }
        f
    }

    #[test]
    fn cbf_roundtrip_preserves_behaviour() {
        let original = loaded_cbf();
        let decoded = Cbf::<Murmur3>::decode(&original.encode()).unwrap();
        for probe in 0..20_000u64 {
            assert_eq!(
                original.contains(&probe),
                decoded.contains(&probe),
                "probe {probe}"
            );
        }
        assert_eq!(original.items(), decoded.items());
        // The decoded filter keeps working: delete + re-query.
        let mut decoded = decoded;
        decoded.remove(&5u64).unwrap();
    }

    #[test]
    fn mpcbf_roundtrip_preserves_behaviour() {
        let original = loaded_mpcbf();
        let decoded = Mpcbf::<u64, Murmur3>::decode(&original.encode()).unwrap();
        for probe in 0..20_000u64 {
            assert_eq!(
                original.contains(&probe),
                decoded.contains(&probe),
                "probe {probe}"
            );
        }
        assert_eq!(original.shape(), decoded.shape());
        assert_eq!(original.items(), decoded.items());
        let mut decoded = decoded;
        decoded.remove(&7u64).unwrap();
        assert!(!decoded.contains(&7u64) || original.contains(&7u64));
    }

    #[test]
    fn bitflips_are_detected() {
        let image = loaded_mpcbf().encode();
        for pos in [0usize, 5, 6, 20, image.len() / 2, image.len() - 1] {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                Mpcbf::<u64, Murmur3>::decode(&corrupt).is_err(),
                "bitflip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let image = loaded_cbf().encode();
        for cut in [0usize, 3, 9, image.len() - 5] {
            assert!(
                Cbf::<Murmur3>::decode(&image[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let cbf_image = loaded_cbf().encode();
        assert!(matches!(
            Mpcbf::<u64, Murmur3>::decode(&cbf_image),
            Err(CodecError::UnknownKind(_))
        ));
        let mp_image = loaded_mpcbf().encode();
        assert!(matches!(
            Cbf::<Murmur3>::decode(&mp_image),
            Err(CodecError::UnknownKind(_))
        ));
    }

    #[test]
    fn wire_format_is_pinned() {
        // Golden prefix: any change to magic/kind/version/header layout
        // breaks cross-version compatibility and must fail this test.
        let cfg = MpcbfConfig::builder()
            .memory_bits(1_024) // l = 16 words
            .expected_items(10)
            .hashes(3)
            .seed(0x0102_0304_0506_0708)
            .build()
            .unwrap();
        let f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let image = f.encode();
        // magic "MPCB", kind 2, version 1
        assert_eq!(&image[..6], b"MPCB\x02\x01");
        // l = 16 (LE u64), k = 3, g = 1 (LE u32s)
        assert_eq!(&image[6..14], &16u64.to_le_bytes());
        assert_eq!(&image[14..18], &3u32.to_le_bytes());
        assert_eq!(&image[18..22], &1u32.to_le_bytes());
        // n_max, then seed at its fixed offset
        assert_eq!(&image[26..34], &0x0102_0304_0506_0708u64.to_le_bytes());
        // Total size: 6 header + 8+4+4+4+8+8+8 fields + 16·8 payload + 4 CRC.
        assert_eq!(image.len(), 6 + 44 + 128 + 4);
    }

    #[test]
    fn empty_filter_roundtrips() {
        let cfg = MpcbfConfig::builder()
            .memory_bits(2_048)
            .expected_items(5)
            .hashes(2)
            .build()
            .unwrap();
        let f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        let d = Mpcbf::<u64, Murmur3>::decode(&f.encode()).unwrap();
        assert_eq!(d.items(), 0);
        assert!(!d.contains(&1u64));
    }

    #[test]
    fn crc32_known_answer() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    /// `len + 16` bytes from a seed, so every start offset 0..16 of a
    /// `len`-byte window exists.
    fn crc_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Asserts that the dispatched CRC and the table kernel, called
    /// directly, both equal the bitwise reference on `data`.
    fn assert_both_kernels_match(data: &[u8], what: &str) {
        let reference = crc32_reference(data);
        assert_eq!(crc32(data), reference, "dispatched, {what}");
        assert_eq!(crc32_table(0, data), reference, "table, {what}");
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_short_inputs() {
        // Every length through several 16-byte blocks, at every
        // alignment: covers each remainder length after each block
        // count, below the carry-less-multiply kernel's threshold.
        let bytes = crc_bytes(0x5eed, 64);
        for offset in 0..16 {
            for len in 0..=64 {
                let window = &bytes[offset..offset + len];
                assert_both_kernels_match(window, &format!("{offset}+{len}"));
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_around_each_fold_boundary() {
        // 128 bytes is where the carry-less-multiply kernel takes over;
        // 192 and 256 add one and two 64-byte folds, and the lengths on
        // either side leave single 16-byte blocks and table-kernel tails.
        let bytes = crc_bytes(0xf01d, 257);
        for offset in 0..16 {
            for len in [127, 128, 129, 191, 192, 193, 255, 256, 257] {
                let window = &bytes[offset..offset + len];
                assert_both_kernels_match(window, &format!("{offset}+{len}"));
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_over_a_mebibyte() {
        let bytes = crc_bytes(0xb16, (1 << 20) + 13);
        assert_both_kernels_match(&bytes[3..], "1 MiB + 13 bytes at offset 3");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_the_bitwise_reference(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=4096,
            offset in 0usize..16,
        ) {
            let bytes = crc_bytes(seed, len);
            let window = &bytes[offset..offset + len];
            let reference = crc32_reference(window);
            proptest::prop_assert_eq!(crc32(window), reference);
            proptest::prop_assert_eq!(crc32_table(0, window), reference);
        }

        #[test]
        fn crc32_combine_equals_the_crc_of_the_concatenation(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=4096,
            cut in 0usize..=4096,
        ) {
            let bytes = crc_bytes(seed, len);
            let (a, b) = bytes[..len].split_at(cut.min(len));
            proptest::prop_assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&bytes[..len])
            );
        }

        #[test]
        fn crc32_update_continues_a_finished_crc(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=4096,
            cut in 0usize..=4096,
        ) {
            // crc32_update(crc32(a), b) == crc32(a ‖ b), whichever kernel
            // each side runs.
            let bytes = crc_bytes(seed, len);
            let (a, b) = bytes[..len].split_at(cut.min(len));
            let whole = crc32_reference(&bytes[..len]);
            proptest::prop_assert_eq!(crc32_update(crc32(a), b), whole);
            proptest::prop_assert_eq!(crc32_table(crc32_table(0, a), b), whole);
        }

        #[test]
        fn crc32_update_chains_over_any_split(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=4096,
            cuts in proptest::prelude::prop::collection::vec(0usize..=4096, 0..4),
        ) {
            let bytes = crc_bytes(seed, len);
            let data = &bytes[..len];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut crc = 0;
            let mut start = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc = crc32_update(crc, &data[start..cut]);
                start = cut;
            }
            proptest::prop_assert_eq!(crc, crc32(data));
        }

        #[test]
        fn both_word_folds_agree_with_check_invariants(
            seed in proptest::prelude::any::<u64>(),
            b1 in 8u32..=60,
            raw in proptest::prelude::any::<u64>(),
            flip in 0u32..64,
        ) {
            // A chunk of 64 valid words, then one damaged word at each
            // position: a random pattern, and a valid word with one bit
            // flipped (often still valid, sometimes not).
            let mut x = seed | 1;
            let words: Vec<u64> = (0..64)
                .map(|_| {
                    let mut word = HcbfWord::<u64>::new();
                    loop {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x % 7 == 0 || word.increment((x >> 8) as u32 % b1, b1).is_err() {
                            return *word.raw();
                        }
                    }
                })
                .collect();
            let holds = |w: u64| HcbfWord::from_raw(w).holds(b1);
            for at in 0..64 {
                for damaged in [raw, words[at] ^ (1 << flip)] {
                    let mut chunk = words.clone();
                    chunk[at] = damaged;
                    let all = chunk
                        .iter()
                        .all(|&w| HcbfWord::from_raw(w).check_invariants(b1).is_ok());
                    let bytes: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
                    proptest::prop_assert_eq!(
                        mpcbf_bitvec::simd::all_words_portable(&bytes, holds),
                        all
                    );
                    if let Some(avx2) = mpcbf_bitvec::simd::all_words_avx2(&bytes, holds) {
                        proptest::prop_assert_eq!(avx2, all);
                    }
                }
            }
        }
    }

    #[test]
    fn crc32_combine_joins_known_halves() {
        let (a, b) = (&b"12345"[..], &b"6789"[..]);
        assert_eq!(crc32_combine(crc32(a), crc32(b), 4), 0xCBF4_3926);
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
        assert_eq!(crc32_combine(0, crc32(b), 4), crc32(b));
    }

    #[test]
    fn every_sealed_image_checksums_to_the_residue() {
        for len in [0usize, 1, 7, 64, 4099] {
            let mut image = crc_bytes(len as u64, len);
            image.truncate(len);
            let crc = crc32(&image);
            image.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(crc32(&image), CRC32_RESIDUE, "{len} bytes");
        }
        assert_eq!(crc32(&loaded_mpcbf().encode()), CRC32_RESIDUE);
    }

    /// A source that hands out at most `step` bytes per read, so every
    /// field and chunk straddles reads.
    fn trickle(buf: &[u8], step: usize) -> std::io::BufReader<std::io::Cursor<&[u8]>> {
        std::io::BufReader::with_capacity(step, std::io::Cursor::new(buf))
    }

    #[test]
    fn streamed_decodes_equal_the_slice_decodes_at_any_read_size() {
        let mp = loaded_mpcbf().encode();
        let cbf = loaded_cbf().encode();
        let res = {
            let cfg = MpcbfConfig::builder()
                .memory_bits(256)
                .expected_items(1000)
                .hashes(3)
                .n_max(1)
                .seed(5)
                .build()
                .unwrap();
            let mut f: ResilientMpcbf<Murmur3> = ResilientMpcbf::new(cfg);
            for i in 0..200u64 {
                f.insert(&i).unwrap();
            }
            f.encode()
        };
        let elastic = loaded_elastic().encode();
        for step in [1usize, 3, 8, 4095, 1 << 16] {
            let (m, crc) =
                Mpcbf::<u64, Murmur3>::read_from(&mut trickle(&mp, step), mp.len() as u64);
            assert_eq!(m.unwrap().encode(), mp, "step {step}");
            assert_eq!(crc, CRC32_RESIDUE);
            let (c, _) = Cbf::<Murmur3>::read_from(&mut trickle(&cbf, step), cbf.len() as u64);
            assert_eq!(c.unwrap().encode(), cbf, "step {step}");
            let (r, _) =
                ResilientMpcbf::<Murmur3>::read_from(&mut trickle(&res, step), res.len() as u64);
            assert_eq!(r.unwrap().encode(), res, "step {step}");
            let (e, crc) = ElasticMpcbf::<Murmur3>::read_from(
                &mut trickle(&elastic, step),
                elastic.len() as u64,
            );
            assert_eq!(e.unwrap().encode(), elastic, "step {step}");
            assert_eq!(crc, CRC32_RESIDUE);
        }
    }

    #[test]
    fn a_stream_that_ends_early_is_a_read_error_not_a_verdict() {
        // The source holds fewer bytes than the length it was opened
        // with (a file that shrank): an I/O error, never Truncated or a
        // checksum verdict that would count the snapshot as corrupt.
        let image = loaded_mpcbf().encode();
        for cut in [6usize, 60, image.len() - 1] {
            let (result, _) =
                Mpcbf::<u64, Murmur3>::read_from(&mut &image[..cut], image.len() as u64);
            assert_eq!(
                result.err(),
                Some(CodecError::Io(std::io::ErrorKind::UnexpectedEof)),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn a_damaged_word_reports_the_checksum_first_and_consumes_the_image() {
        // Break a word's invariant: with the trailer left stale the CRC
        // verdict wins; re-sealed, the structural error shows. Either way
        // the reader consumes exactly the image, so a nesting reader stays
        // aligned, and the returned CRC covers every byte.
        let image = loaded_mpcbf().encode();
        let words_at = image.len() - 4 - 8 * loaded_mpcbf().shape().l as usize;
        let mut broken = image.clone();
        broken[words_at..words_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body = broken.len() - 4;
        let mut resealed = broken.clone();
        let crc = crc32(&resealed[..body]);
        resealed[body..].copy_from_slice(&crc.to_le_bytes());
        for (bytes, expect_crc_error) in [(&broken, true), (&resealed, false)] {
            let mut stream = bytes.clone();
            stream.extend_from_slice(b"NEXT");
            let mut src = &stream[..];
            let (result, all) = Mpcbf::<u64, Murmur3>::read_from(&mut src, bytes.len() as u64);
            let err = result.unwrap_err();
            assert_eq!(
                matches!(err, CodecError::ChecksumMismatch { .. }),
                expect_crc_error,
                "{err}"
            );
            if !expect_crc_error {
                assert_eq!(err, CodecError::BadHeader("word invariant"));
            }
            assert_eq!(src, b"NEXT");
            assert_eq!(all, crc32(bytes));
        }
    }

    /// The image of a filter of exactly `words` words, half of them
    /// holding a key, so the words are not all empty.
    fn image_of_words(words: usize) -> Vec<u8> {
        let cfg = MpcbfConfig::builder()
            .memory_bits(words as u64 * 64)
            .expected_items(words as u64 / 2)
            .hashes(3)
            .seed(words as u64)
            .build()
            .unwrap();
        let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
        assert_eq!(f.shape().l as usize, words);
        for i in 0..words as u64 / 2 {
            let _ = f.insert(&i);
        }
        f.encode()
    }

    /// Byte offset of word `i` in the image of a filter of `words` words.
    fn word_at(image: &[u8], words: usize, i: usize) -> usize {
        image.len() - 4 - 8 * words + 8 * i
    }

    /// `image` with its trailer recomputed over its (possibly altered)
    /// body: a well-sealed image.
    fn resealed(mut image: Vec<u8>) -> Vec<u8> {
        let body = image.len() - 4;
        let crc = crc32(&image[..body]);
        image[body..].copy_from_slice(&crc.to_le_bytes());
        image
    }

    /// Decodes `image` from a slice and streamed through `BufReader`s of
    /// 4 KiB, 256 KiB and 2 MiB (the block buffer, and in place): every
    /// verdict must agree. Each read must consume the whole image, and
    /// its CRC must cover every byte.
    fn decode_every_way(image: &[u8]) -> Result<Mpcbf<u64, Murmur3>, CodecError> {
        let slice = Mpcbf::<u64, Murmur3>::decode(image);
        for capacity in [4 << 10, 256 << 10, 2 << 20] {
            let mut stream = image.to_vec();
            stream.extend_from_slice(b"NEXT");
            let mut src = std::io::BufReader::with_capacity(capacity, &stream[..]);
            let (streamed, all) = Mpcbf::<u64, Murmur3>::read_from(&mut src, image.len() as u64);
            assert_eq!(
                streamed.as_ref().map(Mpcbf::encode).err(),
                slice.as_ref().map(Mpcbf::encode).err(),
                "capacity {capacity}"
            );
            if let (Ok(a), Ok(b)) = (&streamed, &slice) {
                assert_eq!(a.encode(), b.encode(), "capacity {capacity}");
            }
            let mut rest = Vec::new();
            std::io::Read::read_to_end(&mut src, &mut rest).unwrap();
            assert_eq!(rest, b"NEXT", "capacity {capacity}");
            assert_eq!(all, crc32(image), "capacity {capacity}");
        }
        slice
    }

    #[test]
    fn two_core_loads_equal_the_encoded_filter_at_every_source() {
        // One word short of a block (inline), a block, a block and a word
        // (a one-word last block, inline), and an odd count whose last
        // block of three chunks and five words is shared unevenly.
        let odd = 2 * LOAD_BLOCK_WORDS + 3 * LOAD_CHUNK_WORDS + 5;
        for words in [
            LOAD_BLOCK_WORDS - 1,
            LOAD_BLOCK_WORDS,
            LOAD_BLOCK_WORDS + 1,
            odd,
        ] {
            let image = image_of_words(words);
            let decoded = decode_every_way(&image).unwrap();
            assert_eq!(decoded.encode(), image, "{words} words");
        }
    }

    /// Words at the chunk boundaries a two-core load shares out: the
    /// first and last of a block, both sides of its first and of its
    /// middle chunk boundary, and the first of the next block.
    fn boundary_words() -> [usize; 7] {
        let mid = LOAD_BLOCK_WORDS / 2;
        [
            0,
            LOAD_CHUNK_WORDS - 1,
            LOAD_CHUNK_WORDS,
            mid - 1,
            mid,
            LOAD_BLOCK_WORDS - 1,
            LOAD_BLOCK_WORDS,
        ]
    }

    #[test]
    fn a_flipped_byte_in_any_chunk_reports_the_checksum() {
        // Whichever thread takes the chunk, its CRC must join in place.
        let words = 2 * LOAD_BLOCK_WORDS;
        let image = image_of_words(words);
        for i in boundary_words() {
            let mut damaged = image.clone();
            damaged[word_at(&image, words, i) + 3] ^= 0x10;
            let err = decode_every_way(&damaged).unwrap_err();
            assert!(
                matches!(err, CodecError::ChecksumMismatch { .. }),
                "word {i}: {err}"
            );
        }
    }

    #[test]
    fn a_resealed_broken_word_in_any_chunk_is_a_word_error() {
        // A well-sealed image with one broken word: the structural
        // error, not a checksum, wherever the word sits and whichever
        // thread checks it; the last word of the image too.
        let words = 2 * LOAD_BLOCK_WORDS + 1;
        let image = image_of_words(words);
        for i in boundary_words().into_iter().chain([words - 1]) {
            let mut broken = image.clone();
            let at = word_at(&image, words, i);
            broken[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = decode_every_way(&resealed(broken)).unwrap_err();
            assert_eq!(err, CodecError::BadHeader("word invariant"), "word {i}");
        }
    }

    #[test]
    fn a_stream_that_ends_mid_block_is_a_read_error() {
        let words = 2 * LOAD_BLOCK_WORDS;
        let image = image_of_words(words);
        for i in [1, LOAD_BLOCK_WORDS / 2 + 1, LOAD_BLOCK_WORDS + 3, words - 1] {
            let cut = word_at(&image, words, i) + 5;
            let short = &image[..cut];
            let (in_place, _) = Mpcbf::<u64, Murmur3>::read_from(&mut &*short, image.len() as u64);
            let (buffered, _) = Mpcbf::<u64, Murmur3>::read_from(
                &mut std::io::BufReader::with_capacity(4 << 10, short),
                image.len() as u64,
            );
            for result in [in_place, buffered] {
                assert_eq!(
                    result.err(),
                    Some(CodecError::Io(std::io::ErrorKind::UnexpectedEof)),
                    "cut in word {i}"
                );
            }
        }
    }

    #[test]
    fn nested_lengths_past_the_body_are_truncation_before_allocation() {
        // A resilient image whose main-image length claims more bytes
        // than the body holds: refused before anything nested is read.
        let mut w = Writer::new(KIND_RESILIENT);
        w.u64(u64::MAX);
        let image = w.finish();
        assert_eq!(
            ResilientMpcbf::<Murmur3>::decode(&image).err(),
            Some(CodecError::Truncated)
        );
    }

    #[test]
    fn resilient_roundtrip_is_deterministic_and_preserves_spill() {
        let cfg = MpcbfConfig::builder()
            .memory_bits(256)
            .expected_items(1000)
            .hashes(3)
            .n_max(1)
            .seed(5)
            .build()
            .unwrap();
        let mut f: ResilientMpcbf<Murmur3> = ResilientMpcbf::new(cfg);
        for i in 0..200u64 {
            f.insert(&i).unwrap();
        }
        assert!(f.spill_occupancy() > 0, "tiny shape must spill");
        let image = f.encode();
        // Determinism: re-encoding the same logical state is byte-identical
        // (spill entries are sorted, HashMap order doesn't leak through).
        assert_eq!(image, f.encode());
        let d = ResilientMpcbf::<Murmur3>::decode(&image).unwrap();
        assert_eq!(d.items(), f.items());
        assert_eq!(d.spill_occupancy(), f.spill_occupancy());
        assert_eq!(d.spill_keys(), f.spill_keys());
        assert_eq!(d.spilled_inserts(), f.spilled_inserts());
        assert_eq!(d.main().raw_words(), f.main().raw_words());
        for i in 0..200u64 {
            assert!(d.contains(&i), "false negative for {i} after roundtrip");
        }
        assert_eq!(d.encode(), image);
        // The decoded filter keeps working.
        let mut d = d;
        d.remove(&3u64).unwrap();
    }

    #[test]
    fn resilient_bitflips_and_truncation_are_detected() {
        let cfg = MpcbfConfig::builder()
            .memory_bits(256)
            .expected_items(1000)
            .hashes(3)
            .n_max(1)
            .seed(9)
            .build()
            .unwrap();
        let mut f: ResilientMpcbf<Murmur3> = ResilientMpcbf::new(cfg);
        for i in 0..150u64 {
            f.insert(&i).unwrap();
        }
        let image = f.encode();
        for pos in [0usize, 4, 5, 40, image.len() / 2, image.len() - 1] {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                ResilientMpcbf::<Murmur3>::decode(&corrupt).is_err(),
                "bitflip at {pos} went undetected"
            );
        }
        for cut in [0usize, 5, 10, image.len() / 3, image.len() - 3] {
            assert!(
                ResilientMpcbf::<Murmur3>::decode(&image[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn crafted_huge_lengths_error_instead_of_aborting() {
        // A CRC-valid image whose length field claims more limbs than
        // any buffer could hold must fail cleanly, not OOM.
        let mut w = Writer::new(KIND_MPCBF64);
        w.u64(u64::MAX / 8); // l
        w.u32(3); // k
        w.u32(1); // g
        w.u32(0); // n_max
        w.u64(1); // seed
        w.u64(0); // items
        w.u64(0); // overflows
        let image = w.finish();
        assert!(Mpcbf::<u64, Murmur3>::decode(&image).is_err());

        let mut w = Writer::new(KIND_CBF);
        w.u64(u64::MAX / 2); // len: len*width overflows usize
        w.u32(32); // width
        w.u32(3); // k
        w.u64(1); // seed
        w.u32(64); // word_bits
        w.u64(0); // items
        w.u64(0); // saturations
        let image = w.finish();
        assert!(Cbf::<Murmur3>::decode(&image).is_err());
    }

    #[test]
    fn cbf_with_set_padding_bits_is_refused() {
        // 100 four-bit counters fill 6¼ limbs; a sealed image whose last
        // limb sets a bit past them decodes only up to that check.
        let image = |last: u64| {
            let mut w = Writer::new(KIND_CBF);
            w.u64(100); // len
            w.u32(4); // width
            w.u32(3); // k
            w.u64(1); // seed
            w.u32(64); // word_bits
            w.u64(0); // items
            w.u64(0); // saturations
            w.limbs([0, 0, 0, 0, 0, 0, last]);
            w.finish()
        };
        assert!(Cbf::<Murmur3>::decode(&image(0xffff)).is_ok());
        assert_eq!(
            Cbf::<Murmur3>::decode(&image(1 << 16)).err(),
            Some(CodecError::BadHeader("counter padding"))
        );
    }

    fn loaded_elastic() -> ElasticMpcbf<Murmur3> {
        let cfg = MpcbfConfig::builder()
            .memory_bits(32_768)
            .expected_items(500)
            .hashes(3)
            .seed(31)
            .build()
            .unwrap();
        let mut f: ElasticMpcbf<Murmur3> =
            ElasticMpcbf::manual(cfg, crate::policy::CapacityPolicy::default()).unwrap();
        for i in 0..5_000u64 {
            f.insert(&i).unwrap();
        }
        let spec = f.scale_plan().expect("overload must park a plan");
        f.apply_scale(&spec).unwrap();
        for i in 5_000..6_000u64 {
            f.insert(&i).unwrap();
        }
        f
    }

    #[test]
    fn elastic_roundtrip_is_deterministic_and_preserves_the_stack() {
        let f = loaded_elastic();
        assert!(f.generation_count() >= 2);
        let image = f.encode();
        assert_eq!(image, f.encode(), "encoding must be deterministic");
        let d = ElasticMpcbf::<Murmur3>::decode(&image).unwrap();
        assert_eq!(d.generation_count(), f.generation_count());
        assert_eq!(d.items(), f.items());
        assert_eq!(d.scale_events(), f.scale_events());
        assert_eq!(d.generation_infos(), f.generation_infos());
        for i in 0..6_000u64 {
            assert!(d.contains(&i), "false negative for {i} after roundtrip");
        }
        assert_eq!(d.encode(), image);
        // The decoded filter keeps working: removals route by roster.
        let mut d = d;
        for i in 0..6_000u64 {
            d.remove(&i).unwrap();
        }
        assert_eq!(d.items(), 0);
    }

    #[test]
    fn elastic_mid_migration_roundtrip_resumes_compaction() {
        let mut f = loaded_elastic();
        assert!(f.begin_compaction());
        f.step_compaction(100);
        assert!(f.compacting(), "partial step must leave work");
        let image = f.encode();
        let mut d = ElasticMpcbf::<Murmur3>::decode(&image).unwrap();
        assert!(d.compacting(), "migration must survive the roundtrip");
        assert_eq!(d.items(), f.items());
        // Both copies drain to the same final state.
        while d.step_compaction(512) > 0 {}
        while f.step_compaction(512) > 0 {}
        assert_eq!(d.generation_count(), f.generation_count());
        assert_eq!(d.items(), f.items());
        for i in 0..6_000u64 {
            assert!(d.contains(&i));
        }
        assert_eq!(d.encode(), f.encode(), "resumed stacks must converge");
    }

    #[test]
    fn elastic_bitflips_and_truncation_are_detected() {
        let image = loaded_elastic().encode();
        for pos in [0usize, 4, 5, 30, 80, image.len() / 2, image.len() - 1] {
            let mut corrupt = image.clone();
            corrupt[pos] ^= 0x20;
            assert!(
                ElasticMpcbf::<Murmur3>::decode(&corrupt).is_err(),
                "bitflip at {pos} went undetected"
            );
        }
        for cut in [0usize, 5, 20, image.len() / 3, image.len() - 3] {
            assert!(
                ElasticMpcbf::<Murmur3>::decode(&image[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn streamed_encoders_match_the_in_memory_image() {
        let images: [(Vec<u8>, Vec<u8>, u64); 3] = {
            let cbf = loaded_cbf();
            let mpcbf = loaded_mpcbf();
            let elastic = loaded_elastic();
            let measure = |m: Measure| m.bytes;
            [
                (
                    cbf.encode(),
                    cbf.encode_to(Vec::new()),
                    measure(cbf.encode_to(Measure::default())),
                ),
                (
                    mpcbf.encode(),
                    mpcbf.encode_to(Vec::new()),
                    measure(mpcbf.encode_to(Measure::default())),
                ),
                (
                    elastic.encode(),
                    elastic.encode_to(Vec::new()),
                    measure(elastic.encode_to(Measure::default())),
                ),
            ]
        };
        for (image, streamed, measured) in images {
            assert_eq!(streamed, image);
            assert_eq!(measured, image.len() as u64);
        }
    }

    #[test]
    fn limbs_stream_in_chunks_without_changing_the_bytes() {
        // Every count around the chunk size, and two chunks over.
        for count in [0usize, 1, 511, 512, 513, 1024, 1025, 1500] {
            let limbs: Vec<u64> = (0..count as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let mut w = Writer::new(KIND_MPCBF64);
            w.limbs(limbs.iter().copied());
            let image = w.finish();
            let mut expected = b"MPCB\x02\x01".to_vec();
            for l in &limbs {
                expected.extend_from_slice(&l.to_le_bytes());
            }
            let crc = crc32(&expected);
            expected.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(image, expected, "{count} limbs");
            // A source without an exact length is still measured right.
            let mut measured = Writer::framed(Measure::default(), KIND_MPCBF64);
            measured.limbs(limbs.iter().copied().filter(|_| true));
            assert_eq!(measured.finish().bytes, expected.len() as u64);
        }
    }

    #[test]
    fn errors_display() {
        let e = CodecError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
    }
}
