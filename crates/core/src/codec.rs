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
//! struct layout. Decoding validates the checksum, the magic, and every
//! structural invariant before constructing a filter.

use crate::cbf::Cbf;
use crate::config::MpcbfConfig;
use crate::mpcbf::Mpcbf;
use crate::traits::Filter;
use mpcbf_hash::Hasher128;

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
/// Image kind byte for [`ResilientMpcbf`] (main + gate + spill map).
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

/// Slicing-by-8 tables: `CRC_TABLES[0][b]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[t][b]` is the CRC contribution of byte `b`
/// followed by `t` zero bytes. Built at compile time (8 KiB, static).
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        while t < 8 {
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
/// each checkpoint and cold start, MPSS snapshot envelopes, WAL frames,
/// and the per-segment seals of scrubs. It therefore runs slicing-by-8
/// (eight table lookups per 8 input bytes, no data-dependent branches),
/// several times the throughput of a bit-at-a-time loop, with output
/// bit-identical to it so every stored image stays valid.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends a finished CRC-32 with more bytes: for any split,
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and `crc32_update(0, x)`
/// is `crc32(x)`. Lets callers checksum data that is not contiguous in
/// memory (e.g. a segment of words read in place) without copying it.
#[inline]
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

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

/// Builds a framed image: magic + kind + version, caller-appended
/// fields, and a trailing CRC-32 sealed by [`Writer::finish`].
///
/// Public so sibling crates (e.g. `mpcbf-concurrent`'s sharded codec and
/// the durability crate's snapshots) can emit images in the same framed
/// format without re-implementing the envelope.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an image of the given kind byte (see the `KIND_*` consts).
    pub fn new(kind: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        buf.push(kind);
        buf.push(VERSION);
        Writer { buf }
    }

    /// Reserves room for `bytes` more bytes, so an image whose size is
    /// known up front is written without regrowing its buffer.
    pub fn reserve(&mut self, bytes: usize) {
        self.buf.reserve(bytes);
    }

    /// Appends a little-endian u32 field.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64 field.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim (callers encode the length separately).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends limbs as little-endian u64s, straight from any source
    /// (a slice, or words read in place under a lock) without staging
    /// them in a `Vec<u64>` first.
    pub fn limbs(&mut self, limbs: impl IntoIterator<Item = u64>) {
        let limbs = limbs.into_iter();
        self.buf.reserve(limbs.size_hint().0 * 8);
        for l in limbs {
            self.buf.extend_from_slice(&l.to_le_bytes());
        }
    }

    /// Seals the image with its CRC-32 and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

/// Cursor over a framed image previously produced by [`Writer`].
///
/// [`Reader::open`] validates the envelope (magic, kind, version, CRC)
/// before any field is read, and every accessor bounds-checks against
/// the body — malformed input yields [`CodecError`], never a panic and
/// never an unbounded allocation.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates magic/kind/version/CRC and positions after the header.
    pub fn open(buf: &'a [u8], kind: u8) -> Result<Self, CodecError> {
        if buf.len() < MAGIC.len() + 2 + 4 {
            return Err(CodecError::Truncated);
        }
        if &buf[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if buf[4] != kind {
            return Err(CodecError::UnknownKind(buf[4]));
        }
        if buf[5] != VERSION {
            return Err(CodecError::UnsupportedVersion(buf[5]));
        }
        let body = &buf[..buf.len() - 4];
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(Reader { buf: body, pos: 6 })
    }

    /// Reads a little-endian u32 field.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let end = self.pos + 4;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let v = u32::from_le_bytes(self.buf[self.pos..end].try_into().expect("4 bytes"));
        self.pos = end;
        Ok(v)
    }

    /// Reads a little-endian u64 field.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let end = self.pos + 8;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    /// Reads `count` raw bytes, bounds-checked against the body.
    pub fn bytes(&mut self, count: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(count)
            .ok_or(CodecError::BadHeader("byte run overflows"))?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let b = &self.buf[self.pos..end];
        self.pos = end;
        Ok(b)
    }

    /// Body bytes not yet consumed (excludes the CRC trailer).
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads `count` little-endian u64 limbs in place, bounds-checked
    /// once for the whole run: callers check and install each limb
    /// straight into its destination, or collect them.
    ///
    /// The count is validated against the remaining body before anything
    /// is read: a CRC-valid image with a crafted huge length field
    /// produces [`CodecError::Truncated`], never an OOM abort.
    pub fn limbs(
        &mut self,
        count: usize,
    ) -> Result<impl ExactSizeIterator<Item = u64> + 'a, CodecError> {
        let need = count
            .checked_mul(8)
            .ok_or(CodecError::BadHeader("limb count overflows"))?;
        Ok(self
            .bytes(need)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))))
    }

    /// Fails unless every body byte has been consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::BadHeader("trailing bytes"))
        }
    }
}

impl<H: Hasher128> Cbf<H> {
    /// Encodes the filter into the portable wire format.
    pub fn encode(&self) -> Vec<u8> {
        let (limbs, len, width, saturations) = self.raw_parts();
        let mut w = Writer::new(KIND_CBF);
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
        let mut r = Reader::open(buf, KIND_CBF)?;
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
        let limbs = r.limbs(limb_count)?.collect();
        r.expect_end()?;
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
        let shape = self.shape();
        let mut w = Writer::new(KIND_MPCBF64);
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
        let mut r = Reader::open(buf, KIND_MPCBF64)?;
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
        let limbs: Vec<u64> = r.limbs(l as usize)?.collect();
        r.expect_end()?;
        // Reject corrupted words: every word must satisfy the HCBF
        // capacity invariant for this b1.
        let b1 = config.shape().b1;
        for (i, &raw) in limbs.iter().enumerate() {
            let word = crate::hcbf::HcbfWord::<u64>::from_raw(raw);
            if word.check_invariants(b1).is_err() {
                let _ = i;
                return Err(CodecError::BadHeader("word invariant"));
            }
        }
        Ok(Self::from_raw_parts(config, limbs, items, overflows))
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

    /// Decodes a filter previously produced by [`ResilientMpcbf::encode`].
    ///
    /// Both nested images revalidate their own envelopes, and every
    /// spill entry is bounds-checked — a malformed image errors, it
    /// never panics or fabricates spill state.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::open(buf, KIND_RESILIENT)?;
        let main_len = r.u64()? as usize;
        let main = Mpcbf::<u64, H>::decode(r.bytes(main_len)?)?;
        let gate_len = r.u64()? as usize;
        let gate = Cbf::<H>::decode(r.bytes(gate_len)?)?;
        let spilled_inserts = r.u64()?;
        let entry_count = r.u64()?;
        // Each entry is at least 8 bytes on the wire, so the remaining
        // body bounds the plausible count before anything is allocated.
        if entry_count > (r.remaining() as u64) / 8 {
            return Err(CodecError::BadHeader("spill entry count"));
        }
        let mut exact = std::collections::HashMap::with_capacity(entry_count as usize);
        for _ in 0..entry_count {
            let klen = r.u32()? as usize;
            let key = r.bytes(klen)?.to_vec();
            let mult = r.u32()?;
            if mult == 0 {
                return Err(CodecError::BadHeader("zero spill multiplicity"));
            }
            if exact.insert(key, mult).is_some() {
                return Err(CodecError::BadHeader("duplicate spill key"));
            }
        }
        r.expect_end()?;
        Ok(Self::from_spill_parts(main, gate, exact, spilled_inserts))
    }
}

/// Encodes one sorted roster (key → multiplicity) into `w`.
fn encode_roster(w: &mut Writer, roster: &std::collections::HashMap<Vec<u8>, u32>) {
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
    if entry_count > (r.remaining() as u64) / 8 {
        return Err(CodecError::BadHeader("roster entry count"));
    }
    let mut roster = std::collections::HashMap::with_capacity(entry_count as usize);
    for _ in 0..entry_count {
        let klen = r.u32()? as usize;
        let key = r.bytes(klen)?.to_vec();
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
    /// [`decode`]: ElasticMpcbf::decode
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_ELASTIC);
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

    /// Decodes a filter previously produced by [`ElasticMpcbf::encode`].
    ///
    /// Every nested resilient image revalidates its own envelope, the
    /// policy is re-validated, generation ids must be strictly increasing
    /// below `next_id`, each roster's total multiplicity must equal its
    /// filter's item count, and migration source ids must name sealed
    /// generations — a malformed image errors, never panics, and never
    /// fabricates a stack that the filter's own invariants would reject.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        use crate::elastic::{BaseParams, Generation, ScaleSpec};
        use crate::policy::CapacityPolicy;

        let mut r = Reader::open(buf, KIND_ELASTIC)?;
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
        if gen_count == 0 || gen_count > (r.remaining() as u64) / 32 {
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
            let image_len = r.u64()? as usize;
            let filter = crate::resilient::ResilientMpcbf::<H>::decode(r.bytes(image_len)?)?;
            let roster = decode_roster(&mut r)?;
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
            if count > (r.remaining() as u64) / 8 {
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
        r.expect_end()?;
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

    /// `len + 8` bytes from a seed, so every start offset 0..8 of a
    /// `len`-byte window exists.
    fn crc_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_on_short_inputs() {
        // Every length through several 8-byte chunks, at every alignment:
        // covers each remainder length after each chunk count.
        let bytes = crc_bytes(0x5eed, 64);
        for offset in 0..8 {
            for len in 0..=64 {
                let window = &bytes[offset..offset + len];
                assert_eq!(crc32(window), crc32_reference(window), "{offset}+{len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_matches_the_bitwise_reference(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..=4096,
            offset in 0usize..8,
        ) {
            let bytes = crc_bytes(seed, len);
            let window = &bytes[offset..offset + len];
            proptest::prop_assert_eq!(crc32(window), crc32_reference(window));
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
    fn errors_display() {
        let e = CodecError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(CodecError::BadMagic.to_string().contains("magic"));
    }
}
