//! Inputs: every key a run uses is a function of the workload seed.
//!
//! Members come from the same [`BulkKeys`] stream `mpcbf build --bulk
//! --synthetic N --seed S` ingests, so the preloaded server, the
//! in-process replica and the benchmark agree on the member set without
//! shipping keys around. Fresh keys (inserted and removed during the run)
//! and absent keys (never inserted) come from two disjoint streams: key
//! `i` of any stream ends in `i`, and streams differ in the first half,
//! so no key appears in two of them.

use mpcbf_workloads::{BulkKeys, BULK_KEY_LEN};
use std::ops::Range;

const FRESH_SALT: u64 = 0x6672_6573_685f_6b65; // "fresh_ke"
const ABSENT_SALT: u64 = 0x6162_7365_6e74_5f6b; // "absent_k"

/// How many candidate seeds are tried before giving up (each fails with
/// probability well under one half, see [`first_admitting`]).
const MAX_ATTEMPTS: u64 = 16;

pub struct Keys {
    /// The seed the filter and the member stream are built with.
    pub seed: u64,
    pub members: u64,
    member: BulkKeys,
    fresh: BulkKeys,
    absent: BulkKeys,
}

impl Keys {
    pub fn new(seed: u64, members: u64) -> Keys {
        Keys {
            seed,
            members,
            member: BulkKeys::new(seed, members),
            fresh: BulkKeys::new(seed ^ FRESH_SALT, u64::MAX),
            absent: BulkKeys::new(seed ^ ABSENT_SALT, u64::MAX),
        }
    }

    pub fn member(&self, i: u64) -> Vec<u8> {
        self.member.key(i % self.members).to_vec()
    }

    pub fn fresh(&self, i: u64) -> Vec<u8> {
        self.fresh.key(i).to_vec()
    }

    pub fn absent(&self, i: u64) -> Vec<u8> {
        self.absent.key(i).to_vec()
    }

    /// Absent keys `range` into `out`, without an allocation per key.
    pub fn absent_batch(&self, range: Range<u64>, out: &mut Vec<[u8; BULK_KEY_LEN]>) {
        out.clear();
        out.extend(range.map(|i| self.absent.key(i)));
    }

    /// Visits every member key in stream order.
    pub fn for_each_member(&self, mut f: impl FnMut(&[u8])) {
        self.member.for_each_chunk(8_192, |chunk| {
            for key in chunk {
                f(key);
            }
        });
    }
}

/// The `attempt`-th candidate filter seed for a workload seed; the
/// first candidate is the workload seed itself.
pub fn candidate(seed: u64, attempt: u64) -> u64 {
    seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// How a run's inputs were chosen. Every result records it, and
/// `compare` refuses to pair two runs whose inputs differ: a change that
/// makes overflows likelier shows up here instead of silently running on
/// other keys.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The seed the members, fresh and absent keys were drawn from.
    pub input_seed: u64,
    /// Candidate seeds skipped before it because a member overflowed.
    pub seeds_skipped: u64,
    /// Fresh-key candidates skipped because they would have overflowed.
    pub fresh_refused: u64,
}

/// The first candidate seed whose member set loads without a single
/// word overflow, how many candidates were skipped, and whatever
/// `build` produced for it.
///
/// The paper's `n_max` heuristic (Eq. 11) sizes words so that *fewer
/// than one* overflows in expectation, which still leaves some seeds
/// with a refused member — a false negative the benchmark would report
/// as a failure. Skipping those seeds keeps every run failure-free
/// while the same workload seed still picks the same inputs.
pub fn first_admitting<T>(
    seed: u64,
    mut build: impl FnMut(u64) -> (T, bool),
) -> Result<(u64, u64, T), String> {
    for attempt in 0..MAX_ATTEMPTS {
        let s = candidate(seed, attempt);
        let (built, admitted) = build(s);
        if admitted {
            return Ok((s, attempt, built));
        }
    }
    Err(format!(
        "no seed among {MAX_ATTEMPTS} candidates for {seed} loads without overflow"
    ))
}

/// `need` fresh keys that all fit in the filter at once, and how many
/// candidates were refused. Candidates go through `admit` — an in-order
/// insert into a scratch copy of the filter — and refused ones are
/// skipped. Any subset of an admitted set fits as well, so no fresh
/// insert the run makes can overflow a word.
pub fn admitted_fresh(
    keys: &Keys,
    need: usize,
    mut admit: impl FnMut(&[&[u8]]) -> Vec<bool>,
) -> Result<(Vec<Vec<u8>>, u64), String> {
    let mut accepted = Vec::with_capacity(need);
    let mut refused = 0u64;
    let mut next = 0u64;
    while accepted.len() < need {
        if next > 2 * need as u64 + (1 << 16) {
            return Err("fresh keys keep overflowing the filter".into());
        }
        let batch: Vec<Vec<u8>> = (next..next + 4096).map(|i| keys.fresh(i)).collect();
        next += 4096;
        let views: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let admitted = admit(&views);
        for (key, ok) in batch.into_iter().zip(admitted) {
            if accepted.len() == need {
                break;
            }
            if ok {
                accepted.push(key);
            } else {
                refused += 1;
            }
        }
    }
    Ok((accepted, refused))
}

/// Deals keys into `conns` rings of `ring` batches of `batch` keys.
pub fn rings(
    keys: Vec<Vec<u8>>,
    conns: usize,
    ring: usize,
    batch: usize,
) -> Vec<Vec<Vec<Vec<u8>>>> {
    let mut it = keys.into_iter();
    (0..conns)
        .map(|_| {
            (0..ring)
                .map(|_| it.by_ref().take(batch).collect())
                .collect()
        })
        .collect()
}

/// xorshift64*: a tiny deterministic generator for sampling inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_disjoint_and_seeded() {
        let keys = Keys::new(7, 1_000);
        let mut seen = HashSet::new();
        for i in 0..1_000 {
            assert!(seen.insert(keys.member(i)));
            assert!(seen.insert(keys.fresh(i)));
            assert!(seen.insert(keys.absent(i)));
        }
        assert_eq!(Keys::new(7, 1_000).fresh(3), keys.fresh(3));
        assert_ne!(Keys::new(8, 1_000).fresh(3), keys.fresh(3));
        let mut members = Vec::new();
        keys.for_each_member(|k| members.push(k.to_vec()));
        assert_eq!(members.len(), 1_000);
        assert_eq!(members[5], keys.member(5));
    }

    #[test]
    fn first_admitting_skips_refused_seeds() {
        let (seed, skipped, built) =
            first_admitting(10, |s| (s, s != candidate(10, 0))).expect("second candidate");
        assert_eq!((seed, skipped), (candidate(10, 1), 1));
        assert_eq!(built, seed);
        assert_eq!(candidate(10, 0), 10);
        assert!(first_admitting(10, |_| ((), false)).is_err());
    }

    #[test]
    fn admitted_fresh_skips_refusals_and_deals_rings() {
        let keys = Keys::new(3, 10);
        let mut seen = 0usize;
        // Refuse every third candidate.
        let (fresh, refused) = admitted_fresh(&keys, 5_000, |batch| {
            let out = (seen..seen + batch.len()).map(|i| i % 3 != 0).collect();
            seen += batch.len();
            out
        })
        .expect("enough admitted keys");
        assert_eq!(fresh.len(), 5_000);
        // Candidates 0, 3, ..., 7497 were refused on the way to the
        // 5000th admitted one (candidate 7499).
        assert_eq!(refused, 2_500);
        assert_eq!(fresh[0], keys.fresh(1));
        assert_eq!(fresh[2], keys.fresh(4));
        let dealt = rings(fresh.clone(), 2, 10, 250);
        assert_eq!(dealt.len(), 2);
        assert_eq!(dealt[1][9].len(), 250);
        assert_eq!(dealt[1][9][249], fresh[4_999]);
        assert!(admitted_fresh(&keys, 10, |b| vec![false; b.len()]).is_err());
    }

    #[test]
    fn rng_is_uniform_enough() {
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (9_000..11_000).contains(&c)),
            "{counts:?}"
        );
    }
}
