//! Correctness gates and the measurements they rest on: the probed false
//! positive rate against the analytic MPCBF bound, and the served
//! filter's final image against the replica's.

use crate::keys::Keys;
use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_analysis::mpcbf::fpr_mpcbf_g_b1;
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_durability::{decode_envelope, KillSwitch, SnapshotStore};
use mpcbf_hash::Murmur3;
use std::path::Path;

/// Absent keys probed for the false-positive rate. At the ~1e-3 rate of
/// the 80-bits-per-key shapes this is ~30 000 false positives. Counting
/// noise then adds less to the rate's spread across seeds than the
/// filters themselves do (interquartile range under 1 % of the median
/// for the Table II shape).
pub const FPR_PROBES: u64 = 1 << 25;

/// A measured rate may exceed the analytic one by this factor before the
/// run fails.
const FPR_SLACK: f64 = 1.5;

/// Share of `probes` absent keys `contains` claims present.
pub fn fpr(keys: &Keys, probes: u64, mut contains: impl FnMut(&[&[u8]]) -> Vec<bool>) -> f64 {
    let mut hits = 0u64;
    let mut batch = Vec::with_capacity(4096);
    let mut i = 0u64;
    while i < probes {
        let end = (i + 4096).min(probes);
        keys.absent_batch(i..end, &mut batch);
        let views: Vec<&[u8]> = batch.iter().map(|k| &k[..]).collect();
        hits += contains(&views).iter().filter(|&&h| h).count() as u64;
        i = end;
    }
    hits as f64 / probes as f64
}

/// Fails when `measured` exceeds the analytic MPCBF-g rate (Eqs. 4/8
/// with the filter's own first-level size) by more than the slack.
pub fn fpr_within_bound(measured: f64, items: u64, shape: &MpcbfShape) -> Result<(), String> {
    let analytic = fpr_mpcbf_g_b1(items, shape.l, shape.k, shape.g, shape.b1);
    if measured > analytic * FPR_SLACK {
        Err(format!(
            "false-positive rate {measured:.6} exceeds {FPR_SLACK} x the analytic {analytic:.6}"
        ))
    } else {
        Ok(())
    }
}

/// The filter image inside the newest snapshot of a served directory.
/// (`snap` is the prefix the sharded durability layer writes.)
pub fn served_image(dir: &Path) -> Result<Vec<u8>, String> {
    let store = SnapshotStore::new(dir, "snap", KillSwitch::new())
        .map_err(|e| format!("open snapshots: {e}"))?;
    let (latest, _) = store
        .load_latest_with(|bytes| decode_envelope(bytes).map(|(_, image)| image.to_vec()))
        .map_err(|e| format!("read snapshots: {e}"))?;
    latest
        .map(|(_, image)| image)
        .ok_or_else(|| format!("no readable snapshot in {}", dir.display()))
}

/// After every fresh key has been removed, the served filter must hold
/// exactly its members again: its final checkpoint must equal the
/// replica built in process, bit for bit.
pub fn served_equals_replica(
    dir: &Path,
    replica: &ShardedMpcbf<u64, Murmur3>,
) -> Result<(), String> {
    if served_image(dir)? == replica.encode() {
        Ok(())
    } else {
        Err("the served filter's final snapshot differs from the preloaded members".into())
    }
}
