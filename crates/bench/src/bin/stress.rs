//! Differential stress harness: drives every counting filter with a
//! randomized insert/remove/query/churn/codec mix against an exact
//! multiset oracle, for as many rounds as you give it.
//!
//! ```text
//! cargo run --release -p mpcbf-bench --bin stress              # ~1 M ops
//! cargo run --release -p mpcbf-bench --bin stress -- --scale 10  # quick
//! ```
//!
//! This is the "leave it running" layer above the proptest suites: no
//! shrinking, but far more operations, periodic invariant sweeps, and
//! codec round-trips injected mid-stream (encode → decode → continue),
//! which property tests don't interleave.
//!
//! With `--telemetry` the binary instead runs the metered validation
//! replay (see `mpcbf_bench::telemetry`): the synthetic workload streams
//! through the `*_batch_metered` pipeline into per-contender `Telemetry`
//! registries, the Prometheus pages and `BENCH_telemetry.json` are
//! emitted, and the measured mean accesses must match Table II/III within
//! tolerance or the process exits non-zero.
//!
//! With `--faults SEED` the binary instead replays the seeded
//! fault-injection campaign (see `mpcbf_workloads::faults`): every
//! injected bit flip must be caught by `scrub()`, every poisoned shard by
//! the epoch scrub, every dropped/duplicated batch op by population
//! accounting, every forced overflow absorbed by `ResilientMpcbf` with
//! zero false negatives, every failed batch insert must leave the
//! filter bit-identical, and every seeded kill point (crash mid-append,
//! mid-fsync, mid-snapshot-write, mid-rename, mid-truncate) must recover
//! bit-exactly through the durability layer. Any violation panics,
//! failing CI.
//!
//! With `--drill-matrix` the campaign runs over every seed in
//! [`mpcbf_workloads::DRILL_SEEDS`] — the exact matrix CI executes.
//!
//! With `--ramp` the binary instead runs the elastic capacity drill: a
//! 10x phased key ramp (`mpcbf_workloads::RampSpec`) against a
//! manual-mode `ElasticMpcbf`, asserting zero false negatives on the
//! live set and empirical FPR within the analytic stacked-generation
//! envelope at every phase boundary *and at sampled points inside an
//! in-flight compaction*. Any violation panics, failing CI.

use mpcbf_bench::Args;
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::scrub::SEGMENT_WORDS;
use mpcbf_core::{Cbf, CountingFilter, Filter, Mpcbf, MpcbfConfig, ResilientMpcbf};
use mpcbf_durability::{
    encode_frame, DurabilityOptions, DurableSharded, KillSite, KillSwitch, WalOp, WalRecord,
};
use mpcbf_hash::Murmur3;
use mpcbf_variants::{DlCbf, Rcbf, ViCbf};
use mpcbf_workloads::driver::{replay_synthetic, replay_synthetic_faulty};
use mpcbf_workloads::synthetic::{SyntheticSpec, SyntheticWorkload};
use mpcbf_workloads::{FaultMix, FaultPlan, RampSpec, DRILL_SEEDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;

const KEY_SPACE: u64 = 5_000;

struct Driver {
    oracle: HashMap<u64, u32>,
    rng: StdRng,
    ops: u64,
    removes_rejected: u64,
    inserts_refused: u64,
}

impl Driver {
    fn new(seed: u64) -> Self {
        Driver {
            oracle: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            ops: 0,
            removes_rejected: 0,
            inserts_refused: 0,
        }
    }

    /// One random operation; panics on any contract violation.
    fn step<F: CountingFilter>(&mut self, f: &mut F) {
        self.ops += 1;
        let key = self.rng.gen_range(0..KEY_SPACE);
        match self.rng.gen_range(0..10u32) {
            // 40% inserts
            0..=3 => {
                if f.insert(&key).is_ok() {
                    *self.oracle.entry(key).or_insert(0) += 1;
                } else {
                    self.inserts_refused += 1;
                }
            }
            // 30% removes of live keys only (the supported contract)
            4..=6 => {
                if self.oracle.get(&key).copied().unwrap_or(0) > 0 {
                    f.remove(&key)
                        .unwrap_or_else(|e| panic!("remove of live key {key} failed: {e}"));
                    *self.oracle.get_mut(&key).unwrap() -= 1;
                } else {
                    // Absent key: refusal is the expected outcome; a
                    // (false-positive) success would void the oracle, so
                    // compensate by treating it as an insert-then-remove.
                    if f.remove(&key).is_ok() {
                        self.removes_rejected += 1;
                        let _ = f.insert(&key);
                    }
                }
            }
            // 30% queries
            _ => {
                let live = self.oracle.get(&key).copied().unwrap_or(0) > 0;
                let claimed = f.contains(&key);
                if live {
                    assert!(
                        claimed,
                        "false negative for live key {key} at op {}",
                        self.ops
                    );
                }
            }
        }
    }

    /// Full sweep: every live key must be present.
    fn sweep<F: CountingFilter>(&self, f: &F) {
        for (&key, &count) in &self.oracle {
            if count > 0 {
                assert!(f.contains(&key), "sweep: lost key {key} (count {count})");
            }
        }
    }
}

fn stress_mpcbf(rounds: u64, seed: u64) {
    let cfg = MpcbfConfig::builder()
        .memory_bits(400_000)
        .expected_items(2_500)
        .hashes(3)
        .seed(seed)
        .build()
        .expect("shape");
    let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    let mut d = Driver::new(seed ^ 0x51e5);
    for round in 0..rounds {
        d.step(&mut f);
        if round % 10_000 == 9_999 {
            d.sweep(&f);
            // Codec round-trip mid-stream: the decoded filter must be a
            // perfect continuation point.
            f = Mpcbf::decode(&f.encode()).expect("codec roundtrip");
            d.sweep(&f);
        }
    }
    d.sweep(&f);
    println!(
        "  MPCBF-1: {} ops, {} refused inserts, {} FP-removes compensated — OK",
        d.ops, d.inserts_refused, d.removes_rejected
    );
}

fn stress_generic<F: CountingFilter>(name: &str, mut f: F, rounds: u64, seed: u64) {
    let mut d = Driver::new(seed ^ 0x57e5);
    for round in 0..rounds {
        d.step(&mut f);
        if round % 20_000 == 19_999 {
            d.sweep(&f);
        }
    }
    d.sweep(&f);
    println!(
        "  {name}: {} ops, {} refused inserts, {} FP-removes compensated — OK",
        d.ops, d.inserts_refused, d.removes_rejected
    );
}

/// Drill 1: every surviving bit flip must be caught by `scrub()` and
/// undoing the flips must restore a clean report.
fn drill_scrub(plan: &FaultPlan) {
    let cfg = MpcbfConfig::builder()
        .memory_bits(400_000)
        .expected_items(2_500)
        .hashes(3)
        .seed(plan.seed)
        .build()
        .expect("shape");
    let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    for i in 0..2_000u64 {
        f.insert(&i).expect("healthy insert");
    }
    assert_eq!(f.verify(), Ok(()), "pre-damage filter must verify clean");
    let seal = f.seal();
    assert!(f.scrub(&seal).is_clean());

    // Accumulate flips per word: two identical masks on one word cancel.
    let l = f.raw_words().len() as u64;
    let mut net: HashMap<usize, u64> = HashMap::new();
    for (hint, mask) in plan.flips() {
        let word = (hint % l) as usize;
        f.corrupt_word_xor(word, mask);
        *net.entry(word).or_insert(0) ^= mask;
    }
    let mut expected: Vec<usize> = net
        .iter()
        .filter(|&(_, &m)| m != 0)
        .map(|(&w, _)| w / SEGMENT_WORDS)
        .collect();
    expected.sort_unstable();
    expected.dedup();

    let report = f.scrub(&seal);
    assert_eq!(
        report.corrupt_segments, expected,
        "scrub must localise every flipped segment, and only those"
    );
    for (&word, &mask) in &net {
        f.corrupt_word_xor(word, mask);
    }
    assert!(f.scrub(&seal).is_clean(), "undone damage must scrub clean");
    println!(
        "  scrub drill: {} flips over {} words → {} dirty segments detected — OK",
        plan.flips().count(),
        l,
        expected.len()
    );
}

/// Drill 2: poisoned shards must be caught by the sharded epoch scrub
/// with correctly globalised segment indices.
fn drill_epoch_scrub(plan: &FaultPlan) {
    let cfg = MpcbfConfig::builder()
        .memory_bits(1_000_000)
        .expected_items(10_000)
        .hashes(3)
        .seed(plan.seed ^ 0x5EED)
        .build()
        .expect("shape");
    let f: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, 64);
    for i in 0..5_000u64 {
        f.insert(&i).expect("healthy insert");
    }
    let seals = f.seal();
    assert!(f.scrub(&seals).is_clean());

    let shards = f.shard_count() as u64;
    let words = f.shard_raw_words(0).len() as u64;
    let per = seals[0].segments();
    let mut net: HashMap<(usize, usize), u64> = HashMap::new();
    for (shard_hint, word_hint, mask) in plan.poisonings() {
        let (s, w) = ((shard_hint % shards) as usize, (word_hint % words) as usize);
        f.corrupt_word_xor(s, w, mask);
        *net.entry((s, w)).or_insert(0) ^= mask;
    }
    let mut expected: Vec<usize> = net
        .iter()
        .filter(|&(_, &m)| m != 0)
        .map(|(&(s, w), _)| s * per + w / SEGMENT_WORDS)
        .collect();
    expected.sort_unstable();
    expected.dedup();

    let report = f.scrub(&seals);
    assert_eq!(
        report.corrupt_segments, expected,
        "epoch scrub must localise every poisoned shard segment"
    );
    for (&(s, w), &mask) in &net {
        f.corrupt_word_xor(s, w, mask);
    }
    assert!(f.scrub(&seals).is_clean());
    println!(
        "  epoch-scrub drill: {} poisonings over {} shards → {} dirty segments detected — OK",
        plan.poisonings().count(),
        shards,
        expected.len()
    );
}

/// Drill 3: hot keys far past word capacity must be absorbed by the
/// spillover path — lossless inserts, zero false negatives, full drain.
fn drill_spillover(plan: &FaultPlan) {
    let cfg = MpcbfConfig::builder()
        .memory_bits(256)
        .expected_items(1_000)
        .hashes(3)
        .n_max(1)
        .seed(plan.seed ^ 0x0F10)
        .build()
        .expect("shape");
    let mut f: ResilientMpcbf = ResilientMpcbf::new(cfg);
    let hot: Vec<(u64, u32)> = plan.hot_keys().collect();
    for &(key, copies) in &hot {
        for _ in 0..copies {
            f.insert(&key).expect("spillover makes inserts lossless");
        }
        assert!(f.contains(&key), "zero false negatives under saturation");
    }
    assert!(
        f.spilled_inserts() > 0,
        "hot keys on a saturated shape must actually spill"
    );
    assert!(f.health().is_spilling());
    for &(key, copies) in &hot {
        for _ in 0..copies {
            assert!(f.contains(&key), "key must stay visible while draining");
            f.remove(&key).expect("every stored copy must drain");
        }
    }
    assert_eq!(f.items(), 0, "campaign must drain completely");
    assert_eq!(f.spill_occupancy(), 0);
    println!(
        "  spillover drill: {} hot keys, {} spilled inserts absorbed, drained to zero — OK",
        hot.len(),
        f.spilled_inserts()
    );
}

/// Drill 4: a batch whose every insert overflows must leave the filter
/// bit-identical, and a mixed batch must equal its scalar replay.
fn drill_batch_rollback(plan: &FaultPlan) {
    let cfg = MpcbfConfig::builder()
        .memory_bits(256)
        .expected_items(1_000)
        .hashes(3)
        .n_max(1)
        .seed(plan.seed ^ 0xB01)
        .build()
        .expect("shape");
    let mut f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    let hot = plan
        .hot_keys()
        .next()
        .map(|(k, _)| k)
        .unwrap_or(0xD00D)
        .to_le_bytes();
    // Fill the hot key to exact word capacity.
    let mut stored = 0u32;
    while f.insert_bytes_cost(&hot).is_ok() {
        stored += 1;
    }
    assert!(stored > 0);

    let before = f.raw_words().to_vec();
    let all_hot: Vec<&[u8]> = vec![&hot; 16];
    let (results, _) = f.insert_batch_cost(&all_hot);
    assert!(
        results.iter().all(Result::is_err),
        "a full word must refuse every batched copy"
    );
    assert_eq!(
        f.raw_words(),
        &before[..],
        "failed batch must leave the filter bit-identical"
    );

    // Mixed batch: overflowing keys interleaved with fresh ones must land
    // exactly as a scalar loop would.
    let fresh: Vec<[u8; 8]> = (1..=8u64).map(|i| (0xF00D + i).to_le_bytes()).collect();
    let mut batch_keys: Vec<&[u8]> = Vec::new();
    for k in &fresh {
        batch_keys.push(&hot);
        batch_keys.push(k.as_slice());
    }
    let mut scalar_f = f.clone();
    let scalar: Vec<bool> = batch_keys
        .iter()
        .map(|k| scalar_f.insert_bytes_cost(k).is_ok())
        .collect();
    let (batched, _) = f.insert_batch_cost(&batch_keys);
    let batched_ok: Vec<bool> = batched.iter().map(Result::is_ok).collect();
    assert_eq!(batched_ok, scalar, "mid-batch failures must match scalar");
    assert_eq!(
        f.raw_words(),
        scalar_f.raw_words(),
        "mixed batch must leave the exact scalar state"
    );
    println!(
        "  rollback drill: {stored}-deep word refused a 16-copy batch bit-identically, \
         mixed batch matched scalar — OK"
    );
}

/// Drill 5: dropped/duplicated batch ops must surface as an exact,
/// reproducible population divergence.
fn drill_stream_faults(plan: &FaultPlan) {
    let spec = SyntheticSpec {
        periods: 0,
        ..SyntheticSpec::default()
    }
    .scaled_down(100);
    let w = SyntheticWorkload::generate(&spec);
    let cfg = MpcbfConfig::builder()
        .memory_bits(200_000)
        .expected_items(2_000)
        .hashes(3)
        .seed(plan.seed ^ 0xD0D0)
        .build()
        .expect("shape");
    let mut clean_f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    let clean = replay_synthetic(&mut clean_f, &w, 64);
    let mut faulty_f: Mpcbf<u64, Murmur3> = Mpcbf::new(cfg);
    let (faulty, log) = replay_synthetic_faulty(&mut faulty_f, &w, 64, plan);
    assert!(!log.is_clean(), "plan must perturb the stream");
    assert_eq!(
        faulty_f.items() as i64,
        clean_f.items() as i64 + log.delta(),
        "population accounting must detect every drop and duplicate"
    );
    assert_eq!(
        faulty.inserts as i64,
        clean.inserts as i64 + log.delta(),
        "attempt counts must shift by exactly the log"
    );
    println!(
        "  stream drill: {} dropped + {} duplicated ops → population delta {} detected — OK",
        log.dropped,
        log.duplicated,
        log.delta()
    );
}

/// A fresh scratch directory for one durability scenario.
fn drill_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static DIR_ID: AtomicU64 = AtomicU64::new(0);
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mpcbf-stress-drill-{tag}-{}-{id}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One seeded insert/remove op over the drill key space.
#[derive(Clone, Copy)]
enum DrillOp {
    Insert(u64),
    Remove(u64),
}

/// A deterministic op stream: mostly inserts, removes only of live keys
/// (the supported contract), over a small key space so removes happen.
fn drill_ops(seed: u64, count: usize) -> Vec<DrillOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD121);
    let mut live: HashMap<u64, u32> = HashMap::new();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let key = rng.gen_range(0..400u64);
        let can_remove = live.get(&key).copied().unwrap_or(0) > 0;
        if can_remove && rng.gen_range(0..10u32) < 4 {
            *live.get_mut(&key).unwrap() -= 1;
            ops.push(DrillOp::Remove(key));
        } else {
            *live.entry(key).or_insert(0) += 1;
            ops.push(DrillOp::Insert(key));
        }
    }
    ops
}

fn drill_config(seed: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(100_000)
        .expected_items(1_000)
        .hashes(3)
        .seed(seed ^ 0xDB1)
        .build()
        .expect("shape")
}

/// Runs one kill-point scenario against a `shards`-shard
/// `DurableSharded<ShardedMpcbf>` and proves bit-exact recovery. Every
/// op acknowledged before the crash must survive it; every recovered
/// shard must equal the same shard of a reference pool that applied
/// exactly the durable prefix; torn tails must be reported and the
/// recovered pool must verify clean.
fn drill_kill(seed: u64, shards: usize, site: KillSite, op_hint: u64, byte_hint: u64) {
    let cfg = drill_config(seed);
    let dir = drill_dir("kill");
    let kill = KillSwitch::new();
    let opts = DurabilityOptions::new(&dir).kill(kill.clone());
    let pool = || -> ShardedMpcbf<u64, Murmur3> { ShardedMpcbf::new(cfg, shards) };
    let durable = DurableSharded::create(pool(), opts).expect("create");
    let reference = pool();

    let ops = drill_ops(seed, 200);
    let kill_at = (op_hint % ops.len() as u64) as usize;
    // A scalar 8-byte-key frame is fixed-size; a budget in
    // 1..frame_len always leaves a torn (reported) tail.
    let frame_len = encode_frame(&WalRecord {
        seq: 1,
        op: WalOp::Insert(vec![0; 8]),
    })
    .len() as u64;
    let budget = 1 + byte_hint % (frame_len - 1);

    let apply_ref = |op: DrillOp| match op {
        DrillOp::Insert(k) => {
            let _ = reference.insert_bytes(&k.to_le_bytes());
        }
        DrillOp::Remove(k) => {
            let _ = reference.remove_bytes(&k.to_le_bytes());
        }
    };
    let apply_durable = |durable: &DurableSharded<ShardedMpcbf<u64, Murmur3>>, op: DrillOp| match op
    {
        DrillOp::Insert(k) => durable.insert_bytes(&k.to_le_bytes()),
        DrillOp::Remove(k) => durable.remove_bytes(&k.to_le_bytes()),
    };

    // Acknowledged prefix, with a mid-stream snapshot to force recovery
    // through the snapshot + WAL-replay path, not WAL-only.
    let mut acked: HashMap<u64, i64> = HashMap::new();
    for (i, &op) in ops[..kill_at].iter().enumerate() {
        if i == kill_at / 2 {
            durable.snapshot().expect("unarmed snapshot");
        }
        match apply_durable(&durable, op) {
            // Only a successful op guarantees key presence/absence; a
            // refused op is acked (and replayed) but changed nothing.
            Ok(()) => match op {
                DrillOp::Insert(k) => *acked.entry(k).or_insert(0) += 1,
                DrillOp::Remove(k) => *acked.entry(k).or_insert(0) -= 1,
            },
            Err(e) if e.is_kill() => panic!("unarmed op killed: {e}"),
            Err(_) => {} // deterministic filter refusal: still acked
        }
        apply_ref(op);
    }

    // Arm and crash. What is durable past the ack point depends on the
    // site: a torn append never hit disk whole (frame dropped), a failed
    // fsync left a complete frame behind (replayed: durable but never
    // acknowledged — allowed), and the snapshot sites crash housekeeping
    // with no op in flight at all.
    kill.arm(site, budget);
    let mut expect_torn = false;
    match site {
        KillSite::WalAppend | KillSite::WalFsync => {
            let op = ops[kill_at];
            let err = apply_durable(&durable, op).expect_err("armed op must crash");
            assert!(err.is_kill(), "expected a kill, got: {err}");
            if site == KillSite::WalFsync {
                // Frame complete ⇒ durable, but never acknowledged:
                // the client may not assume either outcome for this
                // key, so it is exempt from the acked-presence check.
                apply_ref(op);
                let (DrillOp::Insert(k) | DrillOp::Remove(k)) = op;
                acked.remove(&k);
            } else {
                expect_torn = true; // budget < frame ⇒ torn tail
            }
        }
        KillSite::SnapshotWrite | KillSite::SnapshotRename | KillSite::WalTruncate => {
            match durable.snapshot() {
                // With no op logged yet there is no sealed segment to
                // purge, so the truncate site never executes and the
                // scenario degrades to a crash after a clean snapshot.
                Ok(()) if site == KillSite::WalTruncate && kill_at == 0 => kill.disarm(),
                Ok(()) => panic!("{site}: armed snapshot must crash"),
                Err(err) => {
                    assert!(err.is_kill(), "expected a kill, got: {err}");
                    assert_eq!(kill.fired(), Some(site), "the armed site must fire");
                }
            }
        }
    }
    drop(durable); // the "crash": writer state abandoned

    let (recovered, report) = DurableSharded::open_or_recover(DurabilityOptions::new(&dir), pool)
        .expect("recovery must always succeed");
    for s in 0..reference.shard_count() {
        assert_eq!(
            recovered.inner().shard_raw_words(s),
            reference.shard_raw_words(s),
            "{site}, {shards} shards: shard {s} must recover bit-identical to the durable prefix"
        );
    }
    for (&key, &net) in &acked {
        if net > 0 {
            assert!(
                recovered.contains_bytes(&key.to_le_bytes()),
                "{site}, {shards} shards: false negative for acknowledged key {key}"
            );
        }
    }
    if expect_torn {
        assert!(
            !report.torn_tails.is_empty(),
            "{site}, {shards} shards: a torn append must be reported"
        );
        assert!(report.bytes_truncated > 0, "{site}: torn bytes truncated");
    }
    assert!(
        report.scrub_clean,
        "{site}, {shards} shards: recovered pool must verify clean"
    );
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
}

/// Shards of the pool the drill's second round of kill sites runs on
/// (the served default).
const DRILL_SHARDS: usize = 8;

/// Drill 6: seeded kill-point injection. Every kill site is exercised
/// on a one-shard pool at a plan-derived op index and torn-write byte
/// budget, plus every explicit `Fault::CrashPoint` the plan drew, then
/// every site again on a [`DRILL_SHARDS`]-shard pool — each proving
/// bit-exact recovery with zero false negatives.
fn drill_durability(plan: &FaultPlan) {
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xDEAD);
    let mut scenarios = 0usize;
    for &site in &KillSite::ALL {
        drill_kill(plan.seed, 1, site, rng.gen(), rng.gen());
        scenarios += 1;
    }
    for (site_hint, op_hint, byte_hint) in plan.crash_points() {
        let site = KillSite::ALL[(site_hint % KillSite::ALL.len() as u64) as usize];
        drill_kill(plan.seed, 1, site, op_hint, byte_hint);
        scenarios += 1;
    }
    for &site in &KillSite::ALL {
        drill_kill(plan.seed, DRILL_SHARDS, site, rng.gen(), rng.gen());
        scenarios += 1;
    }
    println!(
        "  durability drill: {scenarios} kill-point scenarios \
         (all {} sites + {} plan crash points on 1 shard, all sites on {DRILL_SHARDS}) \
         recovered bit-exact — OK",
        KillSite::ALL.len(),
        plan.crash_points().count()
    );
}

/// The `--faults SEED` campaign: replay one deterministic [`FaultPlan`]
/// through every drill. Any undetected or unabsorbed fault panics.
fn fault_campaign(seed: u64) {
    let plan = FaultPlan::generate(seed, FaultMix::default());
    println!(
        "fault campaign: seed {seed}, {} injected faults",
        plan.faults.len()
    );
    drill_scrub(&plan);
    drill_epoch_scrub(&plan);
    drill_spillover(&plan);
    drill_batch_rollback(&plan);
    drill_stream_faults(&plan);
    drill_durability(&plan);
    println!("fault campaign: seed {seed} — all faults detected or absorbed");
}

/// The `--telemetry` mode: metered Table II/III validation replay.
/// Prints the Prometheus pages, writes `BENCH_telemetry.json`, and exits
/// non-zero if any contender's measured mean accesses drift outside the
/// tolerance.
fn telemetry_validation(args: &Args) {
    let v = mpcbf_bench::telemetry::run_validation(args);
    let json = v.to_json();
    std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
    if !args.quiet {
        println!("{}", v.prometheus_pages());
        println!("{json}");
    }
    for row in &v.rows {
        println!(
            "  {}: query {:.3} accesses (expect {:.3}), update {:.3} (expect {:.3}) — {}",
            row.name,
            row.measured_query,
            row.expected_query,
            row.measured_update,
            row.expected_update,
            if row.within_tolerance() {
                "OK"
            } else {
                "DRIFT"
            }
        );
    }
    println!("wrote BENCH_telemetry.json");
    if !v.pass() {
        eprintln!("telemetry validation failed: measured accesses drifted past tolerance");
        std::process::exit(1);
    }
}

/// One FPR-vs-envelope sample: empirical false-positive rate over the
/// never-inserted probe set must sit inside the analytic envelope (plus
/// four binomial standard deviations of sampling noise).
fn check_fpr_within_envelope(
    filter: &mpcbf_core::ElasticMpcbf<Murmur3>,
    probes: &[Vec<u8>],
    when: &str,
) -> (f64, f64) {
    let hits = probes.iter().filter(|p| filter.contains_bytes(p)).count();
    let empirical = hits as f64 / probes.len() as f64;
    let envelope = filter.fpr_envelope();
    let sigma = (envelope * (1.0 - envelope) / probes.len() as f64)
        .max(0.0)
        .sqrt();
    assert!(
        empirical <= envelope + 4.0 * sigma + 1e-9,
        "{when}: empirical FPR {empirical:.6} exceeds envelope {envelope:.6} (+4σ)"
    );
    (empirical, envelope)
}

/// The elastic capacity drill (see the module docs).
fn ramp_drill(args: &Args) {
    use mpcbf_core::policy::CapacityPolicy;
    use mpcbf_core::ElasticMpcbf;

    let base_items = args.scaled(20_000);
    let spec = RampSpec::tenfold(base_items, 0x7a3f);
    let probes = spec.negative_probes(20_000);
    let config = MpcbfConfig::builder()
        .memory_bits(16 * base_items)
        .expected_items(base_items)
        .hashes(3)
        .seed(0x5eed)
        .build()
        .expect("ramp shape");

    println!("ramp drill: {base_items} -> {} keys", spec.final_items());
    let mut filter: ElasticMpcbf<Murmur3> =
        ElasticMpcbf::manual(config, CapacityPolicy::default()).expect("elastic filter");
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(spec.final_items() as usize);
    let mut mid_samples = 0u64;
    for (i, phase) in spec.phases().into_iter().enumerate() {
        for key in &phase.keys {
            filter
                .insert_bytes(key)
                .expect("elastic insert is lossless");
        }
        live.extend(phase.keys);
        // Drive any parked scale plan, sampling FPR *inside* the
        // migration: the envelope must hold at every instant, not just
        // at the fixed points.
        while let Some(plan) = filter.scale_plan() {
            filter.apply_scale(&plan).expect("apply parked scale plan");
            assert!(filter.begin_compaction(), "scale-up must leave sources");
            while filter.compacting() {
                filter.step_compaction(live.len() / 64 + 1);
                check_fpr_within_envelope(&filter, &probes, "mid-compaction");
                mid_samples += 1;
                for key in live.iter().step_by(97) {
                    assert!(
                        filter.contains_bytes(key),
                        "false negative mid-compaction at phase {i}"
                    );
                }
            }
        }
        assert_eq!(filter.items(), phase.target_items, "phase {i} population");
        for key in &live {
            assert!(filter.contains_bytes(key), "false negative at phase {i}");
        }
        let (empirical, envelope) =
            check_fpr_within_envelope(&filter, &probes, &format!("phase {i}"));
        filter.verify().expect("structural invariants");
        println!(
            "  phase {i}: items {} generations {} fpr {empirical:.6} <= envelope {envelope:.6}",
            filter.items(),
            filter.generation_count(),
        );
    }
    assert!(
        filter.scale_events() > 0,
        "a 10x ramp must trigger at least one scale-up"
    );
    assert!(mid_samples > 0, "the drill must sample inside a migration");
    println!(
        "ramp drill: clean ({} scale events, {} compactions, {mid_samples} mid-migration samples)",
        filter.scale_events(),
        filter.compactions()
    );
}

fn main() {
    let args = Args::parse();
    if args.ramp {
        ramp_drill(&args);
        return;
    }
    if args.telemetry {
        telemetry_validation(&args);
        return;
    }
    if args.drill_matrix {
        println!("drill matrix: seeds {DRILL_SEEDS:?}");
        for seed in DRILL_SEEDS {
            fault_campaign(seed);
        }
        println!("drill matrix: every seed clean");
        return;
    }
    if let Some(seed) = args.faults {
        fault_campaign(seed);
        return;
    }
    let rounds = args.scaled(200_000);
    println!("stress: {rounds} ops per structure, key space {KEY_SPACE}");

    stress_mpcbf(rounds, 1);
    stress_generic("CBF", Cbf::<Murmur3>::new(60_000, 3, 2), rounds, 2);
    stress_generic(
        "PCBF-2",
        mpcbf_core::Pcbf::<Murmur3>::new(4_096, 64, 3, 2, 3),
        rounds,
        3,
    );
    stress_generic("dlCBF", DlCbf::<Murmur3>::new(4, 1024, 8, 12, 4), rounds, 4);
    stress_generic("VI-CBF", ViCbf::<Murmur3>::new(30_000, 3, 4, 5), rounds, 5);
    stress_generic("RCBF", Rcbf::<Murmur3>::new(8_192, 12, 2, 6), rounds, 6);
    println!("stress: all structures clean");
}
