//! Durability overhead benchmark: insert throughput per fsync policy,
//! recovery time as a function of WAL length, and the cold start of a
//! bulk-built sharded filter.
//!
//! ```text
//! cargo run --release -p mpcbf-bench --bin bench_durability
//! cargo run --release -p mpcbf-bench --bin bench_durability -- --scale 10
//! ```
//!
//! Emits `BENCH_durability.json` (consumed by the CI durability job) with
//! three sections:
//!
//! * `throughput` — durable scalar inserts per second under `Always`,
//!   `EveryN(64)` and `Interval(2ms)` fsync, against the same filter
//!   shape, so the cost of the ack⟹durable guarantee is visible;
//! * `recovery` — wall-clock `open_or_recover` time versus the number of
//!   WAL records replayed (no snapshot taken, so every record replays),
//!   plus the scrub verdict;
//! * `cold_start` — `bootstrap` plus `open_or_recover` of a bulk-built
//!   8-shard filter (the `batch-mix-dram` shape at `--scale 1`: 6.4 M
//!   keys in 512 Mb, k = 3), and each full-image pass inside them timed
//!   alone, in ms and MB/s (10^6 bytes of codec image per second; each
//!   figure the median of 3 runs), so a regression of any one pass shows
//!   in the artifact.

use mpcbf_bench::Args;
use mpcbf_concurrent::{ShardedBulkBuilder, ShardedMpcbf};
use mpcbf_core::{Mpcbf, MpcbfConfig};
use mpcbf_durability::{
    decode_envelope, encode_envelope, DurabilityOptions, DurableFilter, DurableShardedMpcbf,
    FsyncPolicy,
};
use mpcbf_hash::Murmur3;
use mpcbf_workloads::BulkKeys;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mpcbf-bench-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(items: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(16 * items.max(1_000))
        .expected_items(items.max(1_000))
        .hashes(3)
        .seed(7)
        .build()
        .expect("shape")
}

struct ThroughputRow {
    policy: String,
    ops: u64,
    ops_per_sec: f64,
}

struct RecoveryRow {
    wal_records: u64,
    millis: f64,
    records_replayed: u64,
    scrub_clean: bool,
}

fn throughput(policy: FsyncPolicy, ops: u64) -> ThroughputRow {
    let dir = scratch_dir(&policy.name());
    let cfg = config(ops);
    let opts = DurabilityOptions::new(&dir).fsync(policy);
    let mut durable: DurableFilter<Mpcbf<u64, Murmur3>> =
        DurableFilter::create(Mpcbf::new(cfg), opts).expect("create");
    let start = Instant::now();
    for i in 0..ops {
        let _ = durable.insert_bytes(&i.to_le_bytes());
    }
    durable.sync().expect("final sync");
    let elapsed = start.elapsed().as_secs_f64();
    drop(durable);
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
    ThroughputRow {
        policy: policy.name(),
        ops,
        ops_per_sec: ops as f64 / elapsed.max(1e-9),
    }
}

fn recovery(wal_records: u64) -> RecoveryRow {
    let dir = scratch_dir(&format!("recover-{wal_records}"));
    let cfg = config(wal_records);
    // Relaxed fsync keeps setup fast; the final sync makes it all durable.
    let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::EveryN(1024));
    let mut durable: DurableFilter<Mpcbf<u64, Murmur3>> =
        DurableFilter::create(Mpcbf::new(cfg), opts).expect("create");
    for i in 0..wal_records {
        let _ = durable.insert_bytes(&i.to_le_bytes());
    }
    durable.sync().expect("final sync");
    drop(durable); // crash with the whole history in the WAL

    let start = Instant::now();
    let (_, report) =
        DurableFilter::open_or_recover(DurabilityOptions::new(&dir), || -> Mpcbf<u64, Murmur3> {
            Mpcbf::new(cfg)
        })
        .expect("recovery");
    let millis = start.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(&dir).expect("scratch cleanup");
    RecoveryRow {
        wal_records,
        millis,
        records_replayed: report.records_replayed,
        scrub_clean: report.scrub_clean,
    }
}

/// Shards of the cold-start filter (the served default).
const COLD_SHARDS: usize = 8;
/// Repetitions per cold-start stage; the row reports their median.
const COLD_REPS: usize = 3;

/// One full-image pass of the cold start, timed alone.
struct Stage {
    name: &'static str,
    millis: f64,
    mb_per_s: f64,
}

struct ColdStartRow {
    keys: u64,
    image_bytes: usize,
    bootstrap_ms: f64,
    open_or_recover_ms: f64,
    scrub_clean: bool,
    stages: Vec<Stage>,
}

/// Median wall-clock milliseconds of `COLD_REPS` calls of `f`; each
/// result goes through `black_box` and is dropped after its timing.
fn median_millis<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..COLD_REPS)
        .map(|_| {
            let start = Instant::now();
            let out = std::hint::black_box(f());
            let millis = start.elapsed().as_secs_f64() * 1e3;
            drop(out);
            millis
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn cold_start(keys: u64) -> ColdStartRow {
    let config = MpcbfConfig::builder()
        .memory_bits(80 * keys)
        .expected_items(keys)
        .hashes(3)
        .seed(7)
        .build()
        .expect("shape");
    let mut builder: ShardedBulkBuilder<Murmur3> = ShardedBulkBuilder::new(config, COLD_SHARDS);
    BulkKeys::new(7, keys).for_each_chunk(4096, |chunk| {
        for key in chunk {
            builder.push(key);
        }
    });
    let filter = builder.finish_parallel(2);
    let seqs = vec![0; filter.shard_count()];

    let image = filter.encode();
    let envelope = encode_envelope(&seqs, &image);
    let stage = |name, millis: f64| Stage {
        name,
        millis,
        mb_per_s: image.len() as f64 / 1e3 / millis.max(1e-9),
    };
    let seals = filter.seal();
    let stages = vec![
        stage("encode", median_millis(|| filter.encode())),
        stage("envelope", median_millis(|| encode_envelope(&seqs, &image))),
        stage(
            "decode_envelope",
            median_millis(|| decode_envelope(&envelope).expect("envelope")),
        ),
        stage(
            "decode",
            median_millis(|| ShardedMpcbf::<u64, Murmur3>::decode(&image).expect("decode")),
        ),
        stage("verify", median_millis(|| filter.verify().expect("verify"))),
        stage("seal", median_millis(|| filter.seal())),
        stage(
            "scrub",
            median_millis(|| assert!(filter.scrub(&seals).is_clean())),
        ),
    ];
    drop(envelope);

    // A fresh directory per bootstrap; recovery reopens the first.
    let dirs: Vec<PathBuf> = (0..COLD_REPS)
        .map(|rep| scratch_dir(&format!("cold-start-{rep}")))
        .collect();
    let mut fresh = dirs.iter();
    let bootstrap_ms = median_millis(|| {
        let dir = fresh.next().expect("one directory per repetition");
        DurableShardedMpcbf::bootstrap(&filter, DurabilityOptions::new(dir)).expect("bootstrap")
    });
    let mut scrub_clean = true;
    let open_or_recover_ms = median_millis(|| {
        let (recovered, report) = DurableShardedMpcbf::<Murmur3>::open_or_recover(
            DurabilityOptions::new(&dirs[0]),
            || unreachable!("snapshot present"),
        )
        .expect("recovery");
        assert_eq!(report.records_replayed, 0, "bootstrap dir replayed WAL");
        scrub_clean &= report.scrub_clean;
        recovered
    });
    for dir in &dirs {
        std::fs::remove_dir_all(dir).expect("scratch cleanup");
    }
    ColdStartRow {
        keys,
        image_bytes: image.len(),
        bootstrap_ms,
        open_or_recover_ms,
        scrub_clean,
        stages,
    }
}

fn to_json(
    throughputs: &[ThroughputRow],
    recoveries: &[RecoveryRow],
    cold: &ColdStartRow,
) -> String {
    let mut json = String::with_capacity(4 * 1024);
    json.push_str("{\n  \"throughput\": [\n");
    for (i, r) in throughputs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"policy\": \"{}\", \"ops\": {}, \"ops_per_sec\": {:.1}}}",
            r.policy, r.ops, r.ops_per_sec
        );
        json.push_str(if i + 1 < throughputs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"wal_records\": {}, \"millis\": {:.2}, \"records_replayed\": {}, \
             \"scrub_clean\": {}}}",
            r.wal_records, r.millis, r.records_replayed, r.scrub_clean
        );
        json.push_str(if i + 1 < recoveries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        json,
        "  ],\n  \"cold_start\": {{\"keys\": {}, \"shards\": {COLD_SHARDS}, \"image_bytes\": {}, \
         \"bootstrap_ms\": {:.2}, \"open_or_recover_ms\": {:.2}, \"scrub_clean\": {}, \
         \"stages\": [\n",
        cold.keys, cold.image_bytes, cold.bootstrap_ms, cold.open_or_recover_ms, cold.scrub_clean
    );
    for (i, s) in cold.stages.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"stage\": \"{}\", \"ms\": {:.2}, \"mb_per_s\": {:.1}}}",
            s.name, s.millis, s.mb_per_s
        );
        json.push_str(if i + 1 < cold.stages.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]}\n}\n");
    json
}

fn main() {
    let args = Args::parse();
    let ops = args.scaled(8_000);

    println!("durable insert throughput ({ops} scalar inserts per policy):");
    let throughputs: Vec<ThroughputRow> = [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(64),
        FsyncPolicy::Interval(Duration::from_millis(2)),
    ]
    .into_iter()
    .map(|policy| throughput(policy, ops))
    .collect();
    for r in &throughputs {
        println!("  {:<16} {:>12.0} ops/s", r.policy, r.ops_per_sec);
    }

    println!("recovery time vs WAL length (no snapshot, full replay):");
    let recoveries: Vec<RecoveryRow> = [1u64, 4, 16]
        .iter()
        .map(|&m| recovery(args.scaled(2_000) * m))
        .collect();
    for r in &recoveries {
        println!(
            "  {:>8} records  {:>9.2} ms  replayed {}  scrub {}",
            r.wal_records,
            r.millis,
            r.records_replayed,
            if r.scrub_clean { "clean" } else { "DIRTY" }
        );
        assert!(r.scrub_clean, "recovered image must scrub clean");
        assert_eq!(
            r.records_replayed, r.wal_records,
            "without a snapshot every WAL record must replay"
        );
    }

    let cold = cold_start(args.scaled(6_400_000));
    println!(
        "cold start of a bulk-built {COLD_SHARDS}-shard filter ({} keys, {:.1} MB image):",
        cold.keys,
        cold.image_bytes as f64 / 1e6
    );
    println!(
        "  bootstrap {:>9.2} ms   open_or_recover {:>9.2} ms   scrub {}",
        cold.bootstrap_ms,
        cold.open_or_recover_ms,
        if cold.scrub_clean { "clean" } else { "DIRTY" }
    );
    for s in &cold.stages {
        println!(
            "  {:<16} {:>9.2} ms {:>9.1} MB/s",
            s.name, s.millis, s.mb_per_s
        );
    }
    assert!(cold.scrub_clean, "cold-started image must scrub clean");

    let json = to_json(&throughputs, &recoveries, &cold);
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json");
}
