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
//! four sections:
//!
//! * `throughput` — durable scalar inserts per second under `Always`,
//!   `EveryN(64)` and `Interval(2ms)` fsync, against the same filter
//!   shape, so the cost of the ack⟹durable guarantee is visible;
//! * `recovery` — wall-clock `open_or_recover` time versus the number of
//!   WAL records replayed (no snapshot taken, so every record replays),
//!   plus the verify verdict;
//! * `image_load` — in-memory `Mpcbf::decode` of a bulk-built image of
//!   the `bulk-ingest` shape (10 M keys at 16 bits/key at `--scale 1`, a
//!   20 MB image): the load each `bulk-ingest` set-up times after reading
//!   the file, with its sample count, median and interquartile range,
//!   and per decode its time, the minor page faults it took and the
//!   process's `AnonHugePages` growth across it (a decode into fresh
//!   memory faults its array in; one into memory the allocator kept
//!   from the previous decode takes none);
//! * `cold_start` — `bootstrap` plus `open_or_recover` of a bulk-built
//!   8-shard filter (the `batch-mix-dram` shape at `--scale 1`: 6.4 M
//!   keys in 512 Mb, k = 3), and the streamed stages inside them —
//!   `publish` (the checkpoint written to disk) and `load` (the snapshot
//!   streamed into the pool, each word checked as it lands; no shard
//!   replays a record, so none is verified again) — in ms and MB/s (10^6 bytes
//!   of snapshot per second; each figure the median of 3 runs), plus the
//!   peak-RSS growth of the publish and of the load, so a regression of
//!   any one stage, a checkpoint that stages a shard-sized copy again, or
//!   a load that buffers the file again, shows in the artifact.
//!
//! Every section runs the served path: a `DurableSharded<ShardedMpcbf>`
//! of [`COLD_SHARDS`] shards, one WAL per shard.
//!
//! `--gate` runs only the cold start and exits non-zero when the load's
//! peak-RSS growth passes [`LOAD_RSS_GATE`] times the snapshot's bytes
//! (a streamed load holds the pool and a read buffer, while one that
//! reads the whole file first holds it twice), or when the publish's
//! passes half a shard's share of the snapshot (a streamed publish holds
//! a 64 KiB chunk and the file buffer, while one that copies a shard
//! before writing it holds a whole shard).

use mpcbf_bench::{rss, Args};
use mpcbf_concurrent::{ShardedBulkBuilder, ShardedMpcbf};
use mpcbf_core::{BulkBuilder, Mpcbf, MpcbfConfig};
use mpcbf_durability::{
    publish_checkpoint, DurabilityOptions, DurableSharded, FsyncPolicy, KillSwitch, SnapshotStore,
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

/// The served pool of the throughput and recovery rows.
fn pool(items: u64) -> ShardedMpcbf<u64, Murmur3> {
    ShardedMpcbf::new(config(items), COLD_SHARDS)
}

fn throughput(policy: FsyncPolicy, ops: u64) -> ThroughputRow {
    let dir = scratch_dir(&policy.name());
    let opts = DurabilityOptions::new(&dir).fsync(policy);
    let durable = DurableSharded::create(pool(ops), opts).expect("create");
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
    // Relaxed fsync keeps setup fast; the final sync makes it all durable.
    let opts = DurabilityOptions::new(&dir).fsync(FsyncPolicy::EveryN(1024));
    let durable = DurableSharded::create(pool(wal_records), opts).expect("create");
    for i in 0..wal_records {
        let _ = durable.insert_bytes(&i.to_le_bytes());
    }
    durable.sync().expect("final sync");
    drop(durable); // crash with the whole history in the WAL

    let start = Instant::now();
    let (_, report) =
        DurableSharded::open_or_recover(DurabilityOptions::new(&dir), || pool(wal_records))
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

/// Shards of every durable pool here (the served default).
const COLD_SHARDS: usize = 8;
/// Repetitions per cold-start stage; the row reports their median.
const COLD_REPS: usize = 3;
/// Largest peak-RSS growth `--gate` accepts for a cold-start load, as a
/// multiple of the snapshot's bytes.
const LOAD_RSS_GATE: f64 = 1.25;
/// Largest peak-RSS growth `--gate` accepts for a publish, as a multiple
/// of one shard's share of the snapshot's bytes.
const PUBLISH_RSS_GATE: f64 = 0.5;

/// One streamed stage of the cold start, timed alone.
struct Stage {
    name: &'static str,
    millis: f64,
    mb_per_s: f64,
}

struct ColdStartRow {
    keys: u64,
    snapshot_bytes: u64,
    bootstrap_ms: f64,
    open_or_recover_ms: f64,
    /// Largest peak-RSS growth over the publishes, if measurable.
    publish_rss_growth: Option<u64>,
    /// Largest peak-RSS growth over the loads, if measurable.
    load_rss_growth: Option<u64>,
    scrub_clean: bool,
    stages: Vec<Stage>,
}

impl ColdStartRow {
    /// The load's peak-RSS growth over the snapshot's bytes.
    fn load_rss_ratio(&self) -> Option<f64> {
        self.load_rss_growth
            .map(|g| g as f64 / self.snapshot_bytes.max(1) as f64)
    }

    /// The publish's peak-RSS growth over one shard's share of the
    /// snapshot's bytes.
    fn publish_rss_ratio(&self) -> Option<f64> {
        let shard_bytes = self.snapshot_bytes as f64 / COLD_SHARDS as f64;
        self.publish_rss_growth
            .map(|g| g as f64 / shard_bytes.max(1.0))
    }
}

/// Hands the allocator's free heap pages back to the kernel (glibc's
/// `malloc_trim`). Without it a buffer carved from memory an earlier
/// stage freed but the allocator kept resident (the bootstraps' and the
/// build's) grows no RSS, and a peak-RSS reading misses it. A no-op off
/// glibc.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it only releases
        // glibc's own free pages, and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `f` with the heap trimmed and the peak-RSS mark reset, folding
/// its growth over the RSS before it into `max` (`None` once
/// unmeasurable).
fn track_peak_growth<T>(max: &mut Option<u64>, f: impl FnOnce() -> T) -> T {
    release_free_heap();
    let before = rss::current_rss_bytes();
    rss::reset_peak_rss();
    let out = f();
    let growth = rss::peak_rss_bytes()
        .zip(before)
        .map(|(peak, before)| peak.saturating_sub(before));
    *max = max.zip(growth).map(|(max, g)| max.max(g));
    out
}

/// Median of `samples`, in place.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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
    median(&mut samples)
}

/// Decodes timed by the `image_load` row.
const IMAGE_LOAD_SAMPLES: usize = 21;

/// One timed decode of the `image_load` row.
struct ImageLoadSample {
    millis: f64,
    /// Minor page faults taken during the decode.
    minor_faults: Option<u64>,
    /// Growth of the process's `AnonHugePages` across the decode, with
    /// the decoded filter still alive (negative when the allocator
    /// returned huge pages of an earlier buffer first).
    thp_growth_bytes: Option<i64>,
}

struct ImageLoadRow {
    keys: u64,
    image_bytes: usize,
    /// One per decode, in the order they ran.
    samples: Vec<ImageLoadSample>,
}

impl ImageLoadRow {
    /// The time at quantile `q` (nearest rank), in ms.
    fn quantile(&self, q: f64) -> f64 {
        let mut millis: Vec<f64> = self.samples.iter().map(|s| s.millis).collect();
        millis.sort_by(f64::total_cmp);
        millis[((millis.len() - 1) as f64 * q).round() as usize]
    }
}

/// Bulk-builds a `keys`-key filter at 16 bits/key (the CLI's default
/// density, and the `bulk-ingest` shape) and times
/// [`IMAGE_LOAD_SAMPLES`] in-memory decodes of its image, counting the
/// page faults and huge-page growth of each.
fn image_load(keys: u64) -> ImageLoadRow {
    let config = MpcbfConfig::builder()
        .memory_bits(16 * keys)
        .expected_items(keys)
        .hashes(3)
        .seed(7)
        .build()
        .expect("shape");
    let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(config);
    BulkKeys::new(7, keys).for_each_chunk(4096, |chunk| {
        for key in chunk {
            builder.push(key);
        }
    });
    let image = builder.finish().encode();
    let samples: Vec<ImageLoadSample> = (0..IMAGE_LOAD_SAMPLES)
        .map(|_| {
            let (faults, thp) = (rss::minor_faults(), rss::anon_huge_pages_bytes());
            let start = Instant::now();
            let filter = std::hint::black_box(Mpcbf::<u64, Murmur3>::decode(&image));
            let millis = start.elapsed().as_secs_f64() * 1e3;
            let minor_faults = faults.zip(rss::minor_faults()).map(|(a, b)| b - a);
            let thp_growth_bytes = thp
                .zip(rss::anon_huge_pages_bytes())
                .map(|(a, b)| b as i64 - a as i64);
            assert!(filter.is_ok(), "a freshly encoded image must decode");
            ImageLoadSample {
                millis,
                minor_faults,
                thp_growth_bytes,
            }
        })
        .collect();
    ImageLoadRow {
        keys,
        image_bytes: image.len(),
        samples,
    }
}

fn print_image_load(row: &ImageLoadRow) {
    println!(
        "in-memory load of a {}-key bulk image ({:.1} MB, {} decodes):",
        row.keys,
        row.image_bytes as f64 / 1e6,
        row.samples.len()
    );
    println!(
        "  median {:>7.2} ms   IQR {:.2} ms ({:.2} .. {:.2})",
        row.quantile(0.5),
        row.quantile(0.75) - row.quantile(0.25),
        row.quantile(0.25),
        row.quantile(0.75)
    );
    let opt = |v: Option<String>| v.unwrap_or_else(|| "n/a".into());
    for s in &row.samples {
        println!(
            "  {:>7.2} ms   {:>6} minor faults   AnonHugePages {:>+8} KiB",
            s.millis,
            opt(s.minor_faults.map(|f| f.to_string())),
            opt(s.thp_growth_bytes.map(|b| (b / 1024).to_string()))
        );
    }
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

    // A fresh directory per bootstrap; the loads reopen the first.
    let dirs: Vec<PathBuf> = (0..COLD_REPS)
        .map(|rep| scratch_dir(&format!("cold-start-{rep}")))
        .collect();
    let mut fresh = dirs.iter();
    let bootstrap_ms = median_millis(|| {
        let dir = fresh.next().expect("one directory per repetition");
        DurableSharded::bootstrap(&filter, DurabilityOptions::new(dir)).expect("bootstrap")
    });
    let store = SnapshotStore::new(&dirs[1], "snap", KillSwitch::new()).expect("store");
    let mut publish_rss_growth = rss::reset_peak_rss().then_some(0);
    let publish_ms = median_millis(|| {
        track_peak_growth(&mut publish_rss_growth, || {
            publish_checkpoint(&store, &seqs, &filter).expect("publish")
        })
    });
    drop(filter);

    let mut load = Vec::new();
    let (mut snapshot_bytes, mut scrub_clean) = (0, true);
    let mut load_rss_growth = rss::reset_peak_rss().then_some(0);
    let open_or_recover_ms = median_millis(|| {
        let (recovered, report) = track_peak_growth(&mut load_rss_growth, || {
            DurableSharded::<ShardedMpcbf<u64, Murmur3>>::open_or_recover(
                DurabilityOptions::new(&dirs[0]),
                || unreachable!("snapshot present"),
            )
            .expect("recovery")
        });
        assert_eq!(report.records_replayed, 0, "bootstrap dir replayed WAL");
        load.push(report.snapshot_load.as_secs_f64() * 1e3);
        snapshot_bytes = report.snapshot_bytes;
        scrub_clean &= report.scrub_clean;
        recovered
    });
    for dir in &dirs {
        std::fs::remove_dir_all(dir).expect("scratch cleanup");
    }
    let stage = |name, millis: f64| Stage {
        name,
        millis,
        mb_per_s: snapshot_bytes as f64 / 1e3 / millis.max(1e-9),
    };
    ColdStartRow {
        keys,
        snapshot_bytes,
        bootstrap_ms,
        open_or_recover_ms,
        publish_rss_growth,
        load_rss_growth,
        scrub_clean,
        stages: vec![
            stage("publish", publish_ms),
            stage("load", median(&mut load)),
        ],
    }
}

fn to_json(
    throughputs: &[ThroughputRow],
    recoveries: &[RecoveryRow],
    image: &ImageLoadRow,
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
    let growth = |v: Option<String>| v.unwrap_or_else(|| "null".into());
    let decodes: Vec<String> = image
        .samples
        .iter()
        .map(|s| {
            format!(
                "{{\"ms\": {:.2}, \"minor_faults\": {}, \"thp_growth_bytes\": {}}}",
                s.millis,
                growth(s.minor_faults.map(|f| f.to_string())),
                growth(s.thp_growth_bytes.map(|b| b.to_string()))
            )
        })
        .collect();
    let _ = write!(
        json,
        "  ],\n  \"image_load\": {{\"keys\": {}, \"image_bytes\": {}, \"samples\": {}, \
         \"median_ms\": {:.2}, \"p25_ms\": {:.2}, \"p75_ms\": {:.2}, \"iqr_ms\": {:.2}, \
         \"decodes\": [\n    {}\n  ]}},",
        image.keys,
        image.image_bytes,
        image.samples.len(),
        image.quantile(0.5),
        image.quantile(0.25),
        image.quantile(0.75),
        image.quantile(0.75) - image.quantile(0.25),
        decodes.join(",\n    ")
    );
    let _ = write!(
        json,
        "\n  \"cold_start\": {{\"keys\": {}, \"shards\": {COLD_SHARDS}, \"snapshot_bytes\": {}, \
         \"bootstrap_ms\": {:.2}, \"open_or_recover_ms\": {:.2}, \
         \"publish_rss_growth_bytes\": {}, \"publish_rss_ratio\": {}, \
         \"load_rss_growth_bytes\": {}, \"load_rss_ratio\": {}, \"scrub_clean\": {}, \
         \"stages\": [\n",
        cold.keys,
        cold.snapshot_bytes,
        cold.bootstrap_ms,
        cold.open_or_recover_ms,
        growth(cold.publish_rss_growth.map(|g| g.to_string())),
        growth(cold.publish_rss_ratio().map(|r| format!("{r:.3}"))),
        growth(cold.load_rss_growth.map(|g| g.to_string())),
        growth(cold.load_rss_ratio().map(|r| format!("{r:.3}"))),
        cold.scrub_clean
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

fn print_cold_start(cold: &ColdStartRow) {
    println!(
        "cold start of a bulk-built {COLD_SHARDS}-shard filter ({} keys, {:.1} MB snapshot):",
        cold.keys,
        cold.snapshot_bytes as f64 / 1e6
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
    match (cold.publish_rss_growth, cold.publish_rss_ratio()) {
        (Some(growth), Some(ratio)) => println!(
            "  publish peak RSS growth {:.2} MiB ({ratio:.3}x a shard's bytes)",
            rss::bytes_to_mib(growth)
        ),
        _ => println!("  publish peak RSS not measurable here (no VmHWM reset)"),
    }
    match (cold.load_rss_growth, cold.load_rss_ratio()) {
        (Some(growth), Some(ratio)) => println!(
            "  load peak RSS growth {:.1} MiB ({ratio:.3}x the snapshot)",
            rss::bytes_to_mib(growth)
        ),
        _ => println!("  load peak RSS not measurable here (no VmHWM reset)"),
    }
}

/// `--gate`: the cold start alone, failing when the load's peak-RSS
/// growth passes [`LOAD_RSS_GATE`] times the snapshot's bytes, or the
/// publish's passes [`PUBLISH_RSS_GATE`] times one shard's bytes.
fn gate(keys: u64) -> bool {
    let cold = cold_start(keys);
    print_cold_start(&cold);
    assert!(cold.scrub_clean, "cold-started image must scrub clean");
    let (Some(load), Some(publish)) = (cold.load_rss_ratio(), cold.publish_rss_ratio()) else {
        println!("gate: peak RSS not measurable here (no VmHWM reset); check skipped");
        return true;
    };
    println!("gate: load peak RSS growth {load:.3}x the snapshot (ceiling {LOAD_RSS_GATE}x)");
    println!(
        "gate: publish peak RSS growth {publish:.3}x a shard's bytes (ceiling {PUBLISH_RSS_GATE}x)"
    );
    let mut ok = true;
    if load > LOAD_RSS_GATE {
        eprintln!("gate: FAIL — the snapshot load holds more than one copy of the filter");
        ok = false;
    }
    if publish > PUBLISH_RSS_GATE {
        eprintln!("gate: FAIL — the publish stages a shard-sized copy of the image");
        ok = false;
    }
    ok
}

fn main() {
    let args = Args::parse();
    if args.gate {
        if !gate(args.scaled(6_400_000)) {
            std::process::exit(1);
        }
        println!("gate: OK");
        return;
    }
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
        assert!(r.scrub_clean, "recovered pool must verify clean");
        assert_eq!(
            r.records_replayed, r.wal_records,
            "without a snapshot every WAL record must replay"
        );
    }

    let cold = cold_start(args.scaled(6_400_000));
    print_cold_start(&cold);
    assert!(cold.scrub_clean, "cold-started image must scrub clean");

    // After the cold start, whose peak-RSS readings the image's buffers
    // would otherwise shift.
    let image = image_load(args.scaled(10_000_000));
    print_image_load(&image);
    let json = to_json(&throughputs, &recoveries, &image, &cold);
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json");
}
