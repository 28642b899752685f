//! Bulk-build benchmark: naive per-key insert vs the cache-bucketed
//! streaming builder vs the pipelined ingest and parallel region finish,
//! plus the sharded builder `mpcbf build --bulk --dir` runs. Every
//! contender but `naive` ingests through the path the CLI ships,
//! [`mpcbf_concurrent::ingest`]: `buffered` at one thread (hashing and
//! staging inline, one-thread finish), `parallel` and `sharded` at the
//! machine's thread count (hashing beside staging from 512 Ki keys up,
//! parallel finish) — `mpcbf build --bulk --threads 1` and
//! `--threads N`.
//!
//! ```text
//! cargo run --release -p mpcbf-bench --bin bench_bulk
//! cargo run --release -p mpcbf-bench --bin bench_bulk -- --max-n 100000000 --trials 3
//! cargo run --release -p mpcbf-bench --bin bench_bulk -- --scale 100
//! cargo run --release -p mpcbf-bench --bin bench_bulk -- --gate
//! ```
//!
//! Builds MPCBF-1 at 16 bits/key over a ladder of key counts up to 10^9
//! (DRAM-resident at the top) from the shared [`BulkKeys`] stream, and
//! emits `BENCH_bulk.json` with per-contender wall time, keys/s, speedup
//! over the naive scalar loop, and peak RSS. Every build runs in a child
//! process of its own (`bench_bulk` re-executed with `--child CONTENDER
//! N THREADS`), so a peak is the high-water mark of a process that ran
//! that one build and nothing else: memory an earlier build left in the
//! allocator cannot inflate it. The child reports its wall time, its
//! peak, and the CRC-32 of the built filter's image, and every plain
//! contender's CRC is checked equal to the naive build's before the row
//! is trusted. The `sharded` contender (an 8-shard
//! [`ShardedBulkBuilder`] finished on the same threads, at the rungs up
//! to 10^7 keys) builds a different layout, so its child checks that it
//! holds every key it admitted instead; its speedup is still over the
//! plain naive loop. `--trials N` runs each contender `N` times and
//! reports the median time and the least peak RSS; each row records its
//! sample count. `--max-n N` stops
//! the ladder at `N` keys and carries the committed rows above it over,
//! marked `"rerun": false`.
//!
//! `--gate` re-measures the two base rungs (n = 10^6 and 10^7), with the
//! committed sample count, against the committed `BENCH_bulk.json` and
//! fails on either regression:
//!
//! * the buffered contender's speedup at n = 10^6 falls below half its
//!   recorded value — cache-resident speedups are far below the
//!   DRAM-resident headline, so the gate compares like with like, with a
//!   generous tolerance (staging costs are noisy near cache capacity);
//! * a buffered, parallel or sharded row's peak RSS exceeds its recorded
//!   value by more than 10% — the staging buffers must stay sized to the
//!   keys, and set-up must stay near the larger of filter and staging.

use mpcbf_bench::{rss, Args};
use mpcbf_concurrent::{ingest, DigestBuilder, ShardedBulkBuilder, ShardedMpcbf};
use mpcbf_core::codec::Sink;
use mpcbf_core::{BulkBuilder, Filter, Mpcbf, MpcbfConfig};
use mpcbf_hash::Murmur3;
use mpcbf_workloads::BulkKeys;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

/// The first argument of a child process that runs one build.
const CHILD: &str = "--child";

/// Keys buffered per generator chunk (a few hundred KB resident).
const CHUNK: usize = 8_192;

/// Hash seed for filters and the key stream.
const SEED: u64 = 0x1b9d;

/// Gate floor: measured speedup must stay above `recorded * tolerance`.
/// Generous because the gate rung sits near cache capacity, where
/// staging overhead and machine noise swing the ratio hardest.
const GATE_TOLERANCE: f64 = 0.5;

/// The ladder rung the speedup gate compares (present at every
/// `--scale`).
const GATE_N: u64 = 1_000_000;

/// The rungs the peak-RSS gate re-measures.
const RSS_GATE_NS: [u64; 2] = [1_000_000, 10_000_000];

/// Gate ceiling: measured peak RSS must stay below `recorded * this`.
const RSS_GATE_TOLERANCE: f64 = 1.10;

/// Shards of the sharded contender: the `mpcbf build --bulk --dir`
/// default.
const SHARDS: usize = 8;

/// The largest rung the sharded contender runs at.
const SHARDED_MAX_N: u64 = 10_000_000;

struct Row {
    n: u64,
    contender: &'static str,
    secs: f64,
    keys_per_sec: f64,
    speedup_vs_naive: f64,
    peak_rss_mib: Option<f64>,
    samples: usize,
}

/// The contenders, in run order.
const CONTENDERS: [&str; 4] = ["naive", "buffered", "parallel", "sharded"];

fn config(n: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(16 * n)
        .expected_items(n)
        .hashes(3)
        .seed(SEED)
        .build()
        .expect("bulk bench shape")
}

/// A [`Sink`] that keeps only the last four bytes of an image, its
/// CRC-32 trailer, so a child checksums its filter without a copy of it.
#[derive(Default)]
struct Trailer([u8; 4]);

impl Sink for Trailer {
    fn put(&mut self, bytes: &[u8]) {
        let take = bytes.len().min(4);
        self.0.rotate_left(take);
        self.0[4 - take..].copy_from_slice(&bytes[bytes.len() - take..]);
    }
}

impl Trailer {
    fn crc(&self) -> u32 {
        u32::from_le_bytes(self.0)
    }
}

/// One build as its child process reported it.
struct Sample {
    secs: f64,
    peak_rss_mib: Option<f64>,
    /// CRC-32 of the built filter's image.
    crc: u32,
}

/// The child's line: the build's wall time from `start`, this process's
/// peak RSS (read before the image is checksummed), and the image CRC.
fn report<F>(start: Instant, filter: F, crc: impl FnOnce(&F) -> u32) -> String {
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let peak = rss::peak_rss_bytes().map_or(-1.0, rss::bytes_to_mib);
    format!("{secs} {peak} {}", crc(&filter))
}

/// `bench_bulk --child CONTENDER N THREADS`: runs one build in this
/// otherwise idle process and prints [`report`]'s line.
fn child(args: &[String]) {
    let [contender, n, threads] = args else {
        eprintln!("usage: bench_bulk {CHILD} CONTENDER N THREADS");
        std::process::exit(2);
    };
    let n: u64 = n.parse().expect("N");
    let threads: usize = threads.parse().expect("THREADS");
    let plain = |f: &Mpcbf<u64, Murmur3>| f.encode_to(Trailer::default()).crc();
    let start = Instant::now();
    let line = match contender.as_str() {
        "naive" => report(start, naive_build(n), plain),
        "buffered" => report(start, buffered_builder(n, 1).finish(), plain),
        "parallel" => report(
            start,
            mpcbf_concurrent::build_parallel(buffered_builder(n, threads), threads),
            plain,
        ),
        "sharded" => report(start, sharded_build(n, threads), |f| {
            check_sharded(f, n);
            f.encode_to(Trailer::default()).crc()
        }),
        other => panic!("unknown contender {other}"),
    };
    println!("{line}");
}

/// Runs one build of `contender` in a child process of its own.
fn sample(contender: &str, n: u64, threads: usize) -> Sample {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args([CHILD, contender, &n.to_string(), &threads.to_string()])
        .output()
        .expect("spawn a bench_bulk child");
    assert!(
        out.status.success(),
        "{contender} build at n={n} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("utf-8 report");
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [secs, peak, crc] = fields[..] else {
        panic!("malformed child report {line:?}");
    };
    let peak: f64 = peak.parse().expect("peak");
    Sample {
        secs: secs.parse().expect("secs"),
        peak_rss_mib: (peak >= 0.0).then_some(peak),
        crc: crc.parse().expect("crc"),
    }
}

fn naive_build(n: u64) -> Mpcbf<u64, Murmur3> {
    let mut filter = Mpcbf::new(config(n));
    BulkKeys::new(SEED, n).for_each_chunk(CHUNK, |chunk| {
        for key in chunk {
            let _ = filter.insert_bytes(key);
        }
    });
    filter
}

/// Streams the key stream into `builder` through the ingest
/// `mpcbf build --bulk` runs: hashed on this thread, staged inline
/// (`threads` 1) or on one helper thread.
fn ingest_keys<B: DigestBuilder>(builder: &mut B, n: u64, threads: usize) {
    ingest(builder, threads, |feed| {
        BulkKeys::new(SEED, n).for_each_chunk(CHUNK, |chunk| {
            for key in chunk {
                feed.push(key);
            }
        })
    });
}

fn buffered_builder(n: u64, threads: usize) -> BulkBuilder<Murmur3> {
    let mut builder = BulkBuilder::new(config(n));
    ingest_keys(&mut builder, n, threads);
    builder
}

fn sharded_build(n: u64, threads: usize) -> ShardedMpcbf<u64, Murmur3> {
    let mut builder = ShardedBulkBuilder::new(config(n), SHARDS);
    ingest_keys(&mut builder, n, threads);
    builder.finish_parallel(threads)
}

/// Checks a sharded build holds every key it admitted: at most its
/// refusals may be missing.
fn check_sharded(filter: &ShardedMpcbf<u64, Murmur3>, n: u64) {
    let mut missing = 0u64;
    BulkKeys::new(SEED, n).for_each_chunk(CHUNK, |chunk| {
        missing += chunk
            .iter()
            .filter(|key| !filter.contains_bytes(*key))
            .count() as u64;
    });
    assert!(
        missing <= filter.overflows(),
        "sharded build lost keys at n={n}: {missing} missing, {} refused",
        filter.overflows()
    );
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One ladder rung: runs every contender `samples` times (the sharded
/// one only up to [`SHARDED_MAX_N`]), each build in a child process of
/// its own, checks every build, and returns their rows: median time, and
/// the least peak RSS.
fn rung(n: u64, threads: usize, samples: usize, quiet: bool) -> Vec<Row> {
    let mut secs = [const { Vec::new() }; CONTENDERS.len()];
    let mut peaks = [const { Vec::new() }; CONTENDERS.len()];
    for _ in 0..samples {
        let mut naive_crc = None;
        for (i, contender) in CONTENDERS.into_iter().enumerate() {
            if contender == "sharded" && n > SHARDED_MAX_N {
                continue;
            }
            let run = sample(contender, n, threads);
            match contender {
                "naive" => naive_crc = Some(run.crc),
                "sharded" => {} // another layout, checked in its child
                _ => assert_eq!(
                    Some(run.crc),
                    naive_crc,
                    "{contender} build diverged from naive at n={n}"
                ),
            }
            secs[i].push(run.secs);
            peaks[i].extend(run.peak_rss_mib);
        }
    }
    let naive_secs = median(secs[0].clone());
    let mut rows = Vec::new();
    for (i, contender) in CONTENDERS.into_iter().enumerate() {
        if secs[i].is_empty() {
            continue; // the sharded contender above its largest rung
        }
        let t = median(secs[i].clone());
        let row = Row {
            n,
            contender,
            secs: t,
            keys_per_sec: n as f64 / t,
            speedup_vs_naive: naive_secs / t,
            peak_rss_mib: peaks[i].iter().copied().reduce(f64::min),
            samples,
        };
        if !quiet {
            println!(
                "n {:>11}  {:<8}  {:>8.3}s  {:>12.0} keys/s  {:>6.2}x{}",
                row.n,
                row.contender,
                row.secs,
                row.keys_per_sec,
                row.speedup_vs_naive,
                row.peak_rss_mib
                    .map(|m| format!("  peak {m:.0} MiB"))
                    .unwrap_or_default(),
            );
        }
        rows.push(row);
    }
    rows
}

/// The committed row line for `(n, contender)` in a previously written
/// `BENCH_bulk.json` (hand-rolled like the writer: one row per line).
fn baseline_row<'a>(json: &'a str, n: u64, contender: &str) -> Option<&'a str> {
    let needle_n = format!("\"n\": {n},");
    let needle_c = format!("\"contender\": \"{contender}\"");
    json.lines()
        .find(|l| l.contains(&needle_n) && l.contains(&needle_c))
}

/// A numeric field of a committed row line.
fn row_field(line: &str, field: &str) -> Option<f64> {
    let value = line.split(&format!("\"{field}\": ")).nth(1)?;
    value
        .split(|c: char| c != '.' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Re-measures the gate rungs against the committed baseline, with the
/// sample count the baseline recorded; returns whether every check
/// passed.
fn gate(json: &str, threads: usize, quiet: bool) -> bool {
    let mut ok = true;
    let samples = baseline_row(json, GATE_N, "buffered")
        .and_then(|l| row_field(l, "samples"))
        .map_or(1, |s| s as usize);
    for n in RSS_GATE_NS {
        let rows = rung(n, threads, samples, quiet);
        if n == GATE_N {
            let recorded = baseline_row(json, n, "buffered")
                .and_then(|l| row_field(l, "speedup_vs_naive"))
                .unwrap_or_else(|| {
                    eprintln!("gate: no buffered n={n} baseline in BENCH_bulk.json");
                    std::process::exit(2);
                });
            let measured = rows[1].speedup_vs_naive;
            let floor = recorded * GATE_TOLERANCE;
            println!(
                "gate: buffered n={n} speedup measured {measured:.3}x, \
                 recorded baseline {recorded:.3}x (floor {floor:.3}x)"
            );
            if measured < floor {
                eprintln!("gate: FAIL — bulk-build speedup regressed below the recorded baseline");
                ok = false;
            }
        }
        if rows.iter().any(|r| r.peak_rss_mib.is_none()) {
            println!("gate: peak RSS not measurable here (no VmHWM); RSS check skipped");
            continue;
        }
        for row in rows.iter().filter(|r| r.contender != "naive") {
            let Some(recorded) =
                baseline_row(json, n, row.contender).and_then(|l| row_field(l, "peak_rss_mib"))
            else {
                eprintln!(
                    "gate: no {} n={n} peak_rss_mib in BENCH_bulk.json",
                    row.contender
                );
                std::process::exit(2);
            };
            let measured = row.peak_rss_mib.expect("peak RSS measurable");
            let ceiling = recorded * RSS_GATE_TOLERANCE;
            println!(
                "gate: {} n={n} peak RSS measured {measured:.1} MiB, \
                 recorded {recorded:.1} MiB (ceiling {ceiling:.1} MiB)",
                row.contender
            );
            if measured > ceiling {
                eprintln!("gate: FAIL — bulk-build peak RSS grew past the recorded baseline");
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(CHILD) {
        child(&argv[2..]);
        return;
    }
    let args = Args::parse();
    let threads = mpcbf_concurrent::default_threads();
    let committed = std::fs::read_to_string("BENCH_bulk.json").unwrap_or_default();

    if args.gate {
        if !gate(&committed, threads, args.quiet) {
            std::process::exit(1);
        }
        println!("gate: OK");
        return;
    }

    // The top rung is the title claim — a billion keys, where the
    // filter (2 GB) dwarfs every cache level and naive insertion is
    // one TLB-missing DRAM round trip per key. CI runs --scale 100, so
    // it climbs only to 10^7 there.
    let ladder: Vec<u64> = [1_000_000u64, 10_000_000, 100_000_000, 1_000_000_000]
        .iter()
        .map(|&n| (n / args.scale).max(100_000))
        .collect();
    let samples = args.trials_or(1);
    let mut rows = Vec::new();
    let mut carried = Vec::new();
    for &n in &ladder {
        if rows.iter().any(|r: &Row| r.n == n) {
            continue; // scale collapsed two rungs onto the same n
        }
        if args.max_n.is_some_and(|max| n > max) {
            // Not re-run: keep the committed rows, marked as such.
            for contender in CONTENDERS {
                if let Some(line) = baseline_row(&committed, n, contender) {
                    let line = line.trim().trim_end_matches(',').trim_end_matches('}');
                    let line = match line.contains("\"samples\"") {
                        true => line.replace("\"rerun\": true", "\"rerun\": false"),
                        false => format!("{line}, \"samples\": 1, \"rerun\": false"),
                    };
                    carried.push(format!("    {}}}", line.trim()));
                }
            }
            continue;
        }
        rows.extend(rung(n, threads, samples, args.quiet));
    }

    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"contender\": \"{}\", \"secs\": {:.4}, \
                 \"keys_per_sec\": {:.0}, \"speedup_vs_naive\": {:.3}, \"peak_rss_mib\": {}, \
                 \"samples\": {}, \"rerun\": true}}",
                r.n,
                r.contender,
                r.secs,
                r.keys_per_sec,
                r.speedup_vs_naive,
                r.peak_rss_mib
                    .map(|m| format!("{m:.1}"))
                    .unwrap_or_else(|| "null".to_string()),
                r.samples,
            )
        })
        .collect();
    lines.extend(carried);
    let mut json = String::from("{\n  \"rows\": [\n");
    let _ = writeln!(json, "{}", lines.join(",\n"));
    let _ = write!(
        json,
        "  ],\n  \"threads\": {threads}, \"bits_per_key\": 16, \"hashes\": 3, \
         \"chunk\": {CHUNK}, \"seed\": {SEED}\n}}\n"
    );
    std::fs::write("BENCH_bulk.json", &json).expect("write BENCH_bulk.json");
    println!("wrote BENCH_bulk.json");
}
