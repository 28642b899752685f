//! Bulk-build benchmark: naive per-key insert vs the cache-bucketed
//! streaming builder vs the parallel region finish.
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
//! over the naive scalar loop, and the peak-RSS delta attributed to each
//! build (the high-water mark is reset before each contender). Every
//! contender's filter is checked identical to the naive build before the
//! row is trusted. `--trials N` runs each contender `N` times and
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
//! * a buffered or parallel row's peak RSS exceeds its recorded value by
//!   more than 10% — the staging buffers must stay sized to the keys.

use mpcbf_bench::{rss, Args};
use mpcbf_core::{BulkBuilder, Filter, Mpcbf, MpcbfConfig};
use mpcbf_hash::Murmur3;
use mpcbf_workloads::BulkKeys;
use std::fmt::Write as _;
use std::time::Instant;

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
const CONTENDERS: [&str; 3] = ["naive", "buffered", "parallel"];

fn config(n: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(16 * n)
        .expected_items(n)
        .hashes(3)
        .seed(SEED)
        .build()
        .expect("bulk bench shape")
}

/// Times one build, attributing peak RSS to it.
fn timed(build: impl FnOnce() -> Mpcbf<u64, Murmur3>) -> (Mpcbf<u64, Murmur3>, f64, Option<f64>) {
    rss::reset_peak_rss();
    let start = Instant::now();
    let filter = build();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let peak = rss::peak_rss_bytes().map(rss::bytes_to_mib);
    (filter, secs, peak)
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

fn buffered_builder(n: u64) -> BulkBuilder<Murmur3> {
    let mut builder = BulkBuilder::new(config(n));
    BulkKeys::new(SEED, n).for_each_chunk(CHUNK, |chunk| {
        builder.push_chunk(chunk);
    });
    builder
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One ladder rung: runs all three contenders `samples` times, checks
/// every build identical to the naive one, and returns their rows:
/// median time, and the *least* peak RSS — memory the allocator kept
/// from an earlier sample only ever adds to a reading, and how much it
/// keeps varies from run to run.
fn rung(n: u64, threads: usize, samples: usize, quiet: bool) -> Vec<Row> {
    let mut secs = [const { Vec::new() }; 3];
    let mut peaks = [const { Vec::new() }; 3];
    for _ in 0..samples {
        let (naive, naive_secs, naive_peak) = timed(|| naive_build(n));
        let (buffered, buffered_secs, buffered_peak) = timed(|| buffered_builder(n).finish());
        let (parallel, parallel_secs, parallel_peak) =
            timed(|| mpcbf_concurrent::build_parallel(buffered_builder(n), threads));
        assert_eq!(
            naive.raw_words(),
            buffered.raw_words(),
            "buffered build diverged from naive at n={n}"
        );
        assert_eq!(
            naive.raw_words(),
            parallel.raw_words(),
            "parallel build diverged from naive at n={n}"
        );
        assert_eq!(naive.items(), buffered.items());
        assert_eq!(naive.overflows(), buffered.overflows());
        for (i, (t, peak)) in [
            (naive_secs, naive_peak),
            (buffered_secs, buffered_peak),
            (parallel_secs, parallel_peak),
        ]
        .into_iter()
        .enumerate()
        {
            secs[i].push(t);
            peaks[i].extend(peak);
        }
    }
    let naive_secs = median(secs[0].clone());
    let mut rows = Vec::new();
    for (i, contender) in CONTENDERS.into_iter().enumerate() {
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
/// sample count the baseline recorded (peak RSS depends on what earlier
/// samples left in the allocator, so the gate repeats the same
/// sequence); returns whether every check passed.
fn gate(json: &str, threads: usize, quiet: bool) -> bool {
    let mut ok = true;
    let rss_measurable = rss::reset_peak_rss();
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
        if !rss_measurable {
            println!("gate: peak RSS not measurable here (no VmHWM reset); RSS check skipped");
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
