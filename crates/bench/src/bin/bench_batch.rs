//! Scalar-vs-batch throughput at the Table II load points, emitted as
//! `BENCH_batch.json`.
//!
//! For MPCBF-1, MPCBF-2 and CBF at the paper's Table II configuration
//! (M = 8 Mb, n = 100 K, k = 3), measures queries/sec and update
//! pairs/sec through (a) the scalar loop and (b) the fused batch pipeline
//! (one [`PlanBuffer`] held across every chunk) at batch sizes 1, 8, 64
//! and 512, and reports the batch/scalar speedup per size. A fourth
//! filter row, `MPCBF-1/dram` (M = 512 Mb, n = 6.4 M, same bits/item),
//! spills far past last-level cache with a query stream too wide to stay
//! resident — the DRAM-bound regime the paper's DDR3 setting implies and
//! the one the interleaved word walks are built for (the Table II filter
//! is 1 MB and cache-resident, so its batch ratios are bounded by hashing
//! throughput, not memory-level parallelism). The JSON is hand-written
//! (no serde in the workspace) and lands in the current directory; run
//! from the repo root.
//!
//! With `--gate`, the binary instead *reads* the committed
//! `BENCH_batch.json`, re-measures the MPCBF-1 query leg, and exits
//! non-zero if the batch-64 speedup fell below the recorded baseline
//! (with a noise-tolerance factor) — the CI regression gate.

use mpcbf_bench::report::fixed;
use mpcbf_bench::Args;
use mpcbf_core::{Cbf, CountingFilter, Mpcbf, MpcbfConfig, PlanBuffer};
use mpcbf_hash::Murmur3;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

/// Batch-1 must degrade to the scalar path (`SMALL_BATCH`), so its only
/// costs over the scalar loop are one `Vec` allocation per call and the
/// `OpCost` materialisation the batch contract requires (the bare scalar
/// loop lets the optimiser discard the accounting). That bounds batch-1
/// around 0.6–0.9x; anything below this floor means the degrade is
/// broken (the pre-fusion pipeline measured 0.51x on MPCBF-1 queries and
/// 0.32x on CBF queries).
const BATCH1_FLOOR: f64 = 0.5;

/// A gated re-measurement may be this much below the recorded baseline
/// before failing — headroom for single-run noise on shared CI hosts.
const GATE_TOLERANCE: f64 = 0.7;

/// Runs `pass` (one full pass returning its op count) repeatedly for at
/// least `budget`, returning ops/sec.
fn ops_per_sec(budget: Duration, mut pass: impl FnMut() -> u64) -> f64 {
    let _ = pass(); // warm-up: touch every word once
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < budget {
        ops += pass();
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

struct Measurement {
    filter: String,
    op: String,
    scalar: f64,
    /// Parallel to [`BATCH_SIZES`].
    batched: [f64; 4],
}

impl Measurement {
    fn speedup(&self, size_idx: usize) -> f64 {
        self.batched[size_idx] / self.scalar
    }
}

fn measure<F: CountingFilter>(
    name: &str,
    filter: &mut F,
    members: &[[u8; 8]],
    queries: &[[u8; 8]],
    churn: &[[u8; 8]],
    budget: Duration,
) -> Vec<Measurement> {
    for k in members {
        filter.insert_bytes(k).expect("pre-load insert");
    }
    let query_views: Vec<&[u8]> = queries.iter().map(|k| k.as_slice()).collect();
    let churn_views: Vec<&[u8]> = churn.iter().map(|k| k.as_slice()).collect();

    let scalar_q = ops_per_sec(budget, || {
        let mut hits = 0u64;
        for k in &query_views {
            hits += u64::from(filter.contains_bytes(k));
        }
        black_box(hits);
        query_views.len() as u64
    });
    let mut batched_q = [0f64; 4];
    for (i, &batch) in BATCH_SIZES.iter().enumerate() {
        let mut plans = PlanBuffer::new();
        batched_q[i] = ops_per_sec(budget, || {
            for chunk in query_views.chunks(batch) {
                black_box(filter.contains_batch_with(chunk, &mut plans));
            }
            query_views.len() as u64
        });
    }

    // One "update" op = one insert + one matching remove (net-zero state,
    // so every pass sees the identical load point).
    let scalar_u = ops_per_sec(budget, || {
        for k in &churn_views {
            filter.insert_bytes(k).expect("insert");
        }
        for k in &churn_views {
            filter.remove_bytes(k).expect("remove");
        }
        churn_views.len() as u64
    });
    let mut batched_u = [0f64; 4];
    for (i, &batch) in BATCH_SIZES.iter().enumerate() {
        let mut plans = PlanBuffer::new();
        batched_u[i] = ops_per_sec(budget, || {
            for chunk in churn_views.chunks(batch) {
                for r in filter.insert_batch_with(chunk, &mut plans).0 {
                    r.expect("insert");
                }
            }
            for chunk in churn_views.chunks(batch) {
                for r in filter.remove_batch_with(chunk, &mut plans).0 {
                    r.expect("remove");
                }
            }
            churn_views.len() as u64
        });
    }

    vec![
        Measurement {
            filter: name.to_string(),
            op: "query".to_string(),
            scalar: scalar_q,
            batched: batched_q,
        },
        Measurement {
            filter: name.to_string(),
            op: "update".to_string(),
            scalar: scalar_u,
            batched: batched_u,
        },
    ]
}

/// Pulls the recorded MPCBF-1 query batch-64 speedup out of a previously
/// written `BENCH_batch.json` (hand-rolled like the writer: find the
/// MPCBF-1 query result line, then the `"64"` entry of its speedup map).
fn baseline_query_speedup_64(json: &str) -> Option<f64> {
    let line = json
        .lines()
        .find(|l| l.contains("\"filter\": \"MPCBF-1\"") && l.contains("\"op\": \"query\""))?;
    let speedups = line.split("\"speedup\": {").nth(1)?;
    let value = speedups.split("\"64\": ").nth(1)?;
    value
        .split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    let args = Args::parse();
    let big_m = 8_000_000u64 / args.scale;
    let n = args.scaled(100_000);
    let k = 3u32;
    let budget = Duration::from_millis(if args.scale > 1 { 120 } else { 300 });

    let members: Vec<[u8; 8]> = (0..n).map(|i| i.to_le_bytes()).collect();
    // 80/20 member/stranger query mix (§IV.A), deterministically interleaved.
    let queries: Vec<[u8; 8]> = (0..args.scaled(40_000))
        .map(|i| {
            if i % 5 == 4 {
                (10_000_000 + i).to_le_bytes()
            } else {
                (i % n).to_le_bytes()
            }
        })
        .collect();
    let churn: Vec<[u8; 8]> = (50_000_000..50_000_000 + args.scaled(4_096))
        .map(|i| i.to_le_bytes())
        .collect();

    let mpcbf = |g: u32| {
        Mpcbf::<u64, Murmur3>::new(
            MpcbfConfig::builder()
                .memory_bits(big_m)
                .expected_items(n)
                .hashes(k)
                .accesses(g)
                .seed(1)
                .build()
                .unwrap(),
        )
    };

    if args.gate {
        // Regression gate: re-measure only the MPCBF-1 query leg and
        // compare against the committed baseline; never rewrites the JSON.
        let recorded = std::fs::read_to_string("BENCH_batch.json")
            .ok()
            .as_deref()
            .and_then(baseline_query_speedup_64)
            .unwrap_or_else(|| {
                eprintln!("gate: no MPCBF-1 query baseline in BENCH_batch.json");
                std::process::exit(2);
            });
        let measured = measure("MPCBF-1", &mut mpcbf(1), &members, &queries, &churn, budget)
            .into_iter()
            .find(|m| m.op == "query")
            .map(|m| m.speedup(2))
            .expect("query measurement");
        let floor = recorded * GATE_TOLERANCE;
        println!(
            "gate: MPCBF-1 batch-64 query speedup measured {}x, recorded baseline {}x \
             (floor {}x)",
            fixed(measured, 3),
            fixed(recorded, 3),
            fixed(floor, 3),
        );
        if measured < floor {
            eprintln!("gate: FAIL — batch query speedup regressed below the recorded baseline");
            std::process::exit(1);
        }
        println!("gate: OK");
        return;
    }

    let mut all = Vec::new();
    all.extend(measure(
        "MPCBF-1",
        &mut mpcbf(1),
        &members,
        &queries,
        &churn,
        budget,
    ));
    all.extend(measure(
        "MPCBF-2",
        &mut mpcbf(2),
        &members,
        &queries,
        &churn,
        budget,
    ));
    all.extend(measure(
        "CBF",
        &mut Cbf::<Murmur3>::with_memory(big_m, k, 1),
        &members,
        &queries,
        &churn,
        budget,
    ));

    // DRAM-resident load point: same bits/item as Table II, 64x the
    // memory, and a query stream touching ~64x more distinct lines than
    // last-level cache holds — here the interleaved walks overlap real
    // DRAM misses instead of L2 hits.
    let dram_m = 512_000_000u64 / args.scale;
    let dram_n = args.scaled(6_400_000);
    let dram_members: Vec<[u8; 8]> = (0..dram_n).map(|i| i.to_le_bytes()).collect();
    let dram_queries: Vec<[u8; 8]> = (0..args.scaled(1_000_000))
        .map(|i| {
            if i % 5 == 4 {
                (10_000_000_000 + i).to_le_bytes()
            } else {
                (i % dram_n).to_le_bytes()
            }
        })
        .collect();
    let mut dram_filter = Mpcbf::<u64, Murmur3>::new(
        MpcbfConfig::builder()
            .memory_bits(dram_m)
            .expected_items(dram_n)
            .hashes(k)
            .accesses(1)
            .seed(1)
            .build()
            .unwrap(),
    );
    all.extend(measure(
        "MPCBF-1/dram",
        &mut dram_filter,
        &dram_members,
        &dram_queries,
        &churn,
        budget,
    ));

    // Sizes below SMALL_BATCH degrade to the scalar loop, so batch-1 must
    // track scalar throughput; a collapse here means the degrade broke.
    for m in &all {
        assert!(
            m.speedup(0) >= BATCH1_FLOOR,
            "{} {}: batch-1 speedup {} fell below the scalar-degrade floor {}",
            m.filter,
            m.op,
            fixed(m.speedup(0), 3),
            BATCH1_FLOOR,
        );
    }

    let speedup_64 = |name: &str| {
        all.iter()
            .find(|m| m.filter == name && m.op == "query")
            .map(|m| m.speedup(2))
            .unwrap_or(0.0)
    };
    let note = format!(
        "measured MPCBF-1 query speedup at batch 64: {}x DRAM-resident \
         (512 Mb filter), {}x cache-resident (Table II, bounded by \
         hashing throughput); single-core run; fused pipeline: reusable \
         plan buffer, one carried-rank walk per update, interleaved word \
         walks; batch sizes below {} degrade to the scalar loop",
        fixed(speedup_64("MPCBF-1/dram"), 2),
        fixed(speedup_64("MPCBF-1"), 2),
        mpcbf_core::SMALL_BATCH,
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"memory_bits\": {big_m}, \"n\": {n}, \"k\": {k}, \
         \"query_mix\": \"80% member\", \"batch_sizes\": [1, 8, 64, 512]}},"
    );
    let _ = writeln!(json, "  \"note\": \"{note}\",");
    json.push_str("  \"results\": [\n");
    for (i, m) in all.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"filter\": \"{}\", \"op\": \"{}\", \"scalar_ops_per_sec\": {:.0}, \
             \"batch_ops_per_sec\": {{",
            m.filter, m.op, m.scalar
        );
        for (j, &batch) in BATCH_SIZES.iter().enumerate() {
            let _ = write!(
                json,
                "\"{batch}\": {:.0}{}",
                m.batched[j],
                if j + 1 < BATCH_SIZES.len() { ", " } else { "" }
            );
        }
        json.push_str("}, \"speedup\": {");
        for (j, &batch) in BATCH_SIZES.iter().enumerate() {
            let _ = write!(
                json,
                "\"{batch}\": {}{}",
                fixed(m.speedup(j), 3),
                if j + 1 < BATCH_SIZES.len() { ", " } else { "" }
            );
        }
        let _ = writeln!(json, "}}}}{}", if i + 1 < all.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    if !args.quiet {
        println!("{json}");
        println!("wrote BENCH_batch.json");
    }
}
