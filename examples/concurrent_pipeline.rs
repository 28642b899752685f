//! Concurrent packet pipeline: several worker threads classify packets
//! against one shared MPCBF while a control thread churns the tracked-flow
//! set — the parallel line-card setting the paper's introduction motivates
//! (and the reason the per-word layout matters: updates synchronise on
//! single words with a compare-and-swap, not on the filter).
//!
//! ```text
//! cargo run --release --example concurrent_pipeline
//! ```

use mpcbf::concurrent::ShardedMpcbf;
use mpcbf::core::MpcbfConfig;
use mpcbf::hash::Murmur3;
use mpcbf::workloads::flowtrace::{FlowTrace, FlowTraceSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

fn main() {
    let spec = FlowTraceSpec::default().scaled_down(20);
    println!(
        "generating trace: {} records over {} flows ...",
        spec.total_records, spec.unique_flows
    );
    let trace = FlowTrace::generate(&spec);

    let config = MpcbfConfig::builder()
        .memory_bits(1_000_000)
        .expected_items(trace.test_set.len() as u64)
        .hashes(3)
        .seed(4242)
        .build()
        .expect("shape");
    let filter: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(config, 8);
    for flow in &trace.test_set {
        let _ = filter.insert(flow);
    }

    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let shards: Vec<&[(u32, u32)]> = trace
        .records
        .chunks(trace.records.len().div_ceil(workers))
        .collect();

    let hits = AtomicU64::new(0);
    let churn_done = AtomicBool::new(false);
    let start = Instant::now();
    run_pipeline(&filter, &shards, &hits, &churn_done, &trace);
    let elapsed = start.elapsed();

    println!(
        "{} packets across {workers} workers in {:.1} ms — {:.1} M lookups/s total",
        trace.records.len(),
        elapsed.as_secs_f64() * 1e3,
        trace.records.len() as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!("tracked-flow hits: {}", hits.load(Ordering::Relaxed));
    println!("word overflows:    {}", filter.overflows());
}

fn run_pipeline(
    filter: &ShardedMpcbf<u64, Murmur3>,
    shards: &[&[(u32, u32)]],
    hits: &AtomicU64,
    churn_done: &AtomicBool,
    trace: &FlowTrace,
) {
    std::thread::scope(|s| {
        // Data plane: one classifier thread per shard.
        for shard in shards {
            s.spawn(move || {
                let mut local = 0u64;
                for flow in *shard {
                    local += u64::from(filter.contains(flow));
                }
                hits.fetch_add(local, Ordering::Relaxed);
            });
        }
        // Control plane: churn the tracked set concurrently.
        s.spawn(move || {
            for period in &trace.churn.periods {
                for old in &period.deletes {
                    let _ = filter.remove(old);
                }
                for new in &period.inserts {
                    let _ = filter.insert(new);
                }
            }
            churn_done.store(true, Ordering::Release);
        });
    });
    assert!(churn_done.load(Ordering::Acquire));
}
