//! Ablation 6: thread scaling of the concurrent MPCBF.
//!
//! The paper motivates MPCBF with line-rate parallel packet processing;
//! its per-word state makes per-word synchronisation natural. This
//! ablation measures mixed insert/query/remove throughput of a
//! globally-locked sequential filter and of the lock-free sharded filter
//! (one CAS loop per word group) at 256 shards and at one, from 1 to 8
//! threads.

use mpcbf_bench::report::fixed;
use mpcbf_bench::{Args, Table};
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::{CountingFilter, Filter, Mpcbf, MpcbfConfig};
use mpcbf_hash::Murmur3;
use std::sync::Mutex;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let n = args.scaled(100_000);
    let ops_per_thread = args.scaled(200_000);
    let big_m = 8_000_000u64 / args.scale;

    let cfg = MpcbfConfig::builder()
        .memory_bits(big_m)
        .expected_items(n)
        .hashes(3)
        .seed(66)
        .build()
        .expect("shape");

    let mut t = Table::new(
        &format!(
            "Ablation — concurrent throughput, Mops/s ({} ops/thread, 50% query / 25% insert / 25% remove)",
            ops_per_thread
        ),
        &["threads", "Mutex<Mpcbf>", "ShardedMpcbf", "ShardedMpcbf (1 shard)"],
    );

    for threads in [1usize, 2, 4, 8] {
        let total_ops = ops_per_thread * threads as u64;

        // Global mutex baseline.
        let locked = Mutex::new(Mpcbf::<u64, Murmur3>::new(cfg));
        let mutex_mops = {
            let start = Instant::now();
            crossbeam::scope(|s| {
                for tid in 0..threads {
                    let locked = &locked;
                    s.spawn(move |_| {
                        run_mix(tid as u64, ops_per_thread, |op, key| {
                            let mut f = locked.lock().unwrap();
                            match op {
                                0 => {
                                    let _ = f.insert(&key);
                                }
                                1 => {
                                    let _ = f.remove(&key);
                                }
                                _ => {
                                    let _ = std::hint::black_box(f.contains(&key));
                                }
                            }
                        });
                    });
                }
            })
            .unwrap();
            total_ops as f64 / start.elapsed().as_secs_f64() / 1e6
        };

        // Lock-free, at 256 shards and at one.
        let [sharded_mops, one_shard_mops] = [256, 1].map(|shards| {
            let f: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(cfg, shards);
            let start = Instant::now();
            crossbeam::scope(|s| {
                for tid in 0..threads {
                    let f = &f;
                    s.spawn(move |_| {
                        run_mix(tid as u64, ops_per_thread, |op, key| match op {
                            0 => {
                                let _ = f.insert(&key);
                            }
                            1 => {
                                let _ = f.remove(&key);
                            }
                            _ => {
                                let _ = std::hint::black_box(f.contains(&key));
                            }
                        });
                    });
                }
            })
            .unwrap();
            total_ops as f64 / start.elapsed().as_secs_f64() / 1e6
        });

        t.row(vec![
            threads.to_string(),
            fixed(mutex_mops, 2),
            fixed(sharded_mops, 2),
            fixed(one_shard_mops, 2),
        ]);
    }
    t.finish(&args.out_dir, "ablation_concurrent", args.quiet);
}

/// Deterministic per-thread op mix: op 0 inserts a fresh key, op 1
/// removes it again (keys are thread-disjoint, so removes always target
/// a present key), op 2.. queries random keys.
fn run_mix(tid: u64, ops: u64, mut apply: impl FnMut(u8, u64)) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tid + 1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let base = (tid + 1) << 40;
    let mut live = 0u64;
    for i in 0..ops {
        match next() % 4 {
            0 => {
                apply(0, base + live);
                live += 1;
            }
            1 if live > 0 => {
                live -= 1;
                apply(1, base + live);
            }
            _ => apply(2, next() % (base / 2)),
        }
        let _ = i;
    }
}
