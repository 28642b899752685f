//! Criterion benchmarks of the concurrent MPCBF under single-thread and
//! contended multi-thread mixes, at 256 shards and at one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::MpcbfConfig;
use mpcbf_hash::Murmur3;
use std::hint::black_box;

fn config() -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(4_000_000)
        .expected_items(50_000)
        .hashes(3)
        .seed(13)
        .build()
        .unwrap()
}

fn bench_single_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrent_single_thread");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    let sharded: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(config(), 256);
    let one_shard: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(config(), 1);
    for i in 0..10_000u64 {
        sharded.insert(&i).unwrap();
        one_shard.insert(&i).unwrap();
    }

    g.bench_function("sharded_query", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 20_000;
            black_box(sharded.contains(&i))
        })
    });
    g.bench_function("one_shard_query", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 20_000;
            black_box(one_shard.contains(&i))
        })
    });
    g.bench_function("sharded_insert_remove", |b| {
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            sharded.insert(&i).unwrap();
            sharded.remove(&i).unwrap();
        })
    });
    g.bench_function("one_shard_insert_remove", |b| {
        let mut i = 2_000_000u64;
        b.iter(|| {
            i += 1;
            one_shard.insert(&i).unwrap();
            one_shard.remove(&i).unwrap();
        })
    });
    g.finish();
}

fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrent_contended");
    g.sample_size(15);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let threads = 4usize;
    let ops = 20_000u64;
    g.throughput(Throughput::Elements(ops * threads as u64));

    g.bench_with_input(
        BenchmarkId::new("sharded_mixed", threads),
        &threads,
        |b, &t| {
            b.iter(|| {
                let f: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(config(), 256);
                crossbeam::scope(|s| {
                    for tid in 0..t as u64 {
                        let f = &f;
                        s.spawn(move |_| {
                            for i in 0..ops {
                                let k = (tid << 32) | i;
                                f.insert(&k).unwrap();
                                black_box(f.contains(&k));
                                f.remove(&k).unwrap();
                            }
                        });
                    }
                })
                .unwrap();
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("one_shard_mixed", threads),
        &threads,
        |b, &t| {
            b.iter(|| {
                let f: ShardedMpcbf<u64, Murmur3> = ShardedMpcbf::new(config(), 1);
                crossbeam::scope(|s| {
                    for tid in 0..t as u64 {
                        let f = &f;
                        s.spawn(move |_| {
                            for i in 0..ops {
                                let k = (tid << 32) | i;
                                f.insert(&k).unwrap();
                                black_box(f.contains(&k));
                                f.remove(&k).unwrap();
                            }
                        });
                    }
                })
                .unwrap();
            })
        },
    );
    g.finish();
}

criterion_group!(concurrent_benches, bench_single_thread, bench_contended);
criterion_main!(concurrent_benches);
