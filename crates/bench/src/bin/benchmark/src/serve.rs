//! The served workloads: a real `mpcbf serve` child, preloaded by
//! `mpcbf build --bulk --dir`, driven by two closed-loop connections.

use crate::gates;
use crate::keys::{admitted_fresh, first_admitting, rings, Choice, Keys};
use crate::layers::{self, BulkRun, Stages};
use crate::load::{self, Conn, Cursor, Pools, TraceSetup};
use crate::proc::{self, Serve};
use crate::replay::{Standalone, SERVED_READ, SERVED_WRITE};
use crate::trace::{self, Tracer};
use crate::workload::{EndToEnd, Mix, PerLayer, Shape, Workload};
use crate::{latency_us, Env, Outcome};
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_durability::FsyncPolicy;
use mpcbf_hash::Murmur3;
use mpcbf_server::Client;
use std::path::Path;
use std::time::{Duration, Instant};

/// Client connections, one per load thread (the box has two cores).
pub const CONNS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Idle `PING`s behind `server.socket.ping_rtt_us`.
const PINGS: usize = 2_000;

/// Everything a served run needs before the server starts.
struct Inputs {
    /// When the run started: the trace's time zero.
    origin: Instant,
    choice: Choice,
    keys: Keys,
    replica: ShardedMpcbf<u64, Murmur3>,
    bulk: BulkRun,
    pools: Vec<Pools>,
}

/// Builds the preload in process (choosing the first seed whose members
/// all load) and the per-connection request pools.
fn inputs(shape: &Shape, env: &Env) -> Result<Inputs, String> {
    let origin = Instant::now();
    layers::config(shape.members, shape.memory_bits, env.seed)?;
    let (seed, seeds_skipped, (replica, bulk)) = first_admitting(env.seed, |s| {
        let keys = Keys::new(s, shape.members);
        let config = layers::config(shape.members, shape.memory_bits, s)
            .expect("the shape was validated above");
        let built = layers::build_sharded(config, |push| keys.for_each_member(push));
        let admitted = built.0.overflows() == 0;
        (built, admitted)
    })?;
    let keys = Keys::new(seed, shape.members);
    // Refusals land in a scratch copy: the replica must stay identical to
    // the served filter, overflow counter included.
    let scratch = ShardedMpcbf::<u64, Murmur3>::decode(&replica.encode())
        .map_err(|e| format!("replica copy: {e}"))?;
    let (fresh, fresh_refused) =
        admitted_fresh(&keys, CONNS * shape.fresh_ring * shape.batch, |batch| {
            scratch
                .insert_batch_bytes(batch)
                .iter()
                .map(Result::is_ok)
                .collect()
        })?;
    let pools = rings(fresh, CONNS, shape.fresh_ring, shape.batch)
        .into_iter()
        .enumerate()
        .map(|(conn, ring)| load::pools(&keys, shape, ring, conn as u64))
        .collect();
    Ok(Inputs {
        origin,
        choice: Choice {
            input_seed: seed,
            seeds_skipped,
            fresh_refused,
        },
        keys,
        replica,
        bulk,
        pools,
    })
}

/// A preloaded server that answers, and what bringing it up cost.
struct SetUp {
    server: Serve,
    /// Preload plus server start, until the first `PING` is answered.
    secs: f64,
    /// The server's cold start alone.
    cold_start_ms: f64,
    /// Peak resident set of the set-up: the preload build's, or the
    /// server's by its first answer, whichever is larger.
    peak_rss_kib: u64,
}

/// Preloads a fresh data directory and starts the server on it, until
/// it answers `PING`.
fn setup(env: &Env, shape: &Shape, seed: u64, data: &Path) -> Result<SetUp, String> {
    let _ = std::fs::remove_dir_all(data);
    let n = shape.members.to_string();
    let mut build: Vec<String> = ["build", "--bulk", "--synthetic", &n, "--items", &n]
        .map(String::from)
        .to_vec();
    build.extend([
        "--memory-bits".to_string(),
        shape.memory_bits.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--dir".into(),
        data.display().to_string(),
        "--shards".into(),
        layers::SHARDS.to_string(),
        "--threads".into(),
        layers::BUILD_THREADS.to_string(),
    ]);
    let mut serve: Vec<String> = vec![
        "--shards".into(),
        layers::SHARDS.to_string(),
        "--fsync".into(),
        shape.fsync.into(),
    ];
    if let Some(every) = shape.snapshot_every {
        serve.extend(["--snapshot-every".to_string(), every.to_string()]);
    }
    let start = Instant::now();
    let preload = proc::run(&env.bin, &build, Duration::from_secs(600))?;
    let preloaded = Instant::now();
    let server = Serve::start(&env.bin, data, &serve)?;
    server
        .connect()?
        .ping()
        .map_err(|e| format!("first ping: {e}"))?;
    let done = Instant::now();
    Ok(SetUp {
        peak_rss_kib: preload.peak_rss_kib.max(server.peak_rss_kib()),
        server,
        secs: (done - start).as_secs_f64(),
        cold_start_ms: (done - preloaded).as_secs_f64() * 1e3,
    })
}

/// The lifetime peak memory of a stopped server, in MiB; a server that
/// did not stop cleanly fails the run.
pub fn server_peak_mib(stopped: Result<proc::Exit, String>, out: &mut Outcome) -> f64 {
    match stopped {
        Ok(exit) => exit.peak_rss_kib as f64 / 1024.0,
        Err(e) => {
            out.errors.push(e);
            0.0
        }
    }
}

fn connect(server: &Serve, mix: Mix) -> Result<Vec<Conn<Client>>, String> {
    (0..CONNS)
        .map(|lane| {
            Ok(Conn {
                target: server.connect()?,
                cursor: Cursor::new(mix, lane as u64),
            })
        })
        .collect()
}

/// Seconds of write probe after the read-only point-query load of a
/// traced run: enough writes for a p999 with ten samples beyond it.
fn probe_secs(env: &Env) -> f64 {
    if env.quick {
        0.5
    } else {
        2.0
    }
}

pub fn run(workload: Workload, env: &Env, traced: bool) -> Result<Outcome, String> {
    let shape = workload.shape(env.quick);
    let inputs = inputs(&shape, env)?;
    let data = env.dir.join("data");
    if traced {
        traced_run(&shape, env, &inputs, &data)
    } else {
        untraced_run(&shape, env, &inputs, &data)
    }
}

/// The workload's own load for the run's seconds, every answer checked;
/// then the set-up's time and memory, and the false-positive rate.
fn untraced_run(shape: &Shape, env: &Env, inputs: &Inputs, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        choice: inputs.choice,
        ..Outcome::default()
    };
    let seed = inputs.choice.input_seed;
    let (mut secs, mut peaks) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            Serve::stop(previous)?;
        }
        let s = setup(env, shape, seed, data)?;
        secs.push(s.secs);
        peaks.push(s.peak_rss_kib as f64 / 1024.0);
        server = Some(s.server);
    }
    let server = server.expect("at least one set-up ran");
    let pools = &inputs.pools;
    let mut conns = connect(&server, shape.mix)?;
    out.absorb(&load::window(&mut conns, pools, env.warmup(), None)?.phase);
    out.absorb(&load::window(&mut conns, pools, env.seconds, None)?.phase);
    out.gate(load::drain(&mut conns, pools));
    drop(conns);
    server.stop()?;
    out.gate(gates::served_equals_replica(data, &inputs.replica));

    let replica = &inputs.replica;
    let fpr = gates::fpr(&inputs.keys, gates::FPR_PROBES, |keys| {
        replica.contains_batch_bytes(keys)
    });
    out.gate(gates::fpr_within_bound(
        fpr,
        shape.members,
        &replica.shape(),
    ));
    out.metrics = EndToEnd {
        setup_s: crate::stats::median(&secs),
        fpr,
        peak_rss_mib: crate::stats::median(&peaks),
    }
    .named();
    Ok(out)
}

fn traced_run(shape: &Shape, env: &Env, inputs: &Inputs, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        choice: inputs.choice,
        ..Outcome::default()
    };
    let seed = inputs.choice.input_seed;
    let mut tracer = Tracer::new(inputs.origin, 0);
    inputs.bulk.record(&mut tracer);
    let SetUp {
        server,
        cold_start_ms,
        ..
    } = setup(env, shape, seed, data)?;
    let ping_us = layers::ping_rtt_us(&mut server.connect()?, PINGS)?;
    let pools = &inputs.pools;

    // The isolated stages walk a plain filter of the same shape and keys.
    let config = layers::config(shape.members, shape.memory_bits, seed)?;
    let (mut plain_filter, _) =
        layers::build_plain(config, |push| inputs.keys.for_each_member(push));
    let queries: Vec<Vec<u8>> = pools[0]
        .queries
        .iter()
        .flat_map(|q| q.keys.clone())
        .collect();
    let (words_per_query, words_per_update, hash_bits_per_query) =
        layers::access_counts(&mut plain_filter, &queries, &pools[0].fresh.concat())?;
    let standalone = Standalone {
        words: plain_filter.raw_words(),
        shape: plain_filter.shape(),
        seed,
        // The seed was chosen for the sharded layout; the plain one may
        // still refuse a member.
        holds_every_member: plain_filter.overflows() == 0,
    };
    drop(plain_filter);

    let policy = layers::fsync_policy(shape.fsync)?;
    let wal_root = env.dir.join("replay");
    let setup = TraceSetup {
        origin: inputs.origin,
        replica: &inputs.replica,
        standalone: &standalone,
        wal_root: &wal_root,
        sync_each: policy == FsyncPolicy::Always,
        mirrors: true,
        first_lane: 1,
    };
    let mut conns = connect(&server, shape.mix)?;
    out.absorb(&load::window(&mut conns, pools, env.warmup(), None)?.phase);
    let run = load::alternate(
        &mut conns,
        pools,
        env.trace_window(),
        env.trace_slices(),
        &setup,
        Some(server.pid()),
    )?;
    out.absorb(&run.plain);
    out.absorb(&run.traced.phase);
    let (mut plain, mut traced) = (run.plain, run.traced);
    let overhead_pct =
        (plain.throughput() - traced.phase.throughput()) / plain.throughput() * 100.0;
    let keys_done = plain.keys.max(1) as f64;
    let mut plain_writes = if shape.mix == Mix::Point {
        // Point queries write nothing, yet every traced run reports every
        // write-side layer: the write side comes from a probe.
        conns.iter_mut().for_each(|c| c.cursor.switch(Mix::Writes));
        let setup = TraceSetup {
            first_lane: run.next_lane,
            ..setup
        };
        let probe = load::alternate(
            &mut conns,
            pools,
            probe_secs(env),
            env.trace_slices(),
            &setup,
            None,
        )?;
        out.absorb(&probe.plain);
        out.absorb(&probe.traced.phase);
        traced.spans.extend(probe.traced.spans);
        traced.record_bytes += probe.traced.record_bytes;
        traced.record_keys += probe.traced.record_keys;
        traced.phase.replayed.extend(probe.traced.phase.replayed);
        probe.plain.writes_ns
    } else {
        std::mem::take(&mut plain.writes_ns)
    };
    out.gate(load::drain(&mut conns, pools));
    drop(conns);
    let peak_rss_mib = server_peak_mib(server.stop(), &mut out);
    out.gate(gates::served_equals_replica(data, &inputs.replica));

    // Layers on their own.
    let (wal_sync_p50_us, wal_sync_p99_us, wal_syncs_per_write) =
        layers::wal_figures(&env.dir.join("wal"), policy, &pools[0].fresh[0])?;
    let codec_encode_ms = layers::median_ms(3, || {
        std::hint::black_box(inputs.replica.encode());
        Ok(())
    })?;
    let envelope = mpcbf_durability::encode_envelope(
        &vec![0; inputs.replica.shard_count()],
        &inputs.replica.encode(),
    );
    let snapshot_write_ms = layers::snapshot_write_ms(&env.dir.join("snapshots"), &envelope, 3)?;

    tracer.spans.append(&mut traced.spans);
    let self_ns = trace::self_times(&tracer.spans);
    trace::save(&env.trace_path, &tracer.spans, &self_ns)
        .map_err(|e| format!("write {}: {e}", env.trace_path.display()))?;
    let stages = Stages::new(&tracer.spans, &self_ns, &traced.phase.replayed);
    let errors = &mut out.errors;
    let read_p50 = latency_us(&mut plain.reads_ns, 0.5, errors);
    let write_p50 = latency_us(&mut plain_writes, 0.5, errors);
    let mut m = PerLayer {
        ping_rtt_us: ping_us,
        cpu_us_per_op: run.server_cpu_ns as f64 / 1e3 / keys_done,
        ctx_switches_per_op: run.server_ctx_switches as f64 / keys_done,
        peak_rss_mib,
        cold_start_ms,
        words_per_query,
        words_per_update,
        hash_bits_per_query,
        wal_sync_p50_us,
        wal_sync_p99_us,
        wal_syncs_per_write,
        codec_encode_ms,
        snapshot_write_ms,
        throughput_ops_s: plain.throughput(),
        read_p50_us: read_p50,
        read_p99_us: latency_us(&mut plain.reads_ns, 0.99, errors),
        read_p999_us: latency_us(&mut plain.reads_ns, 0.999, errors),
        write_p50_us: write_p50,
        write_p99_us: latency_us(&mut plain_writes, 0.99, errors),
        write_p999_us: latency_us(&mut plain_writes, 0.999, errors),
        read_gap_pct: layers::gap_pct(read_p50, stages.sum_us(false, &SERVED_READ)),
        write_gap_pct: layers::gap_pct(write_p50, stages.sum_us(true, &SERVED_WRITE)),
        overhead_pct,
        ..PerLayer::default()
    };
    stages.fill(&mut m, &traced);
    inputs.bulk.fill(&mut m);
    out.metrics = m.named();
    Ok(out)
}
