//! The bulk-ingest workload: `mpcbf build --bulk --synthetic N --out`
//! end to end, bypassing the server and the WAL. Its set-up time is the
//! built image's load (read, decode, verify) until it can answer.
//!
//! The traced run also uses the image in process and starts a server on
//! the same keys: every traced run reports every per-layer metric, the
//! socket and query paths included.

use crate::gates;
use crate::keys::{admitted_fresh, first_admitting, rings, Choice, Keys};
use crate::layers::{self, BulkRun, Stages};
use crate::load::{self, Conn, Cursor, Embedded, Pools, TraceSetup};
use crate::proc::{self, Exit, Serve};
use crate::replay::{Standalone, EMBEDDED_READ, EMBEDDED_WRITE};
use crate::trace::{self, Tracer};
use crate::workload::{EndToEnd, Mix, PerLayer, Shape, Workload};
use crate::{latency_us, Env, Outcome};
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::{Filter, Mpcbf, PlanBuffer};
use mpcbf_durability::FsyncPolicy;
use mpcbf_hash::Murmur3;
use std::path::Path;
use std::time::{Duration, Instant};

/// Image loads per run; `setup_s` is their median.
const LOADS: usize = 3;
/// Builds per untraced run at the least, however short `--seconds` is.
const MIN_BUILDS: usize = 3;
const BUILD_TIMEOUT: Duration = Duration::from_secs(600);

type Plain = Mpcbf<u64, Murmur3>;

fn build_args(n: u64, seed: u64, dest: &str, path: &Path) -> Vec<String> {
    vec![
        "build".into(),
        "--bulk".into(),
        "--synthetic".into(),
        n.to_string(),
        "--threads".into(),
        layers::BUILD_THREADS.to_string(),
        "--seed".into(),
        seed.to_string(),
        dest.into(),
        path.display().to_string(),
    ]
}

/// Reads and decodes an image, checking it holds every key.
fn load_image(path: &Path, n: u64) -> Result<Plain, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let filter = Plain::decode(&bytes).map_err(|e| format!("decode image: {e}"))?;
    if filter.items() != n || filter.overflows() != 0 {
        return Err(format!(
            "image holds {} items with {} refused, expected {n} and 0",
            filter.items(),
            filter.overflows()
        ));
    }
    Ok(filter)
}

fn same_image(filter: &Plain, reference: &[u8], what: &str) -> Result<(), String> {
    if filter.encode() == reference {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn embedded(filter: &mut Plain) -> Vec<Conn<Embedded<'_>>> {
    vec![Conn {
        target: Embedded {
            filter,
            plans: PlanBuffer::new(),
        },
        cursor: Cursor::new(Mix::Batch, 0),
    }]
}

pub fn run(env: &Env, traced: bool) -> Result<Outcome, String> {
    let origin = Instant::now();
    let shape = Workload::BulkIngest.shape(env.quick);
    let n = shape.members;
    layers::config(n, shape.memory_bits, env.seed)?;
    let (seed, seeds_skipped, (built, bulk)) = first_admitting(env.seed, |s| {
        let keys = Keys::new(s, n);
        let config =
            layers::config(n, shape.memory_bits, s).expect("the shape was validated above");
        let built = layers::build_plain(config, |push| keys.for_each_member(push));
        let admitted = built.0.overflows() == 0;
        (built, admitted)
    })?;
    let keys = Keys::new(seed, n);
    let image = env.dir.join("bulk.mpcbf");
    let args = build_args(n, seed, "--out", &image);
    let mut out = Outcome {
        choice: Choice {
            input_seed: seed,
            seeds_skipped,
            fresh_refused: 0,
        },
        ..Outcome::default()
    };
    let reference = built.encode();
    drop(built);

    let started = Instant::now();
    let mut builds = vec![proc::run(&env.bin, &args, BUILD_TIMEOUT)?];
    let first_build_s = started.elapsed().as_secs_f64();
    let mut loads = Vec::with_capacity(LOADS);
    let mut loaded = None;
    for _ in 0..LOADS {
        let t = Instant::now();
        loaded = Some(load_image(&image, n)?);
        loads.push(t.elapsed().as_secs_f64());
    }
    let mut filter = loaded.expect("at least one load ran");
    out.gate(same_image(
        &filter,
        &reference,
        "the CLI-built image differs from the in-process build",
    ));
    if traced {
        let traced = Traced {
            origin,
            keys: &keys,
            build: &builds[0],
            build_s: first_build_s,
            bulk: &bulk,
            serving: serving(env, &shape, seed, &mut out)?,
        };
        traced_run(env, &shape, &traced, &mut filter, &mut out)?;
        // Every fresh key was removed again: the image is back to its build.
        out.gate(same_image(
            &filter,
            &reference,
            "inserting and removing fresh keys did not restore the image",
        ));
        return Ok(out);
    }
    drop(filter);

    // Builds back to back for the run's seconds; the last image is the
    // one checked and probed.
    while builds.len() < MIN_BUILDS || started.elapsed().as_secs_f64() < env.seconds {
        builds.push(proc::run(&env.bin, &args, BUILD_TIMEOUT)?);
    }
    out.attempted += n * builds.len() as u64;
    let last = load_image(&image, n)?;
    out.gate(same_image(
        &last,
        &reference,
        "the last build's image differs from the in-process build",
    ));
    let mut plans = PlanBuffer::new();
    let fpr = gates::fpr(&keys, gates::FPR_PROBES, |batch| {
        last.contains_batch_with(batch, &mut plans).0
    });
    out.gate(gates::fpr_within_bound(fpr, n, &last.shape()));
    let rss: Vec<f64> = builds
        .iter()
        .map(|b| b.peak_rss_kib as f64 / 1024.0)
        .collect();
    out.metrics = EndToEnd {
        setup_s: crate::stats::median(&loads),
        fpr,
        peak_rss_mib: crate::stats::median(&rss),
    }
    .named();
    Ok(out)
}

/// Serving the same keys: the sharded layout `build --bulk --dir`
/// writes, the server's cold start on it, and an idle round trip.
struct Serving {
    replica: ShardedMpcbf<u64, Murmur3>,
    cold_start_ms: f64,
    ping_us: f64,
    peak_rss_mib: f64,
}

fn serving(env: &Env, shape: &Shape, seed: u64, out: &mut Outcome) -> Result<Serving, String> {
    let data = env.dir.join("data");
    let _ = std::fs::remove_dir_all(&data);
    proc::run(
        &env.bin,
        &build_args(shape.members, seed, "--dir", &data),
        BUILD_TIMEOUT,
    )?;
    let started = Instant::now();
    let server = Serve::start(&env.bin, &data, &[])?;
    let mut client = server.connect()?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    let cold_start_ms = started.elapsed().as_secs_f64() * 1e3;
    let ping_us = layers::ping_rtt_us(&mut client, 2_000)?;
    drop(client);
    let peak_rss_mib = crate::serve::server_peak_mib(server.stop(), out);
    let replica = ShardedMpcbf::<u64, Murmur3>::decode(&gates::served_image(&data)?)
        .map_err(|e| format!("decode the sharded image: {e}"))?;
    Ok(Serving {
        replica,
        cold_start_ms,
        ping_us,
        peak_rss_mib,
    })
}

/// What the traced run measured before the image was loaded.
struct Traced<'a> {
    /// When the run started: the trace's time zero.
    origin: Instant,
    keys: &'a Keys,
    /// The build child, for its CPU time and context switches, and its
    /// wall time.
    build: &'a Exit,
    build_s: f64,
    /// The in-process build, for the bulk layer's timings and counters.
    bulk: &'a BulkRun,
    serving: Serving,
}

/// One connection's requests against the image: 256-key query batches
/// and fresh-key batches that fit both the image and the sharded layout
/// the replay applies them to.
fn embedded_pools(shape: &Shape, t: &Traced<'_>, filter: &Plain) -> Result<(Pools, u64), String> {
    let mut scratch = filter.clone();
    let sharded_scratch = ShardedMpcbf::<u64, Murmur3>::decode(&t.serving.replica.encode())
        .map_err(|e| format!("replica copy: {e}"))?;
    let mut plans = PlanBuffer::new();
    let (fresh, refused) = admitted_fresh(t.keys, shape.fresh_ring * shape.batch, |batch| {
        let (plain, _) = scratch.insert_batch_with(batch, &mut plans);
        let sharded = sharded_scratch.insert_batch_bytes(batch);
        (0..batch.len())
            .map(|i| plain[i].is_ok() && sharded[i].is_ok())
            .collect()
    })?;
    let ring = rings(fresh, 1, shape.fresh_ring, shape.batch).remove(0);
    Ok((load::pools(t.keys, shape, ring, 0), refused))
}

fn traced_run(
    env: &Env,
    shape: &Shape,
    t: &Traced<'_>,
    filter: &mut Plain,
    out: &mut Outcome,
) -> Result<(), String> {
    let (n, bulk, build, replica) = (shape.members, t.bulk, t.build, &t.serving.replica);
    let (pool, refused) = embedded_pools(shape, t, filter)?;
    out.choice.fresh_refused = refused;
    let pools = &[pool][..];
    let mut tracer = Tracer::new(t.origin, 0);
    bulk.record(&mut tracer);
    let encode_start = tracer.now();
    let codec_encode_ms = layers::median_ms(3, || {
        std::hint::black_box(filter.encode());
        Ok(())
    })?;
    let encode_end = tracer.now();
    tracer.record("core.codec.encode", None, 0, encode_start, encode_end);
    let snapshot_write_ms =
        layers::snapshot_write_ms(&env.dir.join("snapshots"), &filter.encode(), 3)?;

    let queries: Vec<Vec<u8>> = pools[0]
        .queries
        .iter()
        .flat_map(|q| q.keys.clone())
        .collect();
    let fresh: Vec<Vec<u8>> = pools[0].fresh.concat();
    let (words_per_query, words_per_update, hash_bits_per_query) =
        layers::access_counts(filter, &queries, &fresh)?;
    let standalone = Standalone {
        words: filter.raw_words(),
        shape: filter.shape(),
        seed: t.keys.seed,
        holds_every_member: true,
    };

    let wal_root = env.dir.join("replay");
    let setup = TraceSetup {
        origin: t.origin,
        replica,
        standalone: &standalone,
        wal_root: &wal_root,
        // Nothing here logs; the WAL layer runs under the serve default.
        sync_each: true,
        // The sharded layout only stands in for serving this image; at
        // 16 bits per key it may refuse a member the plain image holds.
        mirrors: false,
        first_lane: 1,
    };
    let mut conns = embedded(filter);
    out.absorb(&load::window(&mut conns, pools, env.warmup(), None)?.phase);
    let run = load::alternate(
        &mut conns,
        pools,
        env.trace_window(),
        env.trace_slices(),
        &setup,
        None,
    )?;
    out.absorb(&run.plain);
    out.absorb(&run.traced.phase);
    let (mut plain, mut traced) = (run.plain, run.traced);
    out.gate(load::drain(&mut conns, pools));
    drop(conns);

    // Nothing here logs; the WAL layer runs under the serve default.
    let (wal_sync_p50_us, wal_sync_p99_us, wal_syncs_per_write) = layers::wal_figures(
        &env.dir.join("wal"),
        FsyncPolicy::Always,
        &pools[0].fresh[0],
    )?;

    tracer.spans.append(&mut traced.spans);
    let self_ns = trace::self_times(&tracer.spans);
    trace::save(&env.trace_path, &tracer.spans, &self_ns)
        .map_err(|e| format!("write {}: {e}", env.trace_path.display()))?;
    let stages = Stages::new(&tracer.spans, &self_ns, &traced.phase.replayed);
    let errors = &mut out.errors;
    let read_p50 = latency_us(&mut plain.reads_ns, 0.5, errors);
    let write_p50 = latency_us(&mut plain.writes_ns, 0.5, errors);
    let mut m = PerLayer {
        ping_rtt_us: t.serving.ping_us,
        // The child here is the builder: its CPU and switches per key.
        cpu_us_per_op: build.cpu_ns as f64 / 1e3 / n as f64,
        ctx_switches_per_op: build.ctx_switches as f64 / n as f64,
        peak_rss_mib: t.serving.peak_rss_mib,
        cold_start_ms: t.serving.cold_start_ms,
        words_per_query,
        words_per_update,
        hash_bits_per_query,
        wal_sync_p50_us,
        wal_sync_p99_us,
        wal_syncs_per_write,
        codec_encode_ms,
        snapshot_write_ms,
        // The workload's rate is the build's; the latencies are those of
        // 256-key calls on the loaded image.
        throughput_ops_s: n as f64 / t.build_s,
        read_p50_us: read_p50,
        read_p99_us: latency_us(&mut plain.reads_ns, 0.99, errors),
        read_p999_us: latency_us(&mut plain.reads_ns, 0.999, errors),
        write_p50_us: write_p50,
        write_p99_us: latency_us(&mut plain.writes_ns, 0.99, errors),
        write_p999_us: latency_us(&mut plain.writes_ns, 0.999, errors),
        read_gap_pct: layers::gap_pct(read_p50, stages.sum_us(false, &EMBEDDED_READ)),
        write_gap_pct: layers::gap_pct(write_p50, stages.sum_us(true, &EMBEDDED_WRITE)),
        overhead_pct: (plain.throughput() - traced.phase.throughput()) / plain.throughput() * 100.0,
        ..PerLayer::default()
    };
    stages.fill(&mut m, &traced);
    bulk.fill(&mut m);
    out.metrics = m.named();
    Ok(())
}
