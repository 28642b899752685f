//! Command implementations for the `mpcbf` CLI.

use crate::opts::{CliError, Kind, Opts};
use mpcbf_analysis::tradeoff;
use mpcbf_concurrent::{KeyFeed, INGEST_CHUNK};
use mpcbf_core::codec::{Measure, Sink};
use mpcbf_core::{Cbf, CodecError, CountingFilter, Filter, Mpcbf, MpcbfConfig};
use mpcbf_hash::Murmur3;
use std::io::Write;

type Keys<'a> = dyn Iterator<Item = Result<String, CliError>> + 'a;

/// A filter loaded from (or destined for) a file.
enum AnyFilter {
    Mpcbf(Mpcbf<u64, Murmur3>),
    Cbf(Cbf<Murmur3>),
}

impl AnyFilter {
    fn contains(&self, key: &str) -> bool {
        match self {
            AnyFilter::Mpcbf(f) => f.contains(key),
            AnyFilter::Cbf(f) => f.contains(key),
        }
    }

    fn insert(&mut self, key: &str) -> Result<(), String> {
        match self {
            AnyFilter::Mpcbf(f) => f.insert(&key).map_err(|e| e.to_string()),
            AnyFilter::Cbf(f) => f.insert(&key).map_err(|e| e.to_string()),
        }
    }

    fn remove(&mut self, key: &str) -> Result<(), String> {
        match self {
            AnyFilter::Mpcbf(f) => f.remove(&key).map_err(|e| e.to_string()),
            AnyFilter::Cbf(f) => f.remove(&key).map_err(|e| e.to_string()),
        }
    }

    fn encode_to(&self, sink: &mut dyn Sink) {
        match self {
            AnyFilter::Mpcbf(f) => {
                f.encode_to(sink);
            }
            AnyFilter::Cbf(f) => {
                f.encode_to(sink);
            }
        }
    }

    /// Loads the image at `path`, streamed from the file into the filter
    /// (one copy of it in memory): MPCBF first, then CBF.
    fn load(path: &str) -> Result<Self, CliError> {
        use std::io::{Seek, SeekFrom};
        let failed = |e: std::io::Error| CliError::Runtime(format!("cannot read {path}: {e}"));
        let file = std::fs::File::open(path).map_err(failed)?;
        let len = file.metadata().map_err(failed)?.len();
        let mut src = std::io::BufReader::with_capacity(256 << 10, file);
        // Keep the error of the decoder the image was *for*: a corrupt
        // MPCBF image fails the CBF fallback with `UnknownKind`, which
        // would mask the precise diagnosis (checksum mismatch, truncation).
        let first = match Mpcbf::<u64, Murmur3>::read_from(&mut src, len).0 {
            Ok(f) => return Ok(AnyFilter::Mpcbf(f)),
            Err(CodecError::Io(kind)) => return Err(failed(kind.into())),
            Err(e) => e,
        };
        src.seek(SeekFrom::Start(0)).map_err(failed)?;
        let e = match Cbf::<Murmur3>::read_from(&mut src, len).0 {
            Ok(f) => return Ok(AnyFilter::Cbf(f)),
            Err(CodecError::Io(kind)) => return Err(failed(kind.into())),
            Err(CodecError::UnknownKind(_)) => first,
            Err(e) => e,
        };
        Err(CliError::Runtime(format!("cannot decode filter: {e}")))
    }

    /// Replaces the file at `path` atomically: the image streams into
    /// `path.tmp`, which is fsynced and renamed over `path`, so a failed
    /// or interrupted store leaves the previous file whole.
    fn store(&self, path: &str) -> Result<(), CliError> {
        let mut measured = Measure::default();
        self.encode_to(&mut measured);
        mpcbf_durability::write_file_atomic(
            std::path::Path::new(path),
            measured.bytes,
            &mpcbf_durability::KillSwitch::new(),
            |sink| self.encode_to(sink),
        )
        .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))
    }
}

/// Streams the build's key source into `feed`, which hashes it into
/// digest chunks: `--synthetic N` walks the deterministic
/// [`mpcbf_workloads::BulkKeys`] stream in chunks (never materialised),
/// otherwise every non-empty line of `keys`.
fn feed_keys(
    opts: &Opts,
    keys: &mut Keys<'_>,
    feed: &mut KeyFeed<'_, Murmur3>,
) -> Result<u64, CliError> {
    let mut total = 0u64;
    if let Some(n) = opts.synthetic {
        mpcbf_workloads::BulkKeys::new(opts.seed, n).for_each_chunk(INGEST_CHUNK, |chunk| {
            for key in chunk {
                feed.push(key);
            }
        });
        total = n;
    } else {
        for key in keys {
            let key = key?;
            if key.is_empty() {
                continue;
            }
            feed.push(key.as_bytes());
            total += 1;
        }
    }
    Ok(total)
}

/// `mpcbf build --bulk`: ingest through the cache-bucketed streaming
/// builder. With `--out`, writes a plain MPCBF image via the codec path;
/// with `--dir`, bulk-builds a sharded filter and materialises a durable
/// snapshot directory directly — no per-key WAL frames — that `serve`
/// and `recover` cold-start from with zero records replayed.
fn bulk_build(opts: &Opts, keys: &mut Keys<'_>) -> Result<(), CliError> {
    use mpcbf_concurrent::{build_parallel, ingest, ShardedBulkBuilder};
    use mpcbf_core::BulkBuilder;

    if opts.kind != Kind::Mpcbf {
        return Err(CliError::Usage("--bulk supports --kind mpcbf only".into()));
    }
    let items = match (opts.items, opts.synthetic) {
        (Some(n), _) => n,
        (None, Some(n)) => n,
        (None, None) => return Err(CliError::Usage("--items N (positive) is required".into())),
    };
    if items == 0 {
        return Err(CliError::Usage("--items N (positive) is required".into()));
    }
    let memory = opts.memory_or_default(items);
    let config = MpcbfConfig::builder()
        .memory_bits(memory)
        .expected_items(items)
        .hashes(opts.hashes)
        .accesses(opts.accesses)
        .seed(opts.seed)
        .build()
        .map_err(|e| CliError::Runtime(format!("infeasible configuration: {e}")))?;
    let threads = opts
        .threads
        .unwrap_or_else(mpcbf_concurrent::default_threads);

    if let Some(dir) = opts.dir.as_deref() {
        use mpcbf_durability::{DurabilityOptions, DurableSharded};
        let mut builder: ShardedBulkBuilder<Murmur3> =
            ShardedBulkBuilder::new(config, opts.shards.unwrap_or(8));
        let total = ingest(&mut builder, threads, |feed| feed_keys(opts, keys, feed))?;
        let filter = builder.finish_parallel(threads);
        let fsync = parse_fsync(opts.fsync.as_deref().unwrap_or("always"))?;
        DurableSharded::bootstrap(&filter, DurabilityOptions::new(dir).fsync(fsync))
            .map_err(|e| CliError::Runtime(format!("bootstrap failed: {e}")))?;
        eprintln!(
            "bulk-built {dir}: {total} keys into {} shards ({} refused), \
             snapshot written, no WAL replay needed",
            filter.shard_count(),
            filter.overflows(),
        );
        return Ok(());
    }

    let out = opts
        .out
        .as_deref()
        .ok_or_else(|| CliError::Usage("--out FILE (or --dir DIR) is required".into()))?;
    let mut builder: BulkBuilder<Murmur3> = BulkBuilder::new(config);
    let total = ingest(&mut builder, threads, |feed| feed_keys(opts, keys, feed))?;
    let filter = build_parallel(builder, threads);
    let inserted = filter.items();
    let refused = filter.overflows();
    AnyFilter::Mpcbf(filter).store(out)?;
    eprintln!(
        "bulk-built {out}: {total} keys streamed, {inserted} inserted, \
         {refused} refused, {memory} bits"
    );
    Ok(())
}

/// `mpcbf build`: construct a filter from a key stream and write it out.
pub fn build(opts: &Opts, keys: &mut Keys<'_>) -> Result<(), CliError> {
    if opts.bulk {
        return bulk_build(opts, keys);
    }
    let out = opts
        .out
        .as_deref()
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let items = opts.require_items()?;
    let memory = opts.memory_or_default(items);

    let mut filter = match opts.kind {
        Kind::Mpcbf => {
            let config = MpcbfConfig::builder()
                .memory_bits(memory)
                .expected_items(items)
                .hashes(opts.hashes)
                .accesses(opts.accesses)
                .seed(opts.seed)
                .build()
                .map_err(|e| CliError::Runtime(format!("infeasible configuration: {e}")))?;
            AnyFilter::Mpcbf(Mpcbf::new(config))
        }
        Kind::Cbf => AnyFilter::Cbf(
            Cbf::try_with_memory(memory, opts.hashes, opts.seed)
                .map_err(|e| CliError::Runtime(format!("infeasible configuration: {e}")))?,
        ),
    };

    let mut inserted = 0u64;
    let mut refused = 0u64;
    for key in keys {
        let key = key?;
        if key.is_empty() {
            continue;
        }
        match filter.insert(&key) {
            Ok(()) => inserted += 1,
            Err(_) => refused += 1,
        }
    }
    filter.store(out)?;
    eprintln!("built {out}: {inserted} keys inserted, {refused} refused, {memory} bits");
    Ok(())
}

/// `mpcbf query`: membership per key.
pub fn query(opts: &Opts, keys: &mut Keys<'_>, out: &mut impl Write) -> Result<(), CliError> {
    let filter = AnyFilter::load(opts.require_filter()?)?;
    for key in keys {
        let key = key?;
        if key.is_empty() {
            continue;
        }
        writeln!(out, "{key}\t{}", filter.contains(&key))
            .map_err(|e| CliError::Runtime(format!("write error: {e}")))?;
    }
    Ok(())
}

/// `mpcbf insert` / `mpcbf remove`: update the filter file in place.
pub fn update(opts: &Opts, keys: &mut Keys<'_>, inserting: bool) -> Result<(), CliError> {
    let path = opts.require_filter()?;
    let mut filter = AnyFilter::load(path)?;
    let mut applied = 0u64;
    let mut failed = 0u64;
    for key in keys {
        let key = key?;
        if key.is_empty() {
            continue;
        }
        let result = if inserting {
            filter.insert(&key)
        } else {
            filter.remove(&key)
        };
        match result {
            Ok(()) => applied += 1,
            Err(msg) => {
                failed += 1;
                eprintln!("{key}: {msg}");
            }
        }
    }
    filter.store(path)?;
    let verb = if inserting { "inserted" } else { "removed" };
    eprintln!("{verb} {applied} keys ({failed} failed)");
    Ok(())
}

/// `mpcbf stats`: structural and occupancy information.
pub fn stats(opts: &Opts, out: &mut impl Write) -> Result<(), CliError> {
    let filter = AnyFilter::load(opts.require_filter()?)?;
    let mut p = |line: String| {
        writeln!(out, "{line}").map_err(|e| CliError::Runtime(format!("write error: {e}")))
    };
    match &filter {
        AnyFilter::Mpcbf(f) => {
            let s = f.shape();
            p(format!("kind          MPCBF-{}", s.g))?;
            p(format!("words         {} x {} bits", s.l, s.w))?;
            p(format!("hashes (k)    {}", s.k))?;
            p(format!("n_max / b1    {} / {}", s.n_max, s.b1))?;
            p(format!("memory bits   {}", f.memory_bits()))?;
            p(format!("items         {}", f.items()))?;
            p(format!("overflows     {}", f.overflows()))?;
            let loads = f.word_loads();
            let max = loads.iter().max().copied().unwrap_or(0);
            let nonempty = loads.iter().filter(|&&c| c > 0).count();
            let total: u64 = loads.iter().map(|&c| u64::from(c)).sum();
            p(format!(
                "word loads    total {total}, max {max}/{}, {nonempty}/{} words occupied",
                s.w - s.b1,
                loads.len()
            ))?;
        }
        AnyFilter::Cbf(f) => {
            p("kind          CBF".to_string())?;
            p(format!("counters      {} x 4 bits", f.len_counters()))?;
            p(format!("hashes (k)    {}", f.num_hashes()))?;
            p(format!("memory bits   {}", f.memory_bits()))?;
            p(format!("items         {}", f.items()))?;
            p(format!("saturations   {}", f.saturations()))?;
        }
    }
    Ok(())
}

/// The filter shape of a durable directory's fresh pool: `--items`
/// (100 000 by default) and the shape flags.
fn durable_config(opts: &Opts) -> Result<MpcbfConfig, CliError> {
    let items = opts.items.unwrap_or(100_000);
    MpcbfConfig::builder()
        .memory_bits(opts.memory_or_default(items))
        .expected_items(items)
        .hashes(opts.hashes)
        .accesses(opts.accesses)
        .seed(opts.seed)
        .build()
        .map_err(|e| CliError::Runtime(format!("infeasible configuration: {e}")))
}

/// `mpcbf recover`: open-or-recover a durable directory, the way `mpcbf
/// serve` opens it (`--shards`, `--elastic`), and print the recovery
/// report (snapshot used, records replayed, torn tails repaired, verify
/// verdict) and the pool's shard count, summed WAL seq and overflows. A
/// fresh directory is initialised from the shape flags. With `--input`,
/// the keys are then inserted through the write-ahead log and a snapshot
/// is taken, so the directory is the filter's durable home rather than a
/// one-shot image file.
pub fn recover(
    opts: &Opts,
    keys: Option<&mut Keys<'_>>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
    use mpcbf_core::CapacityPolicy;
    use mpcbf_durability::DurabilityOptions;

    let durability = DurabilityOptions::new(opts.require_dir()?);
    let config = durable_config(opts)?;
    let shards = opts.shards.unwrap_or(8);
    if opts.elastic {
        recover_pool(
            durability,
            || {
                ElasticShardedMpcbf::<Murmur3>::manual(config, shards, CapacityPolicy::default())
                    .expect("default capacity policy is valid")
            },
            keys,
            out,
        )
    } else {
        recover_pool(
            durability,
            || ShardedMpcbf::<u64, Murmur3>::new(config, shards),
            keys,
            out,
        )
    }
}

/// [`recover`] for either pool.
fn recover_pool<P: mpcbf_durability::ShardPool>(
    durability: mpcbf_durability::DurabilityOptions,
    fallback: impl FnOnce() -> P,
    keys: Option<&mut Keys<'_>>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    use mpcbf_durability::{DurableError, DurableSharded};

    let (durable, report) = DurableSharded::open_or_recover(durability, fallback)
        .map_err(|e| CliError::Runtime(format!("recovery failed: {e}")))?;

    writeln!(out, "{report}").map_err(|e| CliError::Runtime(format!("write error: {e}")))?;
    writeln!(
        out,
        "shards {}  seq {}  overflows {}",
        durable.inner().shard_count(),
        durable.shard_seqs().iter().sum::<u64>(),
        durable.inner().overflows()
    )
    .map_err(|e| CliError::Runtime(format!("write error: {e}")))?;

    if let Some(keys) = keys {
        let mut inserted = 0u64;
        let mut refused = 0u64;
        for key in keys {
            let key = key?;
            if key.is_empty() {
                continue;
            }
            match durable.insert_bytes(key.as_bytes()) {
                Ok(()) => inserted += 1,
                Err(DurableError::Filter(_)) => refused += 1,
                Err(e) => return Err(CliError::Runtime(format!("durable insert failed: {e}"))),
            }
        }
        durable
            .snapshot()
            .map_err(|e| CliError::Runtime(format!("snapshot failed: {e}")))?;
        eprintln!("inserted {inserted} keys durably ({refused} refused), snapshot taken");
    }

    if !report.scrub_clean {
        return Err(CliError::Runtime(
            "recovered pool failed the structural verify".into(),
        ));
    }
    Ok(())
}

/// Parses `--fsync always|every-N|interval-Nms|interval-Nus`.
fn parse_fsync(raw: &str) -> Result<mpcbf_durability::FsyncPolicy, CliError> {
    use mpcbf_durability::FsyncPolicy;
    use std::time::Duration;
    if raw == "always" {
        return Ok(FsyncPolicy::Always);
    }
    if let Some(n) = raw.strip_prefix("every-") {
        let n: u32 = n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::Usage(format!("bad --fsync batch size in `{raw}`")))?;
        return Ok(FsyncPolicy::EveryN(n));
    }
    if let Some(rest) = raw.strip_prefix("interval-") {
        let (digits, unit): (&str, fn(u64) -> Duration) = match rest.strip_suffix("ms") {
            Some(d) => (d, Duration::from_millis),
            None => match rest.strip_suffix("us") {
                Some(d) => (d, Duration::from_micros),
                None => return Err(CliError::Usage(format!("bad --fsync interval `{raw}`"))),
            },
        };
        let n: u64 = digits
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::Usage(format!("bad --fsync interval `{raw}`")))?;
        return Ok(FsyncPolicy::Interval(unit(n)));
    }
    Err(CliError::Usage(format!(
        "unknown --fsync policy `{raw}` (always|every-N|interval-Nms|interval-Nus)"
    )))
}

/// `mpcbf serve`: recover (or create) a durable sharded MPCBF and serve
/// it over TCP until a client sends the SHUTDOWN opcode.
///
/// Prints the recovery report, then `listening on ADDR` — harnesses
/// (the kill −9 soak bench among them) parse that line to learn the
/// OS-assigned port when `--addr` ends in `:0`.
pub fn serve(opts: &Opts, out: &mut impl Write) -> Result<(), CliError> {
    use mpcbf_durability::DurabilityOptions;
    use mpcbf_server::{Server, ServerConfig};

    let dir = opts.require_dir()?;
    let config = durable_config(opts)?;
    let fsync = parse_fsync(opts.fsync.as_deref().unwrap_or("always"))?;
    let mut durability = DurabilityOptions::new(dir).fsync(fsync);
    durability.snapshot_every = opts.snapshot_every;

    let server = Server::start(ServerConfig {
        addr: opts.addr.clone().unwrap_or_else(|| "127.0.0.1:7700".into()),
        metrics_addr: opts.metrics_addr.clone(),
        durability,
        filter: config,
        shards: opts.shards.unwrap_or(8),
        elastic: opts.elastic,
    })
    .map_err(|e| CliError::Runtime(format!("server start failed: {e}")))?;

    let report = server.recovery_report();
    writeln!(out, "{report}").map_err(|e| CliError::Runtime(format!("write error: {e}")))?;
    writeln!(out, "listening on {}", server.local_addr())
        .map_err(|e| CliError::Runtime(format!("write error: {e}")))?;
    if let Some(m) = server.metrics_addr() {
        writeln!(out, "metrics on http://{m}/metrics")
            .map_err(|e| CliError::Runtime(format!("write error: {e}")))?;
    }
    out.flush()
        .map_err(|e| CliError::Runtime(format!("write error: {e}")))?;

    server
        .wait()
        .map_err(|e| CliError::Runtime(format!("server stopped uncleanly: {e}")))
}

/// `mpcbf replay`: run a flow-monitor measurement over a real trace file
/// (one `src,dst` record per line; dotted IPv4 or raw u32 fields), the
/// §IV.D experiment on the user's own data.
///
/// With `--telemetry`, every operation is metered into a
/// [`mpcbf_telemetry::Telemetry`] registry (per-kind accesses, hash bits
/// and latency, plus the filter's health gauges) and the Prometheus text
/// page is appended to the report.
pub fn replay(opts: &Opts, out: &mut impl Write) -> Result<(), CliError> {
    use mpcbf_core::metrics::{OpCost, OpKind, OpSink};
    use mpcbf_hash::Key as _;
    use mpcbf_telemetry::{prometheus_text, Telemetry};
    use mpcbf_workloads::flowtrace::{parse_trace_records, FlowTrace};
    use std::time::Instant;

    let path = opts
        .input
        .as_deref()
        .ok_or_else(|| CliError::Usage("--input TRACE is required".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
    let records =
        parse_trace_records(&text).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    if records.is_empty() {
        return Err(CliError::Runtime(format!("{path}: no records")));
    }

    // Track either --items flows or half the unique flows, whichever is
    // smaller; one churn period of 20%.
    let unique = {
        let set: std::collections::HashSet<_> = records.iter().collect();
        set.len()
    };
    let test_set = opts
        .items
        .map(|n| n as usize)
        .unwrap_or(unique / 2)
        .clamp(1, unique);
    let trace = FlowTrace::from_records(records, test_set, test_set / 5, 1, opts.seed);
    let memory = opts.memory_or_default(test_set as u64);

    let config = MpcbfConfig::builder()
        .memory_bits(memory)
        .expected_items(test_set as u64)
        .hashes(opts.hashes)
        .accesses(opts.accesses)
        .seed(opts.seed)
        .build()
        .map_err(|e| CliError::Runtime(format!("infeasible configuration: {e}")))?;
    let mut filter: Mpcbf<u64, Murmur3> = Mpcbf::new(config);

    let telemetry = opts.telemetry.then(Telemetry::new);
    // Metered update path: same placement as the scalar call, but the
    // per-op cost and wall time land in the registry.
    let metered_update = |filter: &mut Mpcbf<u64, Murmur3>,
                          t: &Telemetry,
                          kind: OpKind,
                          flow: &(u32, u32)|
     -> bool {
        let kb = flow.key_bytes();
        let t0 = Instant::now();
        let result = match kind {
            OpKind::Insert => filter.insert_bytes_cost(kb.as_slice()),
            _ => filter.remove_bytes_cost(kb.as_slice()),
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(cost) => {
                t.record_batch(kind, 1, cost, nanos);
                true
            }
            Err(_) => {
                t.record_batch(kind, 1, OpCost::zero(), nanos);
                false
            }
        }
    };

    let mut live: std::collections::HashSet<(u32, u32)> = Default::default();
    let mut refused = 0u64;
    for flow in &trace.test_set {
        let ok = match &telemetry {
            Some(t) => metered_update(&mut filter, t, OpKind::Insert, flow),
            None => filter.insert(flow).is_ok(),
        };
        if ok {
            live.insert(*flow);
        } else {
            refused += 1;
        }
    }
    for period in &trace.churn.periods {
        for old in &period.deletes {
            let ok = match &telemetry {
                Some(t) => metered_update(&mut filter, t, OpKind::Remove, old),
                None => filter.remove(old).is_ok(),
            };
            if ok {
                live.remove(old);
            }
        }
        for new in &period.inserts {
            let ok = match &telemetry {
                Some(t) => metered_update(&mut filter, t, OpKind::Insert, new),
                None => filter.insert(new).is_ok(),
            };
            if ok {
                live.insert(*new);
            }
        }
    }

    let start = std::time::Instant::now();
    let mut hits = 0u64;
    let mut false_positives = 0u64;
    let mut negatives = 0u64;
    for record in &trace.records {
        let claimed = match &telemetry {
            Some(t) => {
                let kb = record.key_bytes();
                let t0 = Instant::now();
                let (hit, cost) = filter.contains_bytes_cost(kb.as_slice());
                t.record_batch(OpKind::Query, 1, cost, t0.elapsed().as_nanos() as u64);
                hit
            }
            None => filter.contains(record),
        };
        hits += u64::from(claimed);
        if !live.contains(record) {
            negatives += 1;
            false_positives += u64::from(claimed);
        }
    }
    let elapsed = start.elapsed();

    let mut p = |line: String| {
        writeln!(out, "{line}").map_err(|e| CliError::Runtime(format!("write error: {e}")))
    };
    p(format!("trace records     {}", trace.records.len()))?;
    p(format!("unique flows      {unique}"))?;
    p(format!("tracked flows     {test_set} ({refused} refused)"))?;
    p(format!(
        "filter memory     {memory} bits (MPCBF-{})",
        opts.accesses
    ))?;
    p(format!("tracked hits      {hits}"))?;
    p(format!(
        "false positives   {false_positives} / {negatives} untracked records ({:.4}%)",
        if negatives == 0 {
            0.0
        } else {
            100.0 * false_positives as f64 / negatives as f64
        }
    ))?;
    p(format!(
        "lookup rate       {:.1} M records/s",
        trace.records.len() as f64 / elapsed.as_secs_f64() / 1e6
    ))?;
    if let Some(t) = &telemetry {
        t.record_health(&filter.health());
        p(String::new())?;
        p(prometheus_text(&t.snapshot()).trim_end().to_string())?;
    }
    Ok(())
}

/// `mpcbf size`: the inverse-sizing design card.
pub fn size(opts: &Opts, out: &mut impl Write) -> Result<(), CliError> {
    let items = opts.require_items()?;
    let fpr = opts
        .fpr
        .ok_or_else(|| CliError::Usage("--fpr F is required".into()))?;
    let mut p = |line: String| {
        writeln!(out, "{line}").map_err(|e| CliError::Runtime(format!("write error: {e}")))
    };
    p(format!("target: {items} items at FPR <= {fpr}"))?;
    match tradeoff::cbf_memory_for_fpr(items, opts.hashes, fpr) {
        Some(m) => p(format!(
            "CBF (k={}):      {m} bits ({:.1} bits/item, {} accesses/query)",
            opts.hashes,
            m as f64 / items as f64,
            opts.hashes
        ))?,
        None => p(format!("CBF (k={}):      unreachable", opts.hashes))?,
    }
    match tradeoff::mpcbf_memory_for_fpr(items, 64, opts.hashes, opts.accesses, fpr) {
        Some(m) => p(format!(
            "MPCBF-{} (k={}):  {m} bits ({:.1} bits/item, {} accesses/query)",
            opts.accesses,
            opts.hashes,
            m as f64 / items as f64,
            opts.accesses
        ))?,
        None => p(format!("MPCBF-{}:        unreachable", opts.accesses))?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &[&str]) -> impl Iterator<Item = Result<String, CliError>> {
        v.iter()
            .map(|s| Ok(s.to_string()))
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn opts(v: &[&str]) -> Opts {
        Opts::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mpcbf-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn build_query_roundtrip() {
        let path = tmp("roundtrip.mpcbf");
        let o = opts(&["--out", &path, "--items", "100"]);
        build(&o, &mut keys(&["alpha", "beta", "gamma"])).unwrap();

        let o = opts(&["--filter", &path]);
        let mut out = Vec::new();
        query(&o, &mut keys(&["alpha", "delta"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("alpha\ttrue"));
        assert!(text.contains("delta\t")); // value may rarely be a FP
    }

    #[test]
    fn build_cbf_kind_and_stats() {
        let path = tmp("cbf.bin");
        let o = opts(&["--out", &path, "--items", "50", "--kind", "cbf"]);
        build(&o, &mut keys(&["x", "y"])).unwrap();
        let o = opts(&["--filter", &path]);
        let mut out = Vec::new();
        stats(&o, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("kind          CBF"));
        assert!(text.contains("items         2"));
    }

    #[test]
    fn insert_and_remove_update_the_file() {
        let path = tmp("update.mpcbf");
        build(
            &opts(&["--out", &path, "--items", "100"]),
            &mut keys(&["keep"]),
        )
        .unwrap();
        update(&opts(&["--filter", &path]), &mut keys(&["added"]), true).unwrap();
        let mut out = Vec::new();
        query(&opts(&["--filter", &path]), &mut keys(&["added"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("added\ttrue"));

        update(&opts(&["--filter", &path]), &mut keys(&["added"]), false).unwrap();
        let mut out = Vec::new();
        query(&opts(&["--filter", &path]), &mut keys(&["added"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("added\tfalse"));
    }

    #[test]
    fn mpcbf_stats_report_shape() {
        let path = tmp("stats.mpcbf");
        build(
            &opts(&["--out", &path, "--items", "1000", "--accesses", "2"]),
            &mut keys(&["a", "b", "c"]),
        )
        .unwrap();
        let mut out = Vec::new();
        stats(&opts(&["--filter", &path]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("MPCBF-2"), "{text}");
        assert!(text.contains("items         3"));
    }

    #[test]
    fn size_prints_both_structures() {
        let mut out = Vec::new();
        size(&opts(&["--items", "100000", "--fpr", "0.001"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("CBF (k=3)"));
        assert!(text.contains("MPCBF-1"));
    }

    #[test]
    fn infeasible_cbf_budget_is_a_runtime_error_not_a_panic() {
        // 2 bits cannot hold a single 4-bit counter: the fallible
        // constructor must surface this as a runtime error.
        let path = tmp("tiny.bin");
        let o = opts(&[
            "--out",
            &path,
            "--items",
            "5",
            "--kind",
            "cbf",
            "--memory-bits",
            "2",
        ]);
        let err = build(&o, &mut keys(&["x"])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(ref m) if m.contains("infeasible")));
    }

    #[test]
    fn corrupt_image_reports_the_precise_codec_error() {
        // A flipped payload byte in an MPCBF image must surface the MPCBF
        // decoder's checksum diagnosis, not the CBF fallback's
        // "unknown filter kind" rejection of the MPCBF kind byte.
        let path = tmp("corrupt.mpcbf");
        let o = opts(&["--out", &path, "--items", "100"]);
        build(&o, &mut keys(&["alpha", "beta"])).unwrap();
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x40;
        std::fs::write(&path, &image).unwrap();
        let err = match AnyFilter::load(&path) {
            Err(e) => e,
            Ok(_) => panic!("corrupt image decoded"),
        };
        assert!(
            matches!(err, CliError::Runtime(ref m) if m.contains("checksum mismatch")),
            "got: {err:?}"
        );
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        assert!(matches!(
            build(&opts(&["--items", "5"]), &mut keys(&[])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            size(&opts(&["--items", "5"]), &mut Vec::new()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn replay_runs_on_a_tiny_trace() {
        let path = tmp("trace.txt");
        let mut text = String::from("# tiny trace\n");
        for i in 0..200u32 {
            // 50 unique flows, repeated 4x each.
            text.push_str(&format!("10.0.0.{},192.168.1.{}\n", i % 50, i % 50));
        }
        std::fs::write(&path, text).unwrap();
        let mut out = Vec::new();
        replay(&opts(&["--input", &path, "--items", "20"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("trace records     200"), "{text}");
        assert!(text.contains("unique flows      50"));
        assert!(text.contains("tracked flows     20"));
    }

    #[test]
    fn replay_telemetry_prints_a_metrics_page() {
        let path = tmp("trace_telemetry.txt");
        let mut text = String::from("# tiny trace\n");
        for i in 0..200u32 {
            text.push_str(&format!("10.0.0.{},192.168.1.{}\n", i % 50, i % 50));
        }
        std::fs::write(&path, text).unwrap();
        let mut out = Vec::new();
        replay(
            &opts(&["--input", &path, "--items", "20", "--telemetry"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        // The human report is intact and the Prometheus page follows it.
        assert!(text.contains("trace records     200"), "{text}");
        assert!(
            text.contains("mpcbf_ops_total{kind=\"query\"} 200"),
            "{text}"
        );
        assert!(text.contains("mpcbf_ops_total{kind=\"insert\"}"), "{text}");
        assert!(text.contains("mpcbf_fill_ratio"), "{text}");
        // MPCBF-1 (the default) reads exactly one word per query.
        assert!(
            text.contains("mpcbf_word_accesses_total{kind=\"query\"} 200"),
            "{text}"
        );
    }

    #[test]
    fn replay_rejects_garbage_traces() {
        let path = tmp("bad_trace.txt");
        std::fs::write(&path, "not,an,ip address here\n").unwrap();
        assert!(matches!(
            replay(&opts(&["--input", &path]), &mut Vec::new()),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn corrupt_file_is_a_runtime_error() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"not a filter").unwrap();
        assert!(matches!(
            stats(&opts(&["--filter", &path]), &mut Vec::new()),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn failed_store_keeps_the_previous_file_and_leaves_no_tmp() {
        // `path.tmp` is a symlink to /dev/full: the store's writes fail
        // with ENOSPC, as on a full disk, after the temp file opened.
        let path = tmp("store-fails.mpcbf");
        build(
            &opts(&["--out", &path, "--items", "100"]),
            &mut keys(&["kept"]),
        )
        .unwrap();
        let before = std::fs::read(&path).unwrap();
        let temp = format!("{path}.tmp");
        let _ = std::fs::remove_file(&temp);
        std::os::unix::fs::symlink("/dev/full", &temp).unwrap();
        let err = update(&opts(&["--filter", &path]), &mut keys(&["added"]), true).unwrap_err();
        assert!(
            matches!(err, CliError::Runtime(ref m) if m.contains("cannot write")),
            "{err:?}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "previous file changed"
        );
        assert!(
            std::fs::symlink_metadata(&temp).is_err(),
            "a failed store left {temp} behind"
        );
        // The next store goes through and replaces the file whole.
        update(&opts(&["--filter", &path]), &mut keys(&["added"]), true).unwrap();
        let mut out = Vec::new();
        query(&opts(&["--filter", &path]), &mut keys(&["added"]), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("added\ttrue"));
        assert!(std::fs::symlink_metadata(&temp).is_err());
    }

    #[test]
    fn bulk_build_writes_the_same_snapshot_as_sequential() {
        // Same keys, same config: the bulk path must serialise a
        // byte-identical filter image to the scalar build path.
        let seq = tmp("seq.mpcbf");
        let blk = tmp("bulk.mpcbf");
        let stream = ["alpha", "beta", "gamma", "delta", "alpha"];
        build(
            &opts(&["--out", &seq, "--items", "100"]),
            &mut keys(&stream),
        )
        .unwrap();
        build(
            &opts(&["--bulk", "--out", &blk, "--items", "100"]),
            &mut keys(&stream),
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&seq).unwrap(),
            std::fs::read(&blk).unwrap(),
            "bulk and sequential snapshots differ"
        );

        let o = opts(&["--filter", &blk]);
        let mut out = Vec::new();
        query(&o, &mut keys(&["alpha", "zeta"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("alpha\ttrue"), "{text}");
    }

    #[test]
    fn bulk_build_from_lines_is_the_same_image_at_any_thread_count() {
        // Several ingest chunks of lines, blank ones skipped, into a build
        // large enough to pipeline at two threads: the image must be
        // byte-identical to the inline one.
        let lines: Vec<String> = (0..3 * INGEST_CHUNK + 5)
            .map(|i| match i % 1000 {
                0 => String::new(),
                _ => format!("line-{i}"),
            })
            .collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let images: Vec<Vec<u8>> = ["1", "2"]
            .iter()
            .map(|threads| {
                let out = tmp(&format!("bulk-lines-t{threads}.mpcbf"));
                let args = ["--bulk", "--out", &out, "--items", "600000"];
                build(
                    &opts(&[&args[..], &["--threads", threads]].concat()),
                    &mut keys(&lines),
                )
                .unwrap();
                std::fs::read(&out).unwrap()
            })
            .collect();
        assert!(images[0] == images[1], "--threads 1 and 2 images differ");
        let Ok(AnyFilter::Mpcbf(f)) = AnyFilter::load(&tmp("bulk-lines-t1.mpcbf")) else {
            panic!("the image does not load as an MPCBF");
        };
        assert_eq!(f.items() + f.overflows(), lines.len() as u64 - 25);
    }

    #[test]
    fn bulk_build_dir_cold_starts_without_replay() {
        use mpcbf_concurrent::ShardedMpcbf;
        use mpcbf_durability::{DurabilityOptions, DurableSharded};

        let dir = tmp("bulk-dir");
        let _ = std::fs::remove_dir_all(&dir);
        let o = opts(&[
            "--bulk",
            "--synthetic",
            "2000",
            "--items",
            "2000",
            "--dir",
            &dir,
            "--shards",
            "4",
        ]);
        build(&o, &mut keys(&[])).unwrap();

        let config = MpcbfConfig::builder()
            .memory_bits(o.memory_or_default(2000))
            .expected_items(2000)
            .hashes(o.hashes)
            .accesses(o.accesses)
            .seed(o.seed)
            .build()
            .unwrap();
        let (recovered, report) =
            DurableSharded::open_or_recover(DurabilityOptions::new(&dir), || {
                ShardedMpcbf::<u64, Murmur3>::new(config, 4)
            })
            .unwrap();
        assert_eq!(report.records_replayed, 0, "bootstrap dir replayed WAL");
        assert_eq!(report.snapshot_seq, Some(0));
        assert!(recovered.inner().total_load() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_opens_a_bulk_built_directory_without_replay() {
        let dir = tmp("bulk-recover");
        let _ = std::fs::remove_dir_all(&dir);
        let o = opts(&[
            "--bulk",
            "--synthetic",
            "2000",
            "--items",
            "2000",
            "--dir",
            &dir,
        ]);
        build(&o, &mut keys(&[])).unwrap();

        let mut out = Vec::new();
        recover(&opts(&["--dir", &dir]), None, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("snapshot: seq 0"), "{text}");
        assert!(text.contains(" 0 replayed"), "{text}");
        assert!(text.contains("shards 8  seq 0"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_elastic_reopens_an_elastic_directory() {
        let dir = tmp("elastic-recover");
        let _ = std::fs::remove_dir_all(&dir);
        let elastic = opts(&["--dir", &dir, "--elastic", "--items", "1000"]);
        let written: Vec<String> = (0..300).map(|i| format!("key-{i}")).collect();
        let views: Vec<&str> = written.iter().map(String::as_str).collect();
        recover(&elastic, Some(&mut keys(&views)), &mut Vec::new()).unwrap();

        let mut out = Vec::new();
        recover(&elastic, None, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(" 0 replayed"), "{text}");
        assert!(text.contains("shards 8  seq 300"), "{text}");

        // The fixed mode refuses the directory and names its mode.
        match recover(&opts(&["--dir", &dir]), None, &mut Vec::new()) {
            Err(CliError::Runtime(msg)) => assert!(msg.contains("elastic mode"), "{msg}"),
            other => panic!("fixed open of an elastic directory: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_a_single_filter_directory_and_leaves_it_alone() {
        use mpcbf_durability::{KillSwitch, SnapshotStore};

        let dir = tmp("single-filter-recover");
        let _ = std::fs::remove_dir_all(&dir);
        let config = durable_config(&opts(&["--items", "1000"])).unwrap();
        let image = Mpcbf::<u64, Murmur3>::new(config).encode();
        SnapshotStore::new(dir.as_ref(), "snap", KillSwitch::new())
            .unwrap()
            .write(0, &image)
            .unwrap();
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        for flags in [&["--dir", &dir][..], &["--dir", &dir, "--elastic"]] {
            match recover(&opts(flags), None, &mut Vec::new()) {
                Err(CliError::Runtime(msg)) => {
                    assert!(msg.contains("removed single-filter wrapper"), "{msg}")
                }
                other => panic!("{flags:?}: {other:?}"),
            }
        }
        assert_eq!(listing(), before, "a refused recover changed the directory");
        assert_eq!(
            std::fs::read(format!("{dir}/snap-{:020}.snap", 0)).unwrap(),
            image
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
