//! The filter server: connection threads over one shared
//! [`DurableSharded`].
//!
//! # Architecture
//!
//! ```text
//!            accept loop (one thread)
//!                 │ one thread per connection
//!                 ▼
//!   connection threads ── queries ──► the pool, read in place (no lock)
//!        │
//!        │ mutations
//!        ▼
//!   Arc<DurableSharded<dyn ShardPool>>: per shard, one lock over its WAL;
//!        the writer holds it to log → apply → settle, then replies
//! ```
//!
//! The pool is the fixed-size [`ShardedMpcbf`] (atomic words, no lock)
//! or, with `--elastic`, the autoscaling [`ElasticShardedMpcbf`]; the
//! server picks one at start-up and otherwise sees only
//! `DurableSharded<dyn ShardPool>`. Queries never take a shard's log
//! lock. Mutations are WAL-first: the connection thread takes the key's
//! shard lock, appends the record (the configured [`FsyncPolicy`]
//! decides whether that append reaches the platter before the ack),
//! applies it to the filter, and only then replies. A batch logs one
//! frame per touched shard, one shard lock at a time, and its per-key
//! outcomes come back in request order.
//!
//! A checkpoint takes every shard lock in index order, so writers wait
//! while the image is written (readers do not); then each log is
//! truncated. In elastic mode one drain thread moves migration batches
//! under the migrating shard's lock while that shard sheds mutations.
//! Graceful shutdown runs a final checkpoint, joins the connections, and
//! fsyncs each WAL, so a clean stop loses nothing under any fsync policy.
//!
//! [`FsyncPolicy`]: mpcbf_durability::FsyncPolicy

use crate::metrics;
use crate::protocol::{
    decode_request, key_code, write_frame, Request, MAX_FRAME, STATUS_BAD_REQUEST, STATUS_OK,
    STATUS_REFUSED, STATUS_RETRY_LATER, STATUS_SERVER_ERROR,
};
use mpcbf_concurrent::{ElasticShardedMpcbf, ShardedMpcbf};
use mpcbf_core::metrics::{OpCost, OpKind, OpSink};
use mpcbf_core::policy::CapacityPolicy;
use mpcbf_core::MpcbfConfig;
use mpcbf_durability::{
    DurabilityOptions, DurableError, DurableSharded, RecoveryReport, ShardPool,
};
use mpcbf_hash::Murmur3;
use mpcbf_telemetry::Telemetry;
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long blocked reads, idle accept polls and the idle drain thread
/// wait between checks of the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Everything needed to start a [`Server`].
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address for the filter protocol (use port 0 to let the OS
    /// pick; read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Optional bind address for the `/metrics` HTTP endpoint.
    pub metrics_addr: Option<String>,
    /// Durability directory, fsync policy, and the auto-checkpoint
    /// threshold (`snapshot_every` logged keys).
    pub durability: DurabilityOptions,
    /// Filter geometry used when the directory holds no usable state.
    pub filter: MpcbfConfig,
    /// Shard count for a fresh filter (recovery keeps the on-disk one).
    pub shards: usize,
    /// Serve an autoscaling [`ElasticShardedMpcbf`] instead of the
    /// fixed-size pool: shards grow under sustained overload (logged to
    /// the WAL first), compact in the background, and shed mutations
    /// with `RETRY_LATER` while they reorganise. A durability directory
    /// keeps its mode for life — recovery cannot read the other mode's
    /// snapshot images.
    pub elastic: bool,
}

/// Errors surfaced while starting or stopping the server.
#[derive(Debug)]
pub enum ServerError {
    /// Socket setup or teardown failed.
    Io(io::Error),
    /// Recovery or WAL initialisation failed.
    Durable(DurableError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o: {e}"),
            ServerError::Durable(e) => write!(f, "server durability: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<DurableError> for ServerError {
    fn from(e: DurableError) -> Self {
        ServerError::Durable(e)
    }
}

/// Monotone counters surfaced on `/metrics` and `STATS`.
#[derive(Default)]
struct ServerCounters {
    connections: AtomicU64,
    frames: AtomicU64,
    bad_requests: AtomicU64,
    /// Mutations refused with `RETRY_LATER` while a shard reorganised.
    shed: AtomicU64,
}

/// State shared by the acceptor, connection threads, and drain thread.
pub(crate) struct Shared {
    durable: Arc<DurableSharded<dyn ShardPool>>,
    /// The same filter, typed, in elastic mode: its capacity counters
    /// feed `STATS` and `/metrics`.
    elastic: Option<Arc<DurableSharded<ElasticShardedMpcbf<Murmur3>>>>,
    telemetry: Arc<Telemetry>,
    counters: ServerCounters,
    recovery: RecoveryReport,
    fsync_name: String,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Wakes [`Server::wait`] when shutdown is requested.
    stop_signal: (Mutex<bool>, Condvar),
}

impl Shared {
    /// True once shutdown has been requested (polled by the metrics
    /// thread).
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Whether a mutation of `keys` is shed (and counted): some key's
    /// shard is migrating. Keys are routed only while a shard migrates.
    fn shed(&self, keys: &[&[u8]]) -> bool {
        let durable = &self.durable;
        let pool = durable.inner();
        let shed = (0..pool.shard_count()).any(|s| durable.is_migrating(s))
            && keys
                .iter()
                .any(|key| durable.is_migrating(pool.home_shard(key)));
        if shed {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
        }
        shed
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor if it is parked in accept().
        let _ = TcpStream::connect(self.local_addr);
        let (lock, cv) = &self.stop_signal;
        *lock.lock().expect("stop signal poisoned") = true;
        cv.notify_all();
    }

    /// The pool's mode as `STATS` reports it.
    fn mode(&self) -> &'static str {
        if self.elastic.is_some() {
            "elastic"
        } else {
            "fixed"
        }
    }

    fn stats_json(&self) -> String {
        let snap = self.telemetry.snapshot();
        let ops: u64 = snap.kinds().iter().map(|(_, k)| k.ops).sum();
        let r = &self.recovery;
        let pool = self.durable.inner();
        let elastic = match &self.elastic {
            None => String::new(),
            Some(durable) => {
                let st = durable.inner().stats();
                format!(
                    concat!(
                        ",\"elastic\":{{\"generations\":{},\"scale_events\":{},",
                        "\"compactions\":{},\"migrated_keys\":{},\"fpr_envelope\":{},",
                        "\"max_shard_fpr\":{},\"compacting_shards\":{},\"max_pressure\":{}}}"
                    ),
                    st.generations,
                    st.scale_events,
                    st.compactions,
                    st.migrated_keys,
                    st.fpr_envelope,
                    st.max_shard_fpr,
                    st.compacting_shards,
                    st.max_pressure,
                )
            }
        };
        format!(
            concat!(
                "{{\"shards\":{},\"mode\":\"{}\",\"fsync\":\"{}\",\"ops\":{},",
                "\"overflows\":{},\"connections\":{},\"frames\":{},\"bad_requests\":{},",
                "\"checkpoints\":{},\"shed\":{},",
                "\"recovery\":{{\"records_replayed\":{},\"ops_replayed\":{},",
                "\"torn_tails\":{},\"segments_dropped\":{},\"scrub_clean\":{}}}{}}}"
            ),
            pool.shard_count(),
            self.mode(),
            self.fsync_name,
            ops,
            pool.overflows(),
            self.counters.connections.load(Ordering::Relaxed),
            self.counters.frames.load(Ordering::Relaxed),
            self.counters.bad_requests.load(Ordering::Relaxed),
            self.durable.snapshots_published(),
            self.counters.shed.load(Ordering::Relaxed),
            r.records_replayed,
            r.ops_replayed,
            r.torn_tails.len(),
            r.segments_dropped,
            r.scrub_clean,
            elastic,
        )
    }

    /// The Prometheus page: the telemetry snapshot plus server-side
    /// counters injected under the same namespace.
    pub(crate) fn metrics_page(&self) -> String {
        let mut snap = self.telemetry.snapshot();
        let c = &self.counters;
        let pool = self.durable.inner();
        snap.counters.insert(
            "server_connections".into(),
            c.connections.load(Ordering::Relaxed),
        );
        snap.counters
            .insert("server_frames".into(), c.frames.load(Ordering::Relaxed));
        snap.counters.insert(
            "server_bad_requests".into(),
            c.bad_requests.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "server_checkpoints".into(),
            self.durable.snapshots_published(),
        );
        snap.counters
            .insert("server_shed".into(), c.shed.load(Ordering::Relaxed));
        snap.gauges
            .insert("server_shards".into(), pool.shard_count() as f64);
        snap.gauges
            .insert("filter_overflows".into(), pool.overflows() as f64);
        if let Some(durable) = &self.elastic {
            let st = durable.inner().stats();
            snap.counters
                .insert("elastic_scale_events".into(), st.scale_events);
            snap.counters
                .insert("elastic_compactions".into(), st.compactions);
            snap.counters
                .insert("elastic_migrated_keys".into(), st.migrated_keys);
            snap.gauges
                .insert("elastic_generations".into(), st.generations as f64);
            snap.gauges
                .insert("elastic_fpr_envelope".into(), st.fpr_envelope);
            snap.gauges
                .insert("elastic_max_shard_fpr".into(), st.max_shard_fpr);
            snap.gauges.insert(
                "elastic_compacting_shards".into(),
                st.compacting_shards as f64,
            );
            snap.gauges
                .insert("elastic_max_pressure".into(), st.max_pressure);
        }
        mpcbf_telemetry::prometheus_text(&snap)
    }
}

/// A running filter server. Stop it with [`Server::shutdown`] (or send
/// the `SHUTDOWN` opcode and [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    /// Elastic mode's migration drain thread.
    drain: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Recovers (or creates) the durable filter from
    /// `config.durability.dir`, binds the sockets, and spawns the
    /// acceptor and metrics threads (and, elastic, the drain thread).
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        let ServerConfig {
            addr,
            metrics_addr,
            durability,
            filter,
            shards,
            elastic,
        } = config;
        let fsync_name = durability.fsync.name();
        // The one branch on the mode: everything below sees the trait.
        let (durable, elastic, recovery): (Arc<DurableSharded<dyn ShardPool>>, _, _) = if elastic {
            let (durable, recovery) = DurableSharded::open_or_recover(durability, || {
                ElasticShardedMpcbf::<Murmur3>::manual(filter, shards, CapacityPolicy::default())
                    .expect("default capacity policy is valid")
            })?;
            let durable = Arc::new(durable);
            (durable.clone(), Some(durable), recovery)
        } else {
            let (durable, recovery) = DurableSharded::open_or_recover(durability, || {
                ShardedMpcbf::<u64, Murmur3>::new(filter, shards)
            })?;
            (Arc::new(durable), None, recovery)
        };
        let telemetry = Arc::new(Telemetry::new());
        recovery.record_to(&telemetry);

        let listener = TcpListener::bind(&addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let shared = Arc::new(Shared {
            durable,
            elastic,
            telemetry,
            counters: ServerCounters::default(),
            recovery,
            fsync_name,
            local_addr,
            shutdown: AtomicBool::new(false),
            stop_signal: (Mutex::new(false), Condvar::new()),
        });

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("mpcbf-accept".into())
                .spawn(move || accept_loop(shared, listener, conns))?
        };
        let metrics_thread = match metrics_listener {
            Some(l) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("mpcbf-metrics".into())
                        .spawn(move || metrics::serve(shared, l))?,
                )
            }
            None => None,
        };
        // A shard recovery hands back mid-migration drains from here on.
        let drain = match shared.elastic {
            Some(_) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("mpcbf-drain".into())
                        .spawn(move || {
                            shared
                                .durable
                                .drain_migrations(POLL_INTERVAL, || shared.shutting_down())
                        })?,
                )
            }
            None => None,
        };

        Ok(Server {
            shared,
            local_addr,
            metrics_addr,
            acceptor: Some(acceptor),
            metrics_thread,
            drain,
            conns,
        })
    }

    /// The bound filter-protocol address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// What recovery found at startup.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.shared.recovery
    }

    /// Asks the server to stop without blocking (pair with
    /// [`Server::wait`]).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (by [`Self::request_shutdown`]
    /// or a client's `SHUTDOWN` frame), then tears down: final
    /// checkpoint, join every thread, fsync every WAL.
    pub fn wait(mut self) -> Result<(), ServerError> {
        self.teardown();
        Ok(())
    }

    /// Requests shutdown and waits for the full teardown.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.shared.request_shutdown();
        self.teardown();
        Ok(())
    }

    fn teardown(&mut self) {
        {
            let (lock, cv) = &self.shared.stop_signal;
            let mut stopped = lock.lock().expect("stop signal poisoned");
            while !*stopped {
                stopped = cv.wait(stopped).expect("stop signal poisoned");
            }
        }
        // Bound the restart's replay; in-flight writes wait for it.
        let _ = self.shared.durable.snapshot();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let conns: Vec<_> = self
            .conns
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
            .collect();
        for h in conns.into_iter().chain(self.drain.take()) {
            let _ = h.join();
        }
        // Every writer is gone: flush what a relaxed policy acknowledged.
        // An in-flight migration is in the checkpoint's image and resumes
        // after recovery.
        let _ = self.shared.durable.sync();
        if let Some(h) = self.metrics_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        let sh = shared.clone();
        match std::thread::Builder::new()
            .name("mpcbf-conn".into())
            .spawn(move || handle_conn(sh, stream))
        {
            Ok(h) => conns.lock().expect("connection registry poisoned").push(h),
            Err(_) => continue,
        }
    }
}

/// How a blocking read over the shutdown-polling socket ended.
enum Fill {
    Complete,
    /// EOF at a frame boundary.
    CleanEof,
    /// EOF inside a frame — the peer vanished mid-request.
    TornEof,
    Shutdown,
}

fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(Fill::Shutdown);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Fill::CleanEof
                } else {
                    Fill::TornEof
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Complete)
}

/// Reads one frame, polling the shutdown flag between partial reads.
/// `None` means close the connection (clean EOF, torn frame, hostile
/// length prefix, shutdown, or I/O error) — in every case without
/// panicking.
fn read_frame_polling(stream: &mut TcpStream, shutdown: &AtomicBool) -> Option<Vec<u8>> {
    let mut prefix = [0u8; 4];
    match read_full(stream, &mut prefix, shutdown) {
        Ok(Fill::Complete) => {}
        _ => return None,
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        // The stream is desynchronised beyond repair; drop it.
        return None;
    }
    let mut payload = vec![0u8; len as usize];
    match read_full(stream, &mut payload, shutdown) {
        Ok(Fill::Complete) => Some(payload),
        _ => None,
    }
}

/// The suggested client backoff while a shard reorganises. The drain
/// thread moves the shed shard's migration batch after batch, so
/// single-digit-millisecond retries converge quickly without hammering
/// the dispatch path.
const RETRY_AFTER_MS: u32 = 5;

fn shed_response() -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(STATUS_RETRY_LATER);
    out.extend_from_slice(&RETRY_AFTER_MS.to_le_bytes());
    out
}

fn error_response(status: u8, reason: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + reason.len());
    out.push(status);
    out.extend_from_slice(reason.as_bytes());
    out
}

fn handle_conn(shared: Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    loop {
        let Some(payload) = read_frame_polling(&mut stream, &shared.shutdown) else {
            return;
        };
        shared.counters.frames.fetch_add(1, Ordering::Relaxed);
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(reason) => {
                shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                // Framing is intact, so the connection survives a bad
                // payload.
                if write_frame(&mut stream, &error_response(STATUS_BAD_REQUEST, reason)).is_err() {
                    return;
                }
                continue;
            }
        };
        let shutdown_after = matches!(req, Request::Shutdown);
        let response = dispatch(&shared, req);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
        if shutdown_after {
            shared.request_shutdown();
            return;
        }
    }
}

fn dispatch(shared: &Shared, req: Request) -> Vec<u8> {
    match req {
        Request::Ping => vec![STATUS_OK],
        Request::Query(key) => {
            let start = Instant::now();
            let present = shared.durable.contains_bytes(&key);
            shared.telemetry.record_batch(
                OpKind::Query,
                1,
                OpCost::zero(),
                start.elapsed().as_nanos() as u64,
            );
            vec![STATUS_OK, u8::from(present)]
        }
        Request::QueryBatch(keys) => {
            let start = Instant::now();
            let views: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let hits = shared.durable.inner().contains_batch_bytes(&views);
            shared.telemetry.record_batch(
                OpKind::Query,
                hits.len() as u64,
                OpCost::zero(),
                start.elapsed().as_nanos() as u64,
            );
            let mut out = Vec::with_capacity(5 + hits.len());
            out.push(STATUS_OK);
            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
            out.extend(hits.into_iter().map(u8::from));
            out
        }
        Request::Insert(key) => mutate_scalar(shared, key, true),
        Request::Remove(key) => mutate_scalar(shared, key, false),
        Request::InsertBatch(keys) => mutate_batch(shared, keys, true),
        Request::RemoveBatch(keys) => mutate_batch(shared, keys, false),
        Request::Stats => {
            let mut out = vec![STATUS_OK];
            out.extend_from_slice(shared.stats_json().as_bytes());
            out
        }
        Request::Checkpoint => status_of(shared.durable.snapshot()),
        Request::Flush => status_of(shared.durable.sync()),
        Request::Shutdown => vec![STATUS_OK],
    }
}

fn status_of(result: Result<(), DurableError>) -> Vec<u8> {
    match result {
        Ok(()) => vec![STATUS_OK],
        Err(e) => error_response(STATUS_SERVER_ERROR, &e.to_string()),
    }
}

fn mutate_scalar(shared: &Shared, key: Vec<u8>, insert: bool) -> Vec<u8> {
    let start = Instant::now();
    if shared.shed(&[&key]) {
        return shed_response();
    }
    let durable = &shared.durable;
    let (kind, result) = if insert {
        (OpKind::Insert, durable.insert_bytes(&key))
    } else {
        (OpKind::Remove, durable.remove_bytes(&key))
    };
    let response = match result {
        Ok(()) => vec![STATUS_OK],
        Err(DurableError::Filter(e)) => vec![STATUS_REFUSED, key_code(&Err(e))],
        Err(e) => error_response(STATUS_SERVER_ERROR, &e.to_string()),
    };
    shared
        .telemetry
        .record_batch(kind, 1, OpCost::zero(), start.elapsed().as_nanos() as u64);
    response
}

fn mutate_batch(shared: &Shared, keys: Vec<Vec<u8>>, insert: bool) -> Vec<u8> {
    let start = Instant::now();
    let views: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    // A batch is one all-or-nothing frame per shard: if any touched
    // shard is reorganising, shed the whole batch (partial acks would
    // force the client to split the batch to retry).
    if shared.shed(&views) {
        return shed_response();
    }
    // The keys move into the shards' WAL frames uncopied.
    let durable = &shared.durable;
    let (kind, results) = if insert {
        (OpKind::Insert, durable.insert_batch_bytes(keys))
    } else {
        (OpKind::Remove, durable.remove_batch_bytes(keys))
    };
    let results = match results {
        Ok(results) => results,
        // Frames before the failing shard's may have applied, but no key
        // is acknowledged.
        Err(e) => return error_response(STATUS_SERVER_ERROR, &e.to_string()),
    };
    let n = results.len();
    shared.telemetry.record_batch(
        kind,
        n as u64,
        OpCost::zero(),
        start.elapsed().as_nanos() as u64,
    );
    let mut out = Vec::with_capacity(5 + n);
    out.push(STATUS_OK);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend(results.iter().map(key_code));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use mpcbf_durability::FsyncPolicy;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "mpcbf-server-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn test_config(dir: &std::path::Path) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: Some("127.0.0.1:0".into()),
            durability: DurabilityOptions::new(dir).fsync(FsyncPolicy::EveryN(64)),
            filter: MpcbfConfig::builder()
                .memory_bits(400_000)
                .expected_items(4_000)
                .hashes(3)
                .seed(77)
                .build()
                .expect("test config"),
            shards: 4,
            elastic: false,
        }
    }

    #[test]
    fn end_to_end_roundtrip_checkpoint_and_recovery() {
        let dir = scratch_dir("e2e");
        let addr;
        {
            let server = Server::start(test_config(&dir)).expect("start");
            addr = server.local_addr();
            let mut client = Client::connect(addr).expect("connect");
            client.ping().expect("ping");

            assert!(client.insert(b"alice").expect("insert").is_applied());
            assert!(client.insert(b"bob").expect("insert").is_applied());
            assert!(client.query(b"alice").expect("query"));
            assert!(!client.query(b"carol-not-here").expect("query"));

            let keys: Vec<Vec<u8>> = (0..200u32)
                .map(|i| format!("batch-key-{i}").into_bytes())
                .collect();
            let outcomes = client.insert_batch(&keys).expect("insert batch");
            assert_eq!(outcomes.len(), keys.len());
            assert!(outcomes.iter().all(|o| o.is_applied()));
            let hits = client.query_batch(&keys).expect("query batch");
            assert!(hits.iter().all(|&h| h));

            // Remove half the batch; the rest must survive.
            let gone: Vec<Vec<u8>> = keys[..100].to_vec();
            let outcomes = client.remove_batch(&gone).expect("remove batch");
            assert!(outcomes.iter().all(|o| o.is_applied()));

            assert!(!client
                .remove(b"never-inserted-key")
                .expect("remove")
                .is_applied());

            let stats = client.stats_json().expect("stats");
            assert!(stats.contains("\"shards\":4"), "{stats}");

            client.flush().expect("flush");
            client.checkpoint().expect("checkpoint");

            // Metrics endpoint serves the injected counters.
            let page =
                metrics::http_get_text(server.metrics_addr().expect("metrics addr"), "/metrics")
                    .expect("metrics page");
            assert!(page.contains("mpcbf_server_frames_total"), "{page}");
            assert!(page.contains("mpcbf_server_shards"), "{page}");
            // The cold start's stages, timed, for the operator.
            for gauge in [
                "recovery_snapshot_bytes",
                "recovery_snapshot_load_seconds",
                "recovery_replay_seconds",
                "recovery_verify_seconds",
            ] {
                assert!(page.contains(gauge), "{gauge} missing: {page}");
            }

            client.shutdown_server().expect("shutdown frame");
            server.wait().expect("teardown");
        }

        // Everything acknowledged must survive the restart.
        let server = Server::start(test_config(&dir)).expect("restart");
        assert!(server.recovery_report().scrub_clean);
        assert!(
            server.recovery_report().snapshot_bytes > 0,
            "loaded the checkpoint"
        );
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        assert!(client.query(b"alice").expect("query"));
        assert!(client.query(b"bob").expect("query"));
        for i in 100..200u32 {
            let key = format!("batch-key-{i}").into_bytes();
            assert!(client.query(&key).expect("query"), "lost batch-key-{i}");
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn elastic_server_scales_sheds_and_recovers() {
        let dir = scratch_dir("elastic");
        let config = || ServerConfig {
            elastic: true,
            // Small geometry so a few thousand keys are a 10x overload.
            filter: MpcbfConfig::builder()
                .memory_bits(131_072)
                .expected_items(2_000)
                .hashes(3)
                .seed(91)
                .build()
                .expect("elastic test config"),
            shards: 2,
            ..test_config(&dir)
        };
        let total = 20_000u64;
        {
            let server = Server::start(config()).expect("start");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            // The client's RETRY_LATER backoff must absorb every shed:
            // all inserts eventually ack even while shards reorganise.
            for i in 0..total {
                assert!(
                    client
                        .insert(&i.to_le_bytes())
                        .expect("insert")
                        .is_applied(),
                    "insert {i} not applied"
                );
            }
            let stats = client.stats_json().expect("stats");
            assert!(stats.contains("\"mode\":\"elastic\""), "{stats}");
            assert!(stats.contains("\"scale_events\":"), "{stats}");
            let scale_events: u64 = stats
                .split("\"scale_events\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("scale_events in stats");
            assert!(scale_events > 0, "10x overload must scale: {stats}");
            let shed: u64 = stats
                .split("\"shed\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("shed counter in stats");
            assert!(
                shed > 0,
                "reorganising shards must shed at least one mutation: {stats}"
            );
            for i in 0..total {
                assert!(client.query(&i.to_le_bytes()).expect("query"), "FN {i}");
            }
            client.shutdown_server().expect("shutdown frame");
            server.wait().expect("teardown");
        }

        // Every acked key survives the restart with the scaled stacks.
        let server = Server::start(config()).expect("restart");
        assert!(server.recovery_report().scrub_clean);
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        let stats = client.stats_json().expect("stats");
        assert!(stats.contains("\"mode\":\"elastic\""), "{stats}");
        for i in 0..total {
            assert!(
                client.query(&i.to_le_bytes()).expect("query"),
                "lost key {i} across restart"
            );
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_clients_see_consistent_acks() {
        let dir = scratch_dir("concurrent");
        let server = Server::start(test_config(&dir)).expect("start");
        let addr = server.local_addr();
        let writing = Arc::new(AtomicBool::new(true));
        // A deadlock fails the test instead of hanging it.
        let connect = move || {
            let config = ClientConfig {
                read_timeout: Some(Duration::from_secs(10)),
                max_retries: 0,
                ..ClientConfig::default()
            };
            Client::connect_with(addr, config).expect("connect")
        };
        // Every checkpoint and flush must answer OK, within the timeout,
        // while writers hold and wait for shard locks.
        let checkpointer = |flush: bool| {
            let writing = writing.clone();
            std::thread::spawn(move || {
                let mut client = connect();
                let mut rounds = 0u32;
                while writing.load(Ordering::Relaxed) || rounds == 0 {
                    client.checkpoint().expect("CHECKPOINT answers OK");
                    if flush {
                        client.flush().expect("FLUSH answers OK");
                    }
                    rounds += 1;
                }
                rounds
            })
        };
        let loops = checkpointer(true);
        let second = checkpointer(false);
        let clients: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = connect();
                    let keys: Vec<Vec<u8>> = (0..250u32)
                        .map(|i| format!("client-{t}-key-{i}").into_bytes())
                        .collect();
                    for chunk in keys.chunks(50) {
                        let outcomes = client.insert_batch(chunk).expect("insert");
                        assert!(outcomes.iter().all(|o| o.is_applied()));
                    }
                    let hits = client.query_batch(&keys).expect("query");
                    assert!(hits.iter().all(|&h| h));
                    keys
                })
            })
            .collect();
        let acked: Vec<Vec<u8>> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        writing.store(false, Ordering::Relaxed);
        assert!(loops.join().expect("checkpoint and flush loop") > 0);
        assert!(second.join().expect("checkpoint loop") > 0);
        server.shutdown().expect("shutdown");

        // Every acked key survives the graceful stop.
        let server = Server::start(test_config(&dir)).expect("restart");
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        let hits = client.query_batch(&acked).expect("query after restart");
        assert!(hits.iter().all(|&h| h), "an acked key was lost");
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
