//! Filter-server soak: graceful restarts and kill −9 drills, the
//! ack⟹durable contract checked end to end over a real process.
//!
//! ```text
//! cargo build --release -p mpcbf-cli          # provides the `mpcbf` bin
//! cargo run --release -p mpcbf-bench --bin bench_server
//! cargo run --release -p mpcbf-bench --bin bench_server -- --scale 10
//! ```
//!
//! Emits `BENCH_server.json` (consumed by the CI server job) with three
//! sections:
//!
//! * `graceful_restart` — four client threads drive the paper's workload
//!   mix (batched inserts, 80 %-member queries, churn removals) against a
//!   live `mpcbf serve` child per fsync policy; the server is stopped
//!   gracefully, restarted, and every acknowledged surviving key must
//!   still answer present (a clean stop loses nothing even under
//!   relaxed fsync). Served throughput and latency are the repository
//!   benchmark's `client.*` metrics, not this soak's;
//! * `kill_drill` — under `Always` fsync the child is SIGKILLed
//!   mid-stream; after `open_or_recover` (driven by a fresh `serve`),
//!   zero false negatives on acknowledged keys and a clean scrub;
//! * `elastic_kill_drill` — the same against `mpcbf serve --elastic`
//!   with the soak's `--items` divided by 16, killed only once `STATS`
//!   reports a scale-up, so the kill lands while shards reorganise.
//!
//! The child binary is located next to this executable (or via
//! `MPCBF_SERVER_BIN`); per-client key streams are pinned to
//! `DRILL_SEEDS` so runs are reproducible.

use mpcbf_bench::Args;
use mpcbf_server::{Client, ClientError};
use mpcbf_workloads::DRILL_SEEDS;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `STATS` counters are flat JSON numbers: reads `"name":N`.
fn stat(json: &str, name: &str) -> Option<u64> {
    json.split(&format!("\"{name}\":"))
        .nth(1)?
        .split([',', '}'])
        .next()?
        .parse()
        .ok()
}

const CLIENTS: usize = 4;
const BATCH: usize = 100;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpcbf-bench-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn server_bin() -> PathBuf {
    if let Ok(path) = std::env::var("MPCBF_SERVER_BIN") {
        return path.into();
    }
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let candidate = dir.join("mpcbf");
    if candidate.exists() {
        return candidate;
    }
    panic!(
        "`mpcbf` binary not found in {} — build it with `cargo build --release -p mpcbf-cli` \
         or point MPCBF_SERVER_BIN at it",
        dir.display()
    );
}

/// Spawns `mpcbf serve` (`--elastic` when `elastic`) on an OS-assigned
/// port and parses the `listening on ADDR` line from its stdout.
fn spawn_server(dir: &Path, fsync: &str, items: u64, elastic: bool) -> (Child, SocketAddr) {
    let mut child = Command::new(server_bin())
        .args([
            "serve",
            "--dir",
            dir.to_str().expect("utf-8 scratch path"),
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "4",
            "--fsync",
            fsync,
            "--items",
            &items.to_string(),
        ])
        .args(elastic.then_some("--elastic"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn mpcbf serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "server exited before printing its address");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.parse::<SocketAddr>().expect("server address");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    (child, addr)
}

/// Deterministic per-client key stream, disjoint across clients and
/// pinned to the shared drill seeds.
fn client_key(client: usize, i: u64) -> Vec<u8> {
    format!(
        "c{client}-s{:x}-k{i}",
        DRILL_SEEDS[client % DRILL_SEEDS.len()]
    )
    .into_bytes()
}

fn non_member_key(client: usize, i: u64) -> Vec<u8> {
    format!("ghost-{client}-{i}").into_bytes()
}

struct ClientOutcome {
    /// Keys acknowledged as inserted and never removed.
    surviving: Vec<Vec<u8>>,
    /// Member queries that failed to hit while the server was live.
    live_false_negatives: u64,
}

/// One client's slice of the workload mix: batched inserts, queries at
/// the paper's 80 % member ratio, then churn removals of a quarter of
/// the inserted set.
fn drive_mix(addr: SocketAddr, client_id: usize, keys_per_client: u64) -> ClientOutcome {
    let mut client = Client::connect(addr).expect("connect");
    let keys: Vec<Vec<u8>> = (0..keys_per_client)
        .map(|i| client_key(client_id, i))
        .collect();
    let mut live_false_negatives = 0u64;

    for chunk in keys.chunks(BATCH) {
        let outcomes = client.insert_batch(chunk).expect("insert batch");
        assert!(
            outcomes.iter().all(|o| o.is_applied()),
            "inserts within capacity must apply"
        );

        // Table II mix: ~80% of queries hit members, the rest miss.
        let members = (BATCH * 4) / 5;
        let mut queries: Vec<Vec<u8>> = chunk.iter().take(members).cloned().collect();
        queries.extend((0..(BATCH - members)).map(|i| non_member_key(client_id, i as u64)));
        let hits = client.query_batch(&queries).expect("query batch");
        live_false_negatives += hits[..chunk.len().min(members)]
            .iter()
            .filter(|&&h| !h)
            .count() as u64;
    }

    // Churn: remove the first quarter, which must all still be present.
    let removed = keys.len() / 4;
    for chunk in keys[..removed].chunks(BATCH) {
        let outcomes = client.remove_batch(chunk).expect("remove batch");
        let applied = outcomes.iter().filter(|o| o.is_applied()).count();
        assert_eq!(applied, chunk.len(), "removing inserted keys must apply");
    }

    ClientOutcome {
        surviving: keys[removed..].to_vec(),
        live_false_negatives,
    }
}

/// Queries `keys` against a fresh server and counts false negatives.
fn count_false_negatives(addr: SocketAddr, keys: &[Vec<u8>]) -> u64 {
    let mut client = Client::connect(addr).expect("connect for verification");
    let mut misses = 0u64;
    for chunk in keys.chunks(256) {
        let hits = client.query_batch(chunk).expect("verification query");
        misses += hits.iter().filter(|&&h| !h).count() as u64;
    }
    misses
}

fn stats_scrub_clean(addr: SocketAddr) -> bool {
    let mut client = Client::connect(addr).expect("connect for stats");
    client
        .stats_json()
        .expect("stats")
        .contains("\"scrub_clean\":true")
}

struct RestartRow {
    policy: String,
    false_negatives: u64,
    scrub_clean: bool,
}

/// Drive the mix from [`CLIENTS`] threads, stop gracefully, restart,
/// and verify every acknowledged surviving key.
fn soak_policy(fsync: &str, keys_per_client: u64, items: u64) -> RestartRow {
    let dir = scratch_dir(&format!("soak-{fsync}"));
    let (mut child, addr) = spawn_server(&dir, fsync, items, false);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| std::thread::spawn(move || drive_mix(addr, c, keys_per_client)))
        .collect();
    let outcomes: Vec<ClientOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for o in &outcomes {
        assert_eq!(o.live_false_negatives, 0, "live member query missed");
    }

    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("graceful shutdown");
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited uncleanly: {status}");

    // A clean stop must lose nothing, whatever the fsync policy.
    let (mut child, addr) = spawn_server(&dir, fsync, items, false);
    let false_negatives: u64 = outcomes
        .iter()
        .map(|o| count_false_negatives(addr, &o.surviving))
        .sum();
    let scrub_clean = stats_scrub_clean(addr);
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("second shutdown");
    child.wait().expect("second exit");
    let _ = std::fs::remove_dir_all(&dir);

    RestartRow {
        policy: fsync.to_string(),
        false_negatives,
        scrub_clean,
    }
}

struct KillDrillRow {
    items: u64,
    acked_before_kill: u64,
    /// Scale-ups `STATS` reported just before the kill (elastic only).
    scale_events: u64,
    false_negatives: u64,
    scrub_clean: bool,
}

/// SIGKILL the server mid-stream under `Always` fsync; every key acked
/// before the kill must survive recovery. An elastic server is killed
/// only once `STATS` reports a scale-up.
fn kill_drill(max_keys_per_client: u64, items: u64, elastic: bool) -> KillDrillRow {
    let dir = scratch_dir(if elastic { "kill-elastic" } else { "kill" });
    let (mut child, addr) = spawn_server(&dir, "always", items, elastic);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return Vec::new(),
                };
                let mut acked: Vec<Vec<u8>> = Vec::new();
                // Scalar inserts maximise ack granularity so the kill
                // lands between acks, not between batches.
                for i in 0..max_keys_per_client {
                    let key = client_key(c, i);
                    match client.insert(&key) {
                        Ok(outcome) if outcome.is_applied() => acked.push(key),
                        // Refused, or shed past every retry: not acked.
                        Ok(_) | Err(ClientError::Overloaded { .. }) => {}
                        // The kill: connection drops mid-stream.
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();

    let started = Instant::now();
    let mut stats = Client::connect(addr).expect("connect for stats");
    let mut scale_events = 0;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if elastic {
            let json = stats.stats_json().expect("stats before the kill");
            scale_events = stat(&json, "scale_events").expect("elastic STATS");
        }
        if started.elapsed() >= Duration::from_millis(400) && (!elastic || scale_events > 0) {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "the elastic server never scaled up"
        );
    }
    child.kill().expect("SIGKILL server");
    let _ = child.wait();

    let acked: Vec<Vec<Vec<u8>>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let acked_before_kill: u64 = acked.iter().map(|a| a.len() as u64).sum();
    assert!(
        acked_before_kill > 0,
        "the drill needs acknowledged keys before the kill"
    );

    // Recovery: a fresh serve on the same directory replays the WALs.
    let (mut child, addr) = spawn_server(&dir, "always", items, elastic);
    let false_negatives: u64 = acked
        .iter()
        .map(|keys| count_false_negatives(addr, keys))
        .sum();
    let scrub_clean = stats_scrub_clean(addr);
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("post-drill shutdown");
    child.wait().expect("post-drill exit");
    let _ = std::fs::remove_dir_all(&dir);

    KillDrillRow {
        items,
        acked_before_kill,
        scale_events,
        false_negatives,
        scrub_clean,
    }
}

fn to_json(rows: &[RestartRow], drill: &KillDrillRow, elastic: &KillDrillRow) -> String {
    let mut json = String::with_capacity(2 * 1024);
    json.push_str("{\n  \"clients\": 4,\n  \"graceful_restart\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"policy\": \"{}\", \"false_negatives_after_restart\": {}, \"scrub_clean\": {}}}",
            r.policy, r.false_negatives, r.scrub_clean
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"kill_drill\": {{\"policy\": \"always\", \"items\": {}, \
         \"acked_before_kill\": {}, \"false_negatives\": {}, \"scrub_clean\": {}}},\n  \
         \"elastic_kill_drill\": {{\"policy\": \"always\", \"items\": {}, \
         \"acked_before_kill\": {}, \"scale_events\": {}, \"false_negatives\": {}, \
         \"scrub_clean\": {}}}\n}}\n",
        drill.items,
        drill.acked_before_kill,
        drill.false_negatives,
        drill.scrub_clean,
        elastic.items,
        elastic.acked_before_kill,
        elastic.scale_events,
        elastic.false_negatives,
        elastic.scrub_clean
    );
    json
}

fn check_drill(name: &str, drill: &KillDrillRow) {
    println!(
        "  {name}: {} keys acked before kill, {} scale-ups, {} false negatives, scrub {}",
        drill.acked_before_kill,
        drill.scale_events,
        drill.false_negatives,
        if drill.scrub_clean { "clean" } else { "DIRTY" }
    );
    assert_eq!(
        drill.false_negatives, 0,
        "{name}: an acknowledged key vanished across the kill"
    );
    assert!(
        drill.scrub_clean,
        "{name}: recovered image must scrub clean"
    );
}

fn main() {
    let args = Args::parse();
    let keys_per_client = args.scaled(2_000);
    let items = (CLIENTS as u64 * keys_per_client * 2).max(10_000);

    println!(
        "server soak: {CLIENTS} clients × {keys_per_client} keys, mix per policy, then kill −9"
    );
    let rows: Vec<RestartRow> = ["always", "every-64", "interval-2ms"]
        .iter()
        .map(|fsync| {
            let row = soak_policy(fsync, keys_per_client, items);
            println!(
                "  {:<14} restart FNs {}  scrub {}",
                row.policy,
                row.false_negatives,
                if row.scrub_clean { "clean" } else { "DIRTY" }
            );
            assert_eq!(row.false_negatives, 0, "graceful stop lost acked keys");
            assert!(row.scrub_clean, "restart must scrub clean");
            row
        })
        .collect();

    let max_keys = args.scaled(2_000_000);
    let drill_items = (CLIENTS as u64 * max_keys * 2).max(10_000);
    let drill = kill_drill(max_keys, drill_items, false);
    check_drill("kill -9 drill", &drill);
    // A sixteenth of the soak's capacity: the first second of scalar
    // inserts overloads it, so the drill scales before the kill.
    let elastic = kill_drill(max_keys, items / 16, true);
    check_drill("elastic kill -9 drill", &elastic);
    assert!(elastic.scale_events > 0, "the elastic drill must scale up");

    let json = to_json(&rows, &drill, &elastic);
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json");
}
