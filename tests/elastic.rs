//! Elastic capacity, end to end: across a 10x key ramp the stacked
//! analytic FPR envelope must hold empirically at every sampled point —
//! including *inside* an in-flight compaction — with zero false
//! negatives on the live set; the sliding-window variant must never go
//! false-negative in-window across a full rotation cycle; the durable
//! elastic pool must recover a crash mid-scale-up with every acked key
//! present; an elastic server must shed with RETRY_LATER while a
//! shard reorganises, with the client's backoff absorbing every shed;
//! and a durability directory must refuse to open in the other mode.

use mpcbf::concurrent::ElasticShardedMpcbf;
use mpcbf::core::{CapacityPolicy, ElasticMpcbf, Filter, MpcbfConfig, SlidingWindowMpcbf};
use mpcbf::durability::{DurabilityOptions, DurableError, DurableSharded, FsyncPolicy};
use mpcbf::hash::Murmur3;
use mpcbf::server::{Client, Server, ServerConfig, ServerError};
use mpcbf::workloads::RampSpec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static DIR_ID: AtomicU64 = AtomicU64::new(0);
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mpcbf-elastic-{tag}-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The envelope is an expectation over hash draws; an empirical rate
/// over `n` probes fluctuates around it. Four binomial standard
/// deviations bounds the noise far beyond any plausible flake rate
/// while still catching a broken bound (which overshoots structurally,
/// not statistically).
fn assert_within_envelope(empirical: f64, envelope: f64, probes: usize, when: &str) {
    let sigma = (envelope * (1.0 - envelope) / probes as f64).sqrt();
    assert!(
        empirical <= envelope + 4.0 * sigma + 1e-9,
        "{when}: empirical FPR {empirical:.6} exceeds envelope {envelope:.6} (+4σ = {:.6})",
        envelope + 4.0 * sigma
    );
}

fn ramp_config(base_items: u64, seed: u64) -> MpcbfConfig {
    MpcbfConfig::builder()
        .memory_bits(16 * base_items)
        .expected_items(base_items)
        .hashes(3)
        .seed(seed)
        .build()
        .expect("ramp config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property: across a 10x ramp the stacked
    /// analytic bound is never exceeded empirically — at phase
    /// boundaries and at batch-granular points inside every
    /// compaction — and the live set never goes false-negative.
    #[test]
    fn stacked_envelope_holds_across_tenfold_ramp(
        base_items in 1_500u64..4_000,
        key_seed in any::<u64>(),
        filter_seed in 1u64..1_000,
    ) {
        let spec = RampSpec::tenfold(base_items, key_seed);
        let probes = spec.negative_probes(10_000);
        let mut filter: ElasticMpcbf<Murmur3> =
            ElasticMpcbf::manual(ramp_config(base_items, filter_seed), CapacityPolicy::default())
                .expect("manual elastic");
        let mut live: Vec<Vec<u8>> = Vec::new();
        let empirical = |f: &ElasticMpcbf<Murmur3>| {
            let hits = probes.iter().filter(|p| f.contains_bytes(p)).count();
            hits as f64 / probes.len() as f64
        };
        let mut mid_samples = 0u32;
        for (i, phase) in spec.phases().into_iter().enumerate() {
            for key in &phase.keys {
                filter.insert_bytes(key).expect("elastic insert");
            }
            live.extend(phase.keys);
            while let Some(plan) = filter.scale_plan() {
                filter.apply_scale(&plan).expect("apply scale");
                prop_assert!(filter.begin_compaction(), "scale-up must start a migration");
                let step = (live.len() / 8).max(64);
                while filter.compacting() {
                    filter.step_compaction(step);
                    // The envelope must hold with keys split between the
                    // source and target generations, not just at rest.
                    assert_within_envelope(
                        empirical(&filter),
                        filter.fpr_envelope(),
                        probes.len(),
                        &format!("phase {i}, mid-compaction"),
                    );
                    mid_samples += 1;
                }
            }
            prop_assert_eq!(filter.items(), phase.target_items);
            assert_within_envelope(
                empirical(&filter),
                filter.fpr_envelope(),
                probes.len(),
                &format!("phase {i}, at rest"),
            );
            for (k, key) in live.iter().enumerate() {
                prop_assert!(filter.contains_bytes(key), "false negative on live key {k}");
            }
        }
        prop_assert!(filter.scale_events() > 0, "a 10x ramp must scale");
        prop_assert!(mid_samples > 0, "the ramp must sample inside a migration");
        filter.verify().expect("elastic invariants");
    }
}

#[test]
fn sliding_window_never_goes_false_negative_in_window() {
    let slots = 4usize;
    let per_epoch = 1_500u64;
    let mut window: SlidingWindowMpcbf<Murmur3> =
        SlidingWindowMpcbf::new(ramp_config(per_epoch, 0x77), slots);
    let mut epochs: Vec<Vec<Vec<u8>>> = Vec::new();
    // A full rotation cycle and then a second lap, so every slot has
    // been retired and reused at least once.
    for epoch in 0..(2 * slots as u64 + 1) {
        let keys: Vec<Vec<u8>> = (0..per_epoch)
            .map(|i| format!("window-{epoch}-{i}").into_bytes())
            .collect();
        for key in &keys {
            window.insert_bytes(key).expect("window insert");
        }
        epochs.push(keys);
        // Everything inserted in the last `slots` epochs is in-window
        // and must answer present — the zero-false-negative contract.
        for keys in epochs.iter().rev().take(slots) {
            for key in keys {
                assert!(window.contains_bytes(key), "in-window false negative");
            }
        }
        window.rotate();
    }
    assert_eq!(window.rotations(), 2 * slots as u64 + 1);
    window.verify().expect("window invariants");
}

#[test]
fn durable_elastic_recovers_a_crash_mid_scale_up() {
    let dir = scratch_dir("crash");
    let config = ramp_config(1_000, 0xE1A5);
    let opts = || DurabilityOptions::new(&dir).fsync(FsyncPolicy::Always);
    let mut acked: Vec<Vec<u8>> = Vec::new();
    {
        let pool = ElasticShardedMpcbf::manual(config, 2, CapacityPolicy::default())
            .expect("manual elastic pool");
        let durable: DurableSharded<ElasticShardedMpcbf<Murmur3>> =
            DurableSharded::create(pool, opts()).expect("create durable elastic");
        // Push far past capacity; stop the moment a migration is in
        // flight so the "crash" lands mid-scale-up.
        for i in 0u64..40_000 {
            let key = format!("crash-{i}").into_bytes();
            durable.insert_bytes(&key).expect("durable insert");
            acked.push(key);
            let stats = durable.inner().stats();
            if stats.scale_events > 0 && stats.compacting_shards > 0 && i > 5_000 {
                break;
            }
        }
        let stats = durable.inner().stats();
        assert!(stats.scale_events > 0, "workload must trigger a scale-up");
        assert!(stats.compacting_shards > 0, "crash must land mid-migration");
        // Under FsyncPolicy::Always every acked record is already on
        // disk; forgetting the handle is a same-process stand-in for
        // SIGKILL (no flush, no snapshot, no graceful close).
        std::mem::forget(durable);
    }

    let (recovered, report) =
        DurableSharded::<ElasticShardedMpcbf<Murmur3>>::open_or_recover(opts(), || {
            ElasticShardedMpcbf::manual(config, 2, CapacityPolicy::default())
                .expect("fallback pool")
        })
        .expect("recover");
    assert!(report.scrub_clean, "recovered pool must verify clean");
    let stats = recovered.inner().stats();
    assert!(
        stats.scale_events > 0,
        "the logged scale-up must survive recovery"
    );
    for (i, key) in acked.iter().enumerate() {
        assert!(
            recovered.contains_bytes(key),
            "acked key {i} lost across the crash"
        );
    }
    recovered.inner().verify().expect("recovered invariants");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn elastic_server_sheds_and_the_client_backoff_absorbs_it() {
    let dir = scratch_dir("server");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: None,
        durability: DurabilityOptions::new(&dir).fsync(FsyncPolicy::EveryN(256)),
        // Tiny geometry: a few thousand keys are a 10x overload, so
        // scale-ups (and their shed windows) are guaranteed.
        filter: MpcbfConfig::builder()
            .memory_bits(65_536)
            .expected_items(1_000)
            .hashes(3)
            .seed(5)
            .build()
            .expect("server config"),
        shards: 2,
        elastic: true,
    })
    .expect("start elastic server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let total = 10_000u64;
    for i in 0..total {
        assert!(
            client
                .insert(&i.to_le_bytes())
                .expect("insert")
                .is_applied(),
            "insert {i} must eventually apply through the backoff"
        );
    }
    let stats = client.stats_json().expect("stats");
    let counter = |name: &str| -> u64 {
        stats
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from stats: {stats}"))
    };
    assert!(counter("scale_events") > 0, "overload must scale: {stats}");
    assert!(
        counter("shed") > 0,
        "a reorganising shard must shed at least one mutation with RETRY_LATER: {stats}"
    );
    for i in 0..total {
        assert!(client.query(&i.to_le_bytes()).expect("query"), "FN {i}");
    }
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file in `dir`, by name, with its bytes.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// A durability directory keeps its mode for life. Opening it in the
/// other mode — `mpcbf serve` on an elastic directory, or `mpcbf serve
/// --elastic` on a fixed one — must fail with a typed error naming the stored mode and
/// leave every file as it was, instead of counting the intact snapshot
/// as corrupt, rebuilding from the WAL tail alone, and purging the image
/// at the next checkpoint. The right mode then still serves every acked
/// key.
#[test]
fn a_directory_opened_in_the_other_mode_is_refused_and_left_untouched() {
    let filter = MpcbfConfig::builder()
        .memory_bits(400_000)
        .expected_items(4_000)
        .hashes(3)
        .seed(0x30DE)
        .build()
        .expect("mode config");
    for (elastic, stored) in [(true, "elastic"), (false, "fixed")] {
        let dir = scratch_dir(stored);
        let config = |elastic: bool| ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: None,
            durability: DurabilityOptions::new(&dir),
            filter,
            shards: 2,
            elastic,
        };
        let keys: Vec<Vec<u8>> = (0..1_000u32)
            .map(|i| format!("{stored}-{i}").into_bytes())
            .collect();
        let server = Server::start(config(elastic)).expect("start");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for key in &keys {
            assert!(client.insert(key).expect("insert").is_applied());
        }
        server.shutdown().expect("shutdown");
        let before = dir_contents(&dir);
        assert!(
            before
                .iter()
                .any(|(name, _)| name.starts_with("snap-") && name.ends_with(".snap")),
            "the final checkpoint must have published a snapshot"
        );

        match Server::start(config(!elastic)) {
            Err(ServerError::Durable(DurableError::ModeMismatch { stored: found, .. })) => {
                assert_eq!(found, stored)
            }
            Err(e) => panic!("{stored} directory: wrong error {e}"),
            Ok(server) => {
                let report = server.recovery_report().clone();
                server.shutdown().expect("shutdown");
                panic!("{stored} directory opened in the other mode: {report}");
            }
        }
        assert!(
            dir_contents(&dir) == before,
            "a refused open must leave the {stored} directory untouched"
        );

        let server = Server::start(config(elastic)).expect("reopen in the stored mode");
        assert_eq!(server.recovery_report().snapshots_corrupt, 0);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for key in &keys {
            assert!(client.query(key).expect("query"), "acked key lost");
        }
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
