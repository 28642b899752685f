//! Elastic capacity benchmark: throughput and FPR before, during, and
//! after a scale-up.
//!
//! ```text
//! cargo run --release -p mpcbf-bench --bin bench_elastic
//! cargo run --release -p mpcbf-bench --bin bench_elastic -- --scale 4
//! ```
//!
//! Emits `BENCH_elastic.json` (uploaded by the CI ramp job) with two
//! sections:
//!
//! * `ramp` — per-phase rows from a 10x key ramp against a manual-mode
//!   [`ElasticMpcbf`]: insert throughput, generation count, empirical
//!   FPR versus the analytic stacked envelope, and whether the phase
//!   crossed an in-flight compaction;
//! * `migration` — FPR sampled *inside* a compaction (the envelope must
//!   hold mid-migration, not just at fixed points).

use mpcbf_bench::{rss, Args};
use mpcbf_core::policy::CapacityPolicy;
use mpcbf_core::{ElasticMpcbf, Filter, MpcbfConfig};
use mpcbf_hash::Murmur3;
use mpcbf_workloads::RampSpec;
use std::fmt::Write as _;
use std::time::Instant;

struct PhaseRow {
    phase: usize,
    items: u64,
    generations: usize,
    inserts_per_sec: f64,
    empirical_fpr: f64,
    envelope: f64,
    scaled: bool,
}

struct MigrationSample {
    migrated_keys: u64,
    empirical_fpr: f64,
    envelope: f64,
}

fn empirical_fpr(filter: &ElasticMpcbf<Murmur3>, probes: &[Vec<u8>]) -> f64 {
    let hits = probes.iter().filter(|p| filter.contains_bytes(p)).count();
    hits as f64 / probes.len() as f64
}

fn main() {
    let args = Args::parse();
    rss::reset_peak_rss();
    let base_items = args.scaled(20_000);
    let spec = RampSpec::tenfold(base_items, 0x2b2b);
    let probes = spec.negative_probes(20_000);
    let config = MpcbfConfig::builder()
        .memory_bits(16 * base_items)
        .expected_items(base_items)
        .hashes(3)
        .seed(0x11)
        .build()
        .expect("ramp shape");

    let mut filter: ElasticMpcbf<Murmur3> =
        ElasticMpcbf::manual(config, CapacityPolicy::default()).expect("elastic filter");
    let mut phases: Vec<PhaseRow> = Vec::new();
    let mut migration: Vec<MigrationSample> = Vec::new();
    for (i, phase) in spec.phases().into_iter().enumerate() {
        let n = phase.keys.len() as u64;
        let start = Instant::now();
        for key in &phase.keys {
            filter.insert_bytes(key).expect("elastic insert");
        }
        let insert_secs = start.elapsed().as_secs_f64();
        let mut scaled = false;
        while let Some(plan) = filter.scale_plan() {
            scaled = true;
            filter.apply_scale(&plan).expect("apply scale plan");
            filter.begin_compaction();
            // Sample the envelope inside the migration at batch
            // granularity (a handful of points per compaction).
            let step = (filter.items() as usize / 8).max(64);
            while filter.compacting() {
                filter.step_compaction(step);
                migration.push(MigrationSample {
                    migrated_keys: filter.migrated_keys(),
                    empirical_fpr: empirical_fpr(&filter, &probes),
                    envelope: filter.fpr_envelope(),
                });
            }
        }
        phases.push(PhaseRow {
            phase: i,
            items: filter.items(),
            generations: filter.generation_count(),
            inserts_per_sec: n as f64 / insert_secs.max(1e-9),
            empirical_fpr: empirical_fpr(&filter, &probes),
            envelope: filter.fpr_envelope(),
            scaled,
        });
        if !args.quiet {
            let row = phases.last().expect("just pushed");
            println!(
                "phase {i}: items {} gens {} {:.0} inserts/s fpr {:.6} envelope {:.6}{}",
                row.items,
                row.generations,
                row.inserts_per_sec,
                row.empirical_fpr,
                row.envelope,
                if row.scaled { " [scaled]" } else { "" },
            );
        }
    }
    filter.verify().expect("elastic invariants");

    let peak_rss_mib = rss::peak_rss_bytes().map(rss::bytes_to_mib);

    let mut json = String::from("{\n  \"ramp\": [\n");
    for (i, r) in phases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"phase\": {}, \"items\": {}, \"generations\": {}, \
             \"inserts_per_sec\": {:.1}, \"empirical_fpr\": {:.8}, \
             \"envelope\": {:.8}, \"scaled\": {}}}{}",
            r.phase,
            r.items,
            r.generations,
            r.inserts_per_sec,
            r.empirical_fpr,
            r.envelope,
            r.scaled,
            if i + 1 == phases.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n  \"migration\": [\n");
    for (i, m) in migration.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"migrated_keys\": {}, \"empirical_fpr\": {:.8}, \"envelope\": {:.8}}}{}",
            m.migrated_keys,
            m.empirical_fpr,
            m.envelope,
            if i + 1 == migration.len() { "" } else { "," },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"scale_events\": {}, \"compactions\": {}, \"migrated_keys\": {}, \"peak_rss_mib\": {}\n}}\n",
        filter.scale_events(),
        filter.compactions(),
        filter.migrated_keys(),
        peak_rss_mib
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "null".to_string()),
    );
    std::fs::write("BENCH_elastic.json", &json).expect("write BENCH_elastic.json");
    println!("wrote BENCH_elastic.json");
}
