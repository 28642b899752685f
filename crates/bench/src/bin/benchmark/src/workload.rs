//! The four workloads and the metrics each run reports.

/// A set of metrics as a struct, so a run cannot leave one out, and its
/// names in one list, which the tests hold against `BENCHMARK.json`.
macro_rules! metric_set {
    ($(#[$doc:meta])* $set:ident { $($field:ident => $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $set {
            $(pub $field: f64,)*
        }

        impl $set {
            pub fn named(&self) -> Vec<(&'static str, f64)> {
                vec![$(($name, self.$field),)*]
            }
        }
    };
}

metric_set! {
    /// What every untraced run reports: the metrics whose run-to-run
    /// spread on a shared two-core machine stays inside a bound of 15 %
    /// or less (`setup_s` aside, which carries the largest bound). The
    /// throughput and latency figures drift by more than that, so they
    /// are reported ungated by the traced run (`client.*`).
    EndToEnd {
        setup_s => "setup_s",
        fpr => "fpr",
        peak_rss_mib => "peak_rss_mib",
    }
}

metric_set! {
    /// What every traced run reports.
    PerLayer {
        ping_rtt_us => "server.socket.ping_rtt_us",
        decode_ns_per_key => "server.protocol.decode_ns_per_key",
        encode_ns_per_key => "server.protocol.encode_ns_per_key",
        cpu_us_per_op => "server.process.cpu_us_per_op",
        ctx_switches_per_op => "server.process.ctx_switches_per_op",
        peak_rss_mib => "server.process.peak_rss_mib",
        cold_start_ms => "server.cold_start_ms",
        route_ns_per_key => "concurrent.sharded.route_ns_per_key",
        contains_ns_per_key => "concurrent.sharded.contains_ns_per_key",
        insert_ns_per_key => "concurrent.sharded.insert_ns_per_key",
        remove_ns_per_key => "concurrent.sharded.remove_ns_per_key",
        hash_ns_per_key => "hash.murmur3.ns_per_key",
        plan_ns_per_key => "core.plan.ns_per_key",
        walk_query_ns_per_key => "core.hcbf.query_ns_per_key",
        walk_update_ns_per_key => "core.hcbf.update_ns_per_key",
        words_per_query => "core.mpcbf.words_per_query",
        words_per_update => "core.mpcbf.words_per_update",
        hash_bits_per_query => "core.mpcbf.hash_bits_per_query",
        record_encode_ns_per_key => "durability.record.encode_ns_per_key",
        record_bytes_per_key => "durability.record.bytes_per_key",
        wal_append_us => "durability.wal.append_us",
        wal_sync_p50_us => "durability.wal.sync_p50_us",
        wal_sync_p99_us => "durability.wal.sync_p99_us",
        wal_syncs_per_write => "durability.wal.syncs_per_write",
        codec_encode_ms => "core.codec.encode_ms",
        snapshot_write_ms => "durability.snapshot.write_ms",
        bulk_push_ns_per_key => "core.bulk.push_ns_per_key",
        bulk_finish_ms => "concurrent.bulk.finish_ms",
        bulk_l1_spills => "core.bulk.l1_spills",
        bulk_l2_spills => "core.bulk.l2_spills",
        bulk_flushes => "core.bulk.flushes",
        throughput_ops_s => "client.throughput_ops_s",
        read_p50_us => "client.read_p50_us",
        read_p99_us => "client.read_p99_us",
        read_p999_us => "client.read_p999_us",
        write_p50_us => "client.write_p50_us",
        write_p99_us => "client.write_p99_us",
        write_p999_us => "client.write_p999_us",
        read_gap_pct => "ledger.read_gap_pct",
        write_gap_pct => "ledger.write_gap_pct",
        overhead_pct => "trace.overhead_pct",
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointQuery,
    BatchMixDram,
    DurableChurn,
    BulkIngest,
}

/// The request pattern one connection repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Scalar `QUERY`, 80 % members.
    Point,
    /// `3 × QUERY_BATCH`, `INSERT_BATCH` of a fresh ring batch, then
    /// `REMOVE_BATCH` of the previous one: 60 % reads by key.
    Batch,
    /// Scalar `INSERT` fresh, `QUERY` member, `REMOVE` previous fresh,
    /// `QUERY` absent: 50 % writes.
    Churn,
    /// `INSERT` fresh, then `REMOVE` the previous fresh: the write probe
    /// that follows the read-only point-query load in a traced run, so the
    /// write-side layers report on every workload.
    Writes,
}

/// Sizes and server settings of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Keys preloaded (serve workloads) or built (bulk ingest).
    pub members: u64,
    /// Filter size in bits.
    pub memory_bits: u64,
    /// `mpcbf serve --fsync` policy (also the policy the WAL layer is
    /// measured under).
    pub fsync: &'static str,
    pub snapshot_every: Option<u64>,
    pub mix: Mix,
    /// Keys per request.
    pub batch: usize,
    /// Fresh-key batches per connection, reused round-robin.
    pub fresh_ring: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointQuery,
        Workload::BatchMixDram,
        Workload::DurableChurn,
        Workload::BulkIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointQuery => "point-query",
            Workload::BatchMixDram => "batch-mix-dram",
            Workload::DurableChurn => "durable-churn",
            Workload::BulkIngest => "bulk-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape; `quick` divides every size by ten.
    pub fn shape(self, quick: bool) -> Shape {
        let div = if quick { 10 } else { 1 };
        // Table II: n = 100 000 in M = 8 Mb (80 bits per key, L2-resident).
        let table2 = Shape {
            members: 100_000 / div,
            memory_bits: 8_000_000 / div,
            fsync: "always",
            snapshot_every: None,
            mix: Mix::Point,
            batch: 1,
            fresh_ring: 4_096,
        };
        match self {
            Workload::PointQuery => table2,
            // The same 80 bits per key at 64x the size: a 64 MB filter,
            // 32x the per-core L2.
            Workload::BatchMixDram => Shape {
                members: 6_400_000 / div,
                memory_bits: 512_000_000 / div,
                fsync: "interval-2ms",
                snapshot_every: Some(4_000_000),
                mix: Mix::Batch,
                batch: 256,
                fresh_ring: 64,
            },
            Workload::DurableChurn => Shape {
                snapshot_every: Some(50_000),
                mix: Mix::Churn,
                ..table2
            },
            // `mpcbf build --bulk` defaults: 16 bits per key.
            Workload::BulkIngest => Shape {
                members: 10_000_000 / div,
                memory_bits: 16 * (10_000_000 / div),
                mix: Mix::Batch,
                batch: 256,
                fresh_ring: 64,
                ..table2
            },
        }
    }
}
