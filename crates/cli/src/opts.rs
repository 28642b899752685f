//! Flag parsing for the `mpcbf` CLI (no external dependencies).

/// Usage text shown on `--help` and usage errors.
pub const USAGE: &str = "\
mpcbf — Multiple-Partitioned Counting Bloom Filters (IPDPS 2013)

commands:
  build   --out FILE --items N [--memory-bits M] [--hashes K]
          [--accesses G] [--kind mpcbf|cbf] [--seed S] [--input FILE]
            build a filter from newline-separated keys (default stdin)
          [--bulk] [--threads T] [--synthetic N] [--dir DIR [--shards P]]
            with --bulk, ingest through the cache-bucketed streaming
            builder (mpcbf kind only): --synthetic N generates N
            deterministic keys instead of reading --input/stdin;
            --threads T parallelises the region sweeps; with --dir
            instead of --out, bulk-build a sharded filter and write a
            durable snapshot directory that `mpcbf serve`/`recover`
            cold-start from without any WAL replay
  query   --filter FILE [--input FILE]
            print `key<TAB>true|false` per key
  insert  --filter FILE [--input FILE]
            insert keys, rewriting the filter file
  remove  --filter FILE [--input FILE]
            remove keys, rewriting the filter file
  stats   --filter FILE
            print shape, population and load statistics
  size    --items N --fpr F [--hashes K] [--accesses G]
            memory needed by CBF vs MPCBF for a target FPR
  replay  --input TRACE [--items N] [--memory-bits M] [--hashes K]
            [--accesses G] [--telemetry]
            replay a flow trace file (`src,dst` per line, dotted IPv4 or
            u32) through an MPCBF flow monitor and report FPR + rates;
            with --telemetry, meter every operation and print a
            Prometheus metrics page after the report
  recover --dir DIR [--shards P] [--elastic] [--items N]
          [--memory-bits M] [--hashes K] [--accesses G] [--seed S]
          [--input FILE]
            open-or-recover a durable directory as `serve` does
            (snapshot + per-shard WAL replay, torn tails repaired) and
            print the recovery report, shard count, summed seq and
            overflows; a fresh DIR is initialised from the shape flags;
            with --input, the keys are then inserted durably and a
            snapshot is taken
  serve   --dir DIR [--addr HOST:PORT] [--metrics-addr HOST:PORT]
          [--shards P] [--fsync always|every-N|interval-Nms|interval-Nus]
          [--snapshot-every N] [--elastic] [--items N] [--memory-bits M]
          [--hashes K] [--accesses G] [--seed S]
            recover (or create) a durable sharded MPCBF in DIR and serve
            it over TCP (length-prefixed frame protocol; see
            mpcbf-server); prints `listening on ADDR`, then blocks until
            a client sends SHUTDOWN; acked mutations are WAL-logged
            under the chosen fsync policy before the reply;
            --snapshot-every N checkpoints after every N logged keys
            (a batch counts its keys, refused ones included); with
            --elastic, shards autoscale under overload (scale-ups are
            WAL-logged, mutations shed RETRY_LATER while a shard
            reorganises) — a DIR keeps its mode for life

defaults: --hashes 3, --accesses 1, --kind mpcbf, --seed 1,
          --memory-bits = 16 bits/item, --addr 127.0.0.1:7700,
          --shards 8, --fsync always";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; usage is printed.
    Usage(String),
    /// Runtime failure (I/O, decode, infeasible config).
    Runtime(String),
}

/// Which filter structure `build` produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// MPCBF over 64-bit words (default).
    Mpcbf,
    /// Standard 4-bit-counter CBF.
    Cbf,
}

/// Parsed flags (a superset across commands; each command reads its own).
#[derive(Debug, Clone)]
pub struct Opts {
    pub out: Option<String>,
    pub filter: Option<String>,
    pub input: Option<String>,
    pub dir: Option<String>,
    pub memory_bits: Option<u64>,
    pub items: Option<u64>,
    pub hashes: u32,
    pub accesses: u32,
    pub kind: Kind,
    pub seed: u64,
    pub fpr: Option<f64>,
    pub telemetry: bool,
    pub addr: Option<String>,
    pub metrics_addr: Option<String>,
    pub shards: Option<usize>,
    pub fsync: Option<String>,
    pub snapshot_every: Option<u64>,
    pub elastic: bool,
    pub bulk: bool,
    pub threads: Option<usize>,
    pub synthetic: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            out: None,
            filter: None,
            input: None,
            dir: None,
            memory_bits: None,
            items: None,
            hashes: 3,
            accesses: 1,
            kind: Kind::Mpcbf,
            seed: 1,
            fpr: None,
            telemetry: false,
            addr: None,
            metrics_addr: None,
            shards: None,
            fsync: None,
            snapshot_every: None,
            elastic: false,
            bulk: false,
            threads: None,
            synthetic: None,
        }
    }
}

impl Opts {
    /// Parses flags following the command word.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--out" => opts.out = Some(value("--out")?),
                "--filter" => opts.filter = Some(value("--filter")?),
                "--input" => opts.input = Some(value("--input")?),
                "--dir" => opts.dir = Some(value("--dir")?),
                "--memory-bits" => {
                    opts.memory_bits = Some(parse_num(&value("--memory-bits")?, "--memory-bits")?)
                }
                "--items" => opts.items = Some(parse_num(&value("--items")?, "--items")?),
                "--hashes" => opts.hashes = parse_num(&value("--hashes")?, "--hashes")? as u32,
                "--accesses" => {
                    opts.accesses = parse_num(&value("--accesses")?, "--accesses")? as u32
                }
                "--seed" => opts.seed = parse_num(&value("--seed")?, "--seed")?,
                "--fpr" => {
                    let raw = value("--fpr")?;
                    let f: f64 = raw
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad --fpr value `{raw}`")))?;
                    if !(f > 0.0 && f < 1.0) {
                        return Err(CliError::Usage("--fpr must be in (0, 1)".into()));
                    }
                    opts.fpr = Some(f);
                }
                "--telemetry" => opts.telemetry = true,
                "--elastic" => opts.elastic = true,
                "--bulk" => opts.bulk = true,
                "--threads" => {
                    let n = parse_num(&value("--threads")?, "--threads")?;
                    if n == 0 {
                        return Err(CliError::Usage("--threads must be positive".into()));
                    }
                    opts.threads = Some(n as usize);
                }
                "--synthetic" => {
                    opts.synthetic = Some(parse_num(&value("--synthetic")?, "--synthetic")?)
                }
                "--addr" => opts.addr = Some(value("--addr")?),
                "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")?),
                "--shards" => {
                    let n = parse_num(&value("--shards")?, "--shards")?;
                    if n == 0 {
                        return Err(CliError::Usage("--shards must be positive".into()));
                    }
                    opts.shards = Some(n as usize);
                }
                "--fsync" => opts.fsync = Some(value("--fsync")?),
                "--snapshot-every" => {
                    opts.snapshot_every =
                        Some(parse_num(&value("--snapshot-every")?, "--snapshot-every")?)
                }
                "--kind" => {
                    opts.kind = match value("--kind")?.as_str() {
                        "mpcbf" => Kind::Mpcbf,
                        "cbf" => Kind::Cbf,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown --kind `{other}` (mpcbf|cbf)"
                            )))
                        }
                    }
                }
                other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
            }
        }
        Ok(opts)
    }

    /// `--items`, required.
    pub fn require_items(&self) -> Result<u64, CliError> {
        self.items
            .filter(|&n| n > 0)
            .ok_or_else(|| CliError::Usage("--items N (positive) is required".into()))
    }

    /// `--filter`, required.
    pub fn require_filter(&self) -> Result<&str, CliError> {
        self.filter
            .as_deref()
            .ok_or_else(|| CliError::Usage("--filter FILE is required".into()))
    }

    /// `--dir`, required (durable-filter commands).
    pub fn require_dir(&self) -> Result<&str, CliError> {
        self.dir
            .as_deref()
            .ok_or_else(|| CliError::Usage("--dir DIR is required".into()))
    }

    /// Memory budget: explicit, or the 16-bits/item default.
    pub fn memory_or_default(&self, items: u64) -> u64 {
        self.memory_bits.unwrap_or(16 * items.max(1))
    }
}

fn parse_num(raw: &str, flag: &str) -> Result<u64, CliError> {
    // Accept underscores and k/M suffixes for ergonomics.
    let cleaned = raw.replace('_', "");
    let (digits, mult) = match cleaned.strip_suffix(['k', 'K']) {
        Some(d) => (d.to_string(), 1_000u64),
        None => match cleaned.strip_suffix('M') {
            Some(d) => (d.to_string(), 1_000_000u64),
            None => (cleaned, 1),
        },
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| CliError::Usage(format!("bad numeric value `{raw}` for {flag}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Opts, CliError> {
        Opts::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.hashes, 3);
        assert_eq!(o.accesses, 1);
        assert_eq!(o.kind, Kind::Mpcbf);
        assert_eq!(o.memory_or_default(1000), 16_000);
    }

    #[test]
    fn full_build_flags() {
        let o = parse(&[
            "--out",
            "f.bin",
            "--items",
            "100k",
            "--memory-bits",
            "4M",
            "--hashes",
            "4",
            "--accesses",
            "2",
            "--kind",
            "cbf",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(o.out.as_deref(), Some("f.bin"));
        assert_eq!(o.items, Some(100_000));
        assert_eq!(o.memory_bits, Some(4_000_000));
        assert_eq!(o.hashes, 4);
        assert_eq!(o.accesses, 2);
        assert_eq!(o.kind, Kind::Cbf);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn telemetry_flag_defaults_off() {
        assert!(!parse(&[]).unwrap().telemetry);
        assert!(parse(&["--telemetry"]).unwrap().telemetry);
    }

    #[test]
    fn numeric_suffixes_and_underscores() {
        let o = parse(&["--items", "1_000_000"]).unwrap();
        assert_eq!(o.items, Some(1_000_000));
        let o = parse(&["--items", "5k"]).unwrap();
        assert_eq!(o.items, Some(5_000));
    }

    #[test]
    fn errors_are_usage_errors() {
        assert!(matches!(parse(&["--bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["--items"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["--items", "abc"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&["--fpr", "1.5"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["--kind", "weird"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_flags() {
        let o = parse(&[
            "--dir",
            "d",
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:9100",
            "--shards",
            "16",
            "--fsync",
            "every-64",
            "--snapshot-every",
            "10k",
            "--elastic",
        ])
        .unwrap();
        assert!(o.elastic);
        assert!(!parse(&["--dir", "d"]).unwrap().elastic);
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(o.shards, Some(16));
        assert_eq!(o.fsync.as_deref(), Some("every-64"));
        assert_eq!(o.snapshot_every, Some(10_000));
        assert!(matches!(parse(&["--shards", "0"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn bulk_flags() {
        let o = parse(&["--bulk", "--threads", "4", "--synthetic", "1M"]).unwrap();
        assert!(o.bulk);
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.synthetic, Some(1_000_000));
        let o = parse(&[]).unwrap();
        assert!(!o.bulk);
        assert_eq!(o.threads, None);
        assert_eq!(o.synthetic, None);
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn require_helpers() {
        let o = parse(&[]).unwrap();
        assert!(o.require_items().is_err());
        assert!(o.require_filter().is_err());
        assert!(o.require_dir().is_err());
        let o = parse(&["--items", "5", "--filter", "x", "--dir", "d"]).unwrap();
        assert_eq!(o.require_items().unwrap(), 5);
        assert_eq!(o.require_filter().unwrap(), "x");
        assert_eq!(o.require_dir().unwrap(), "d");
    }
}
