//! Minimal flag parsing shared by the experiment binaries.
//!
//! Supported flags (all optional):
//!
//! * `--scale N` — divide workload sizes by `N` (default 1 = paper scale);
//! * `--trials N` — override the number of averaged trials;
//! * `--out DIR` — directory for CSV output (default `results/`);
//! * `--quiet` — suppress the human-readable table (CSV still written);
//! * `--faults SEED` — run the seeded fault-injection campaign instead of
//!   (or before) the normal workload (honoured by `stress`);
//! * `--drill-matrix` — run the fault campaign over every seed in
//!   `mpcbf_workloads::DRILL_SEEDS` (the CI kill-point drill matrix,
//!   honoured by `stress`);
//! * `--telemetry` — run the metered telemetry validation instead of the
//!   normal workload: emits `BENCH_telemetry.json` plus a Prometheus text
//!   page (honoured by `stress`);
//! * `--gate` — regression-gate mode (honoured by `bench_batch`): measure,
//!   compare against the recorded baseline JSON instead of overwriting it,
//!   and exit non-zero on a regression;
//! * `--max-n N` — skip workload rungs above `N` keys (honoured by
//!   `bench_bulk`, whose top rung needs gigabytes);
//! * `--ramp` — run the elastic capacity-ramp drill instead of the normal
//!   workload (honoured by `stress`): a 10x key ramp against the elastic
//!   pool, checking zero false negatives and the analytic FPR envelope at
//!   every phase, including mid-compaction.

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload-size divisor.
    pub scale: u64,
    /// Trial-count override.
    pub trials: Option<usize>,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Suppress stdout tables.
    pub quiet: bool,
    /// Fault-injection campaign seed (`--faults SEED`), if requested.
    pub faults: Option<u64>,
    /// Run the fault campaign over every shared drill seed
    /// (`--drill-matrix`).
    pub drill_matrix: bool,
    /// Run the telemetry validation harness (`--telemetry`).
    pub telemetry: bool,
    /// Regression-gate mode (`--gate`): compare against the recorded
    /// baseline instead of regenerating it; exit non-zero on regression.
    pub gate: bool,
    /// Run the elastic capacity-ramp drill (`--ramp`).
    pub ramp: bool,
    /// Largest rung to run (`--max-n N`), if capped.
    pub max_n: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 1,
            trials: None,
            out_dir: "results".to_string(),
            quiet: false,
            faults: None,
            drill_matrix: false,
            telemetry: false,
            gate: false,
            ramp: false,
            max_n: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // parsing, not collection building
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&s| s >= 1)
                        .unwrap_or_else(|| usage("--scale needs a positive integer"))
                }
                "--trials" => {
                    args.trials = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&t| t >= 1)
                            .unwrap_or_else(|| usage("--trials needs a positive integer")),
                    )
                }
                "--out" => {
                    args.out_dir = it
                        .next()
                        .unwrap_or_else(|| usage("--out needs a directory"))
                }
                "--faults" => {
                    args.faults = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--faults needs a seed (u64)")),
                    )
                }
                "--max-n" => {
                    args.max_n = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| usage("--max-n needs a positive integer")),
                    )
                }
                "--drill-matrix" => args.drill_matrix = true,
                "--telemetry" => args.telemetry = true,
                "--gate" => args.gate = true,
                "--ramp" => args.ramp = true,
                "--quiet" => args.quiet = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Applies the scale divisor to a size.
    pub fn scaled(&self, n: u64) -> u64 {
        (n / self.scale).max(1)
    }

    /// Trials to run, given an experiment default.
    pub fn trials_or(&self, default: usize) -> usize {
        self.trials.unwrap_or(default)
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--scale N] [--trials N] [--out DIR] [--quiet] [--faults SEED] \
         [--drill-matrix] [--telemetry] [--gate] [--ramp] [--max-n N]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::from_iter(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 1);
        assert_eq!(a.trials, None);
        assert_eq!(a.out_dir, "results");
        assert!(!a.quiet);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--scale", "10", "--trials", "3", "--out", "/tmp/x", "--quiet", "--faults", "42",
        ]);
        assert_eq!(a.scale, 10);
        assert_eq!(a.trials, Some(3));
        assert_eq!(a.out_dir, "/tmp/x");
        assert!(a.quiet);
        assert_eq!(a.faults, Some(42));
    }

    #[test]
    fn faults_defaults_to_off() {
        assert_eq!(parse(&[]).faults, None);
        assert_eq!(parse(&["--faults", "0"]).faults, Some(0));
    }

    #[test]
    fn drill_matrix_flag() {
        assert!(!parse(&[]).drill_matrix);
        assert!(parse(&["--drill-matrix"]).drill_matrix);
    }

    #[test]
    fn ramp_flag() {
        assert!(!parse(&[]).ramp);
        assert!(parse(&["--ramp"]).ramp);
    }

    #[test]
    fn telemetry_flag() {
        assert!(!parse(&[]).telemetry);
        assert!(parse(&["--telemetry"]).telemetry);
    }

    #[test]
    fn max_n_flag() {
        assert_eq!(parse(&[]).max_n, None);
        assert_eq!(parse(&["--max-n", "1000"]).max_n, Some(1000));
    }

    #[test]
    fn gate_flag() {
        assert!(!parse(&[]).gate);
        assert!(parse(&["--gate"]).gate);
    }

    #[test]
    fn scaled_floors_at_one() {
        let a = parse(&["--scale", "1000"]);
        assert_eq!(a.scaled(100), 1);
        assert_eq!(a.scaled(100_000), 100);
    }

    #[test]
    fn trials_or_default() {
        assert_eq!(parse(&[]).trials_or(10), 10);
        assert_eq!(parse(&["--trials", "2"]).trials_or(10), 2);
    }
}
