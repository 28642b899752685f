//! The repository benchmark: served point, batch and durable traffic
//! through a real `mpcbf serve` child, plus `mpcbf build --bulk` ingest,
//! with a per-layer ledger from a separate traced run.
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//!           [--quick] [--out FILE]
//! benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! Without `--workload` every workload runs in turn. Each metric prints
//! as `workload metric value unit`; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones).
//! `--out` appends the runs, with the machine they ran on, to a result
//! file that `compare` reads. The exit code is non-zero when a
//! correctness gate fails. See README.md for the workloads and metrics.

mod bulk;
mod compare;
mod gates;
mod json;
mod keys;
mod layers;
mod load;
mod proc;
mod replay;
mod serve;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Json;
use keys::Choice;
use load::Phase;
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// One run's settings and scratch space.
pub struct Env {
    /// The `mpcbf` binary under test.
    pub bin: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub dir: PathBuf,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// One tenth of every size.
    pub quick: bool,
    /// Where a traced run writes its spans.
    pub trace_path: PathBuf,
}

impl Env {
    /// Untimed load before a measured window, so caches and connections
    /// settle first.
    pub fn warmup(&self) -> f64 {
        if self.quick {
            0.5
        } else {
            1.0
        }
    }

    /// Length of each side of a traced run (untraced reference and
    /// traced, interleaved).
    pub fn trace_window(&self) -> f64 {
        if self.quick {
            1.0
        } else {
            5.0
        }
    }

    /// Slices each side of a traced run is cut into (see
    /// [`load::alternate`]).
    pub fn trace_slices(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }
}

/// What a run measured, and whether its outputs were correct.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// How the inputs were chosen from the workload seed.
    pub choice: Choice,
    /// Keys attempted, and keys that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every failed correctness gate.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.errors.extend(phase.errors.iter().cloned());
    }

    pub fn gate(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.errors.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// The `q`-quantile of per-request latencies in microseconds. A missing
/// sample is a failed gate; a percentile without ten samples beyond it
/// is reported with a warning.
pub fn latency_us(ns: &mut [u32], q: f64, errors: &mut Vec<String>) -> f64 {
    if ns.is_empty() {
        errors.push(format!("no request completed for the p{}", q * 100.0));
        return 0.0;
    }
    ns.sort_unstable();
    if !stats::supported(ns.len(), q) {
        eprintln!(
            "note: p{} rests on {} samples, fewer than ten beyond it",
            q * 100.0,
            ns.len()
        );
    }
    f64::from(stats::percentile(ns, q)) / 1e3
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] \
                     [--quick] [--out FILE]\n       benchmark compare PARENT.json CHANGE.json";

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                opts.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The checkout this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// The benchmark's work area, inside the cargo target directory that
/// holds its binary (and so inside the checkout).
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("benchmark"))
        .ok_or_else(|| "benchmark binary is not inside a cargo target directory".into())
}

/// A metric's value with its declared unit.
fn metric_json(spec: &Spec, name: &str, value: f64) -> Json {
    let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

/// One finished run as a result-file entry.
fn run_json(
    spec: &Spec,
    workload: Workload,
    opts: &Opts,
    seconds: f64,
    outcome: &Outcome,
    machine: &[(&str, String)],
) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value)| (name.to_string(), metric_json(spec, name, value)))
        .collect();
    let choice = outcome.choice;
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        // Seeds are written as strings: a derived one needs all 64 bits.
        (
            "input_seed".into(),
            Json::Str(choice.input_seed.to_string()),
        ),
        (
            "seeds_skipped".into(),
            Json::Num(choice.seeds_skipped as f64),
        ),
        (
            "fresh_refused".into(),
            Json::Num(choice.fresh_refused as f64),
        ),
        ("trace".into(), Json::Bool(opts.trace)),
        ("quick".into(), Json::Bool(opts.quick)),
        ("seconds".into(), Json::Num(seconds)),
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        (
            "machine".into(),
            Json::Obj(
                machine
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Appends `runs` to the result file at `path`.
fn append_runs(path: &Path, runs: Vec<Json>) -> Result<(), String> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .ok_or_else(|| format!("{} is not a benchmark result file", path.display()))?,
        Err(_) => Vec::new(),
    };
    all.extend(runs);
    let body: Vec<String> = all.iter().map(|r| format!("  {r}")).collect();
    std::fs::write(path, format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n")))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.first().map(String::as_str) == Some("compare") {
        let [_, parent, change] = &args[..] else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(&spec, parent, change) {
            Ok(compare::Tally {
                regressed: 0,
                unresolved: 0,
            }) => ExitCode::SUCCESS,
            Ok(t) => {
                eprintln!(
                    "{} regressed, {} unresolved (a spread wider than the bound)",
                    t.regressed, t.unresolved
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_all(&spec, &opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the selected workloads; `Ok(false)` when a gate failed.
fn run_all(spec: &Spec, opts: &Opts) -> Result<bool, String> {
    let root = repo_root();
    let bin = proc::mpcbf_binary(&root)?;
    let work = work_dir()?;
    let seconds = opts
        .seconds
        .unwrap_or(if opts.quick { 2.0 } else { spec.run_seconds });
    let mut runs = Vec::new();
    let mut summary: Vec<(String, Json)> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let single = opts.workloads.len() == 1;
    for &workload in &opts.workloads {
        let env = Env {
            bin: bin.clone(),
            dir: work.join(format!("run-{}-{}", workload.name(), std::process::id())),
            seed: opts.seed,
            seconds,
            quick: opts.quick,
            trace_path: work.join(format!("trace-{}.jsonl", workload.name())),
        };
        std::fs::create_dir_all(&env.dir)
            .map_err(|e| format!("create {}: {e}", env.dir.display()))?;
        let machine = proc::machine(&root, &env.dir);
        let outcome = match workload {
            Workload::BulkIngest => bulk::run(&env, opts.trace),
            _ => serve::run(workload, &env, opts.trace),
        };
        let _ = std::fs::remove_dir_all(&env.dir);
        let mut outcome = outcome?;
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        outcome.gate(spec.check_emitted(&names, opts.trace));
        if let Some((name, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
            outcome
                .errors
                .push(format!("metric `{name}` is not a finite number"));
            outcome.metrics.retain(|m| m.1.is_finite());
        }
        let choice = outcome.choice;
        eprintln!(
            "benchmark: {}: inputs from seed {} ({} overflowing seed(s) skipped, {} fresh key(s) refused)",
            workload.name(),
            choice.input_seed,
            choice.seeds_skipped,
            choice.fresh_refused
        );
        for e in &outcome.errors {
            eprintln!("benchmark: {}: FAILED: {e}", workload.name());
        }
        for &(name, value) in &outcome.metrics {
            let unit = spec.metric(name).map_or("", |m| m.unit.as_str());
            println!("{} {name} {value} {unit}", workload.name());
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", workload.name())
            };
            summary.push((key, metric_json(spec, name, value)));
        }
        correct &= outcome.correct();
        attempted += outcome.attempted;
        failed += outcome.failed;
        runs.push(run_json(spec, workload, opts, seconds, &outcome, &machine));
    }
    if let Some(path) = &opts.out {
        append_runs(path, runs)?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        Json::Obj(summary)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let o = parse(&args(&[
            "--workload",
            "durable-churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .expect("valid");
        assert_eq!(o.workloads, vec![Workload::DurableChurn]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(10.0), false));
        let o = parse(&args(&["--trace", "--quick"])).expect("bare --trace");
        assert!(o.trace && o.quick);
        assert_eq!(o.workloads.len(), 4);
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--seconds", "0"])).is_err());
        assert!(parse(&args(&["--seed"])).is_err());
    }
}
