//! `benchmark compare PARENT.json CHANGE.json`: per workload and
//! end-to-end metric, each side's median and quartiles, the ratio, and
//! the verdict of [`crate::stats::verdict`].
//!
//! Runs pair up in file order per workload, so record the two sides
//! interleaved with the same seed sequence. Only untraced, full-size,
//! correct runs count, and the i-th runs of the two sides must have run
//! the same inputs for the same time.

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::{quartiles, verdict, Verdict};

/// Four significant digits, in scientific form for small rates.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// The untraced, full-size, correct runs of `workload`, in file order.
fn usable<'a>(runs: &'a [Json], workload: &str) -> Vec<&'a Json> {
    let flag = |r: &Json, key: &str| r.get(key).and_then(Json::as_bool);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| flag(r, "trace") == Some(false) && flag(r, "quick") == Some(false))
        .filter(|r| flag(r, "correct") == Some(true))
        .collect()
}

/// Checks that both sides have as many runs and that the i-th runs drew
/// their inputs from the same seed and ran as long.
fn check_pairs(workload: &str, parent: &[&Json], change: &[&Json]) -> Result<(), String> {
    if parent.len() != change.len() {
        return Err(format!(
            "{workload}: {} usable parent runs but {} change runs",
            parent.len(),
            change.len()
        ));
    }
    let input = |r: &Json| {
        r.get("input_seed")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let seconds = |r: &Json| r.get("seconds").and_then(Json::as_f64);
    for (i, (p, c)) in parent.iter().zip(change).enumerate() {
        if input(p).is_none() || input(p) != input(c) {
            return Err(format!(
                "{workload}: pair {} ran on different inputs (input seed {:?} against {:?}); \
                 a change that skips other seeds or refuses other keys cannot be compared",
                i + 1,
                input(p),
                input(c)
            ));
        }
        if seconds(p) != seconds(c) {
            return Err(format!(
                "{workload}: pair {} ran for {:?} s against {:?} s",
                i + 1,
                seconds(p),
                seconds(c)
            ));
        }
    }
    Ok(())
}

/// Values of `metric`, in the order of `runs`.
fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: no `runs` list"))
}

/// Metrics the comparison could not pass.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub regressed: usize,
    pub unresolved: usize,
}

/// Prints the comparison and tallies the verdicts that fail it.
pub fn run(spec: &Spec, parent_path: &str, change_path: &str) -> Result<Tally, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let mut tally = Tally::default();
    println!(
        "{:<15} {:<13} {:>26} {:>26} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio"
    );
    for workload in &spec.workloads {
        let (a_runs, b_runs) = (usable(&parent, workload), usable(&change, workload));
        if a_runs.is_empty() && b_runs.is_empty() {
            continue;
        }
        check_pairs(workload, &a_runs, &b_runs)?;
        for metric in &spec.end_to_end {
            let a = values(&a_runs, &metric.name);
            let b = values(&b_runs, &metric.name);
            if a.len() != a_runs.len() || b.len() != b_runs.len() {
                return Err(format!("{workload}: a run lacks `{}`", metric.name));
            }
            let bound = metric.bound.unwrap_or(0.0);
            let v = verdict(&a, &b, metric.lower_is_better, bound);
            tally.regressed += usize::from(v == Verdict::Regressed);
            tally.unresolved += usize::from(v == Verdict::Unresolved);
            let (aq1, am, aq3) = quartiles(&a);
            let (bq1, bm, bq3) = quartiles(&b);
            let label = match v {
                Verdict::Regressed | Verdict::Unresolved => v.label().to_uppercase(),
                _ => v.label().to_string(),
            };
            println!(
                "{workload:<15} {:<13} {:>26} {:>26} {:>7.3}  {label} (bound {bound}, {} pairs)",
                metric.name,
                format!("{} [{}, {}]", num(am), num(aq1), num(aq3)),
                format!("{} [{}, {}]", num(bm), num(bq1), num(bq3)),
                if am == 0.0 { f64::NAN } else { bm / am },
                a.len(),
            );
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(text: &str) -> Vec<Json> {
        Json::parse(text)
            .expect("valid")
            .as_arr()
            .expect("array")
            .to_vec()
    }

    fn run_json(
        workload: &str,
        flags: (bool, bool, bool),
        input: &str,
        secs: u32,
        m: u32,
    ) -> String {
        let (trace, quick, correct) = flags;
        format!(
            r#"{{"workload": "{workload}", "trace": {trace}, "quick": {quick}, "correct": {correct},
                "input_seed": "{input}", "seconds": {secs}, "metrics": {{"m": {{"value": {m}, "unit": "s"}}}}}}"#
        )
    }

    #[test]
    fn only_untraced_full_size_correct_runs_count() {
        let ok = (false, false, true);
        let all = runs(&format!(
            "[{}]",
            [
                run_json("w", ok, "1", 20, 1),
                run_json("w", (true, false, true), "1", 20, 9),
                run_json("w", (false, true, true), "1", 2, 8),
                run_json("w", (false, false, false), "1", 20, 7),
                run_json("x", ok, "1", 20, 6),
                run_json("w", ok, "2", 20, 2),
            ]
            .join(",")
        ));
        let w = usable(&all, "w");
        assert_eq!(values(&w, "m"), vec![1.0, 2.0]);
        assert!(values(&w, "other").is_empty());
    }

    #[test]
    fn pairs_must_share_inputs_and_length() {
        let ok = (false, false, true);
        let side = |inputs: [&str; 2], secs: [u32; 2]| {
            runs(&format!(
                "[{}, {}]",
                run_json("w", ok, inputs[0], secs[0], 1),
                run_json("w", ok, inputs[1], secs[1], 1)
            ))
        };
        let parent = side(["1", "2"], [20, 20]);
        let p = usable(&parent, "w");
        let same = side(["1", "2"], [20, 20]);
        assert!(check_pairs("w", &p, &usable(&same, "w")).is_ok());
        // The change skipped an overflowing seed the parent did not.
        let other_inputs = side(["1", "99"], [20, 20]);
        assert!(check_pairs("w", &p, &usable(&other_inputs, "w")).is_err());
        let other_length = side(["1", "2"], [20, 10]);
        assert!(check_pairs("w", &p, &usable(&other_length, "w")).is_err());
        assert!(check_pairs("w", &p, &p[..1]).is_err());
    }
}
