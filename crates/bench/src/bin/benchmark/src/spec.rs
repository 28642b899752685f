//! `BENCHMARK.json`: the workload names and the metric declarations
//! (unit, direction, regression bound) every result is checked against.

use crate::json::Json;

/// The declaration file, compiled in so that a result can never name a
/// metric the repository does not declare.
const DECLARATIONS: &str = include_str!("../../../../../../BENCHMARK.json");

const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;
/// No end-to-end metric may be allowed to worsen by more than this share:
/// a metric that cannot hold it is dropped, not loosened.
const MAX_BOUND: f64 = 0.15;
/// The exception: `setup_s` takes the largest bound the declaration
/// format allows, because set-up time is gated on the drift of its median
/// between passes, and on a shared machine that drift passes 15 %.
const MAX_SETUP_BOUND: f64 = 0.25;

/// The widest bound `name` may declare.
fn max_bound(name: &str) -> f64 {
    if name == "setup_s" {
        MAX_SETUP_BOUND
    } else {
        MAX_BOUND
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    /// Length of a run's measured phase when the command line gives none.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(DECLARATIONS).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| *s >= 1.0)
            .ok_or("missing or bad `run_seconds`")?;
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing `workloads`")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let end_to_end = metrics(&doc, "end_to_end", true)?;
        let per_layer = metrics(&doc, "per_layer", false)?;
        if end_to_end.len() > MAX_END_TO_END {
            return Err(format!("more than {MAX_END_TO_END} end-to-end metrics"));
        }
        if per_layer.len() > MAX_PER_LAYER {
            return Err(format!("more than {MAX_PER_LAYER} per-layer metrics"));
        }
        let mut names: Vec<&str> = workloads.iter().map(String::as_str).collect();
        names.extend(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()));
        for (i, name) in names.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("bad name `{name}`"));
            }
            if names[..i].contains(name) {
                return Err(format!("name `{name}` used twice"));
            }
        }
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// Checks that `emitted` names exactly the declared metrics of the
    /// traced (`per_layer`) or untraced (`end_to_end`) set.
    pub fn check_emitted(&self, emitted: &[&str], traced: bool) -> Result<(), String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for name in emitted {
            if !declared.iter().any(|m| m.name == *name) {
                return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
            }
        }
        for m in declared {
            if !emitted.contains(&m.name.as_str()) {
                return Err(format!("declared metric `{}` was not measured", m.name));
            }
        }
        Ok(())
    }
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing `{key}`"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key} entry without `{f}`"))
            };
            let name = field("name")?.to_string();
            let unit = field("unit")?.to_string();
            if !valid_unit(&unit) {
                return Err(format!("bad unit `{unit}` for `{name}`"));
            }
            let lower_is_better = match field("better")? {
                "lower" => true,
                "higher" => false,
                other => {
                    return Err(format!(
                        "`{name}`: better must be lower|higher, not {other}"
                    ))
                }
            };
            let bound = if bounded {
                let b = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("`{name}` has no bound"))?;
                let max = max_bound(&name);
                if !(0.0..=max).contains(&b) {
                    return Err(format!("`{name}`: bound {b} outside 0..={max}"));
                }
                Some(b)
            } else {
                None
            };
            Ok(Metric {
                name,
                unit,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{EndToEnd, PerLayer, Workload};

    #[test]
    fn names_follow_the_pattern() {
        for good in [
            "point-query",
            "read_p50_us",
            "core.hcbf.query_ns_per_key",
            "9a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "slash/x",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn repository_declarations_parse_and_cover_every_workload() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert!(spec.end_to_end.len() <= MAX_END_TO_END);
        assert!(spec.per_layer.len() <= MAX_PER_LAYER);
        let setup = spec.metric("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        // Set-up time carries the largest bound of all.
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
        // Every workload the benchmark runs is declared, and each one
        // emits exactly the declared metric sets.
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        let names = |set: Vec<(&'static str, f64)>| -> Vec<&'static str> {
            set.into_iter().map(|(name, _)| name).collect()
        };
        spec.check_emitted(&names(EndToEnd::default().named()), false)
            .expect("end-to-end set matches");
        spec.check_emitted(&names(PerLayer::default().named()), true)
            .expect("per-layer set matches");
    }

    #[test]
    fn rejects_bad_declarations() {
        let good = r#"{"run_seconds": 10, "workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "l", "unit": "ns", "better": "lower"}]}"#;
        assert!(Spec::parse(good).is_ok());
        let cases = [
            good.replace("\"m\"", "\"a\""),   // name reused
            good.replace("\"m\"", "\"m m\""), // bad name
            good.replace("0.1", "0.2"),       // bound too wide
            good.replace("\"lower\", \"bound\"", "\"up\", \"bound\""), // bad direction
            good.replace("\"ns\"", "\"nano seconds\""), // bad unit
            good.replace(", \"bound\": 0.1", ""), // end-to-end without bound
            good.replace("10", "0"),          // no measured phase
        ];
        for case in &cases {
            assert!(Spec::parse(case).is_err(), "{case}");
        }
        let too_many: Vec<String> = (0..17)
            .map(|i| format!(r#"{{"name": "m{i}", "unit": "s", "better": "lower", "bound": 0.1}}"#))
            .collect();
        let doc = format!(
            r#"{{"run_seconds": 10, "workloads": [], "end_to_end": [{}], "per_layer": []}}"#,
            too_many.join(",")
        );
        assert!(Spec::parse(&doc).is_err());
        // Only set-up time may go past 0.15, and not past 0.25.
        let setup = good.replace("\"m\"", "\"setup_s\"");
        assert!(Spec::parse(&setup.replace("0.1", "0.25")).is_ok());
        assert!(Spec::parse(&setup.replace("0.1", "0.3")).is_err());
        let spec = Spec::parse(good).expect("valid");
        assert!(spec.check_emitted(&["m"], false).is_ok());
        assert!(spec.check_emitted(&["m", "extra"], false).is_err());
        assert!(spec.check_emitted(&[], true).is_err());
    }
}
