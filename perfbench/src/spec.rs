//! The benchmark definition in `BENCHMARK.json` at the repository root:
//! workloads and the metrics every run prints, each with its unit.
//!
//! The file is compiled into the binary, so the names and units a run
//! prints can never drift from the definition.

use crate::json::Json;

/// `BENCHMARK.json`, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One workload declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Metric and workload name grammar: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit grammar: `[A-Za-z0-9_/%.-]+`, at most 16 characters.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys_exactly(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    match v {
        Json::Obj(pairs)
            if pairs.len() == keys.len() && keys.iter().all(|k| v.get(k).is_some()) =>
        {
            Ok(())
        }
        _ => Err(format!(
            "{what} must be an object with exactly the keys {keys:?}"
        )),
    }
}

fn string(v: Option<&Json>, what: &str) -> Result<String, String> {
    match v {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{what} must be a string")),
    }
}

fn array<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a [Json], String> {
    match v {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("{what} must be an array")),
    }
}

fn metric(v: &Json, with_bound: bool) -> Result<Metric, String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    keys_exactly(v, keys, "a metric")?;
    let name = string(v.get("name"), "metric name")?;
    let unit = string(v.get("unit"), "metric unit")?;
    let better = string(v.get("better"), "metric better")?;
    if !valid_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    if !valid_unit(&unit) {
        return Err(format!("bad unit {unit:?} of {name}"));
    }
    if better != "lower" && better != "higher" {
        return Err(format!("{name}: better must be \"lower\" or \"higher\""));
    }
    let bound = match v.get("bound") {
        None => None,
        Some(Json::Num(b)) if *b > 0.0 && *b <= 0.25 => Some(*b),
        Some(_) => return Err(format!("{name}: bound must be a number in (0, 0.25]")),
    };
    Ok(Metric {
        name,
        unit,
        better,
        bound,
    })
}

fn unique<'a>(names: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for n in names {
        if !seen.insert(n) {
            return Err(format!("name {n:?} is used twice"));
        }
    }
    Ok(())
}

impl Spec {
    /// Parses and validates a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        keys_exactly(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            array(doc.get(key), key)?
                .iter()
                .map(|s| string(Some(s), key))
                .collect()
        };
        let command = strings("command")?;
        let paths = strings("paths")?;
        let run_seconds = match doc.get("run_seconds") {
            Some(Json::Num(s)) if s.fract() == 0.0 && (1.0..=60.0).contains(s) => *s as u64,
            _ => return Err("run_seconds must be a whole number from 1 to 60".into()),
        };
        let workloads = array(doc.get("workloads"), "workloads")?
            .iter()
            .map(|w| {
                keys_exactly(w, &["name", "why"], "a workload")?;
                let name = string(w.get("name"), "workload name")?;
                let why = string(w.get("why"), "workload why")?;
                if !valid_name(&name) {
                    return Err(format!("bad workload name {name:?}"));
                }
                if why.is_empty() || why.len() > 200 || why.contains('\n') {
                    return Err(format!(
                        "{name}: why must be one line of at most 200 characters"
                    ));
                }
                Ok(Workload { name, why })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = array(doc.get("end_to_end"), "end_to_end")?
            .iter()
            .map(|m| metric(m, true))
            .collect::<Result<Vec<_>, String>>()?;
        let per_layer = array(doc.get("per_layer"), "per_layer")?
            .iter()
            .map(|m| metric(m, false))
            .collect::<Result<Vec<_>, String>>()?;
        if !(2..=8).contains(&workloads.len())
            || !(1..=16).contains(&end_to_end.len())
            || !(1..=128).contains(&per_layer.len())
        {
            return Err("2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics".into());
        }
        unique(workloads.iter().map(|w| w.name.as_str()))?;
        unique(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()))?;
        Ok(Spec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The embedded definition.
    ///
    /// # Panics
    /// Panics if the embedded `BENCHMARK.json` is invalid (a test pins
    /// that it is not).
    #[cfg(test)]
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid")
    }

    /// Serializes back to the `BENCHMARK.json` schema.
    #[cfg(test)]
    pub fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::str(s.as_str())).collect());
        let metrics = |v: &[Metric]| {
            Json::Arr(
                v.iter()
                    .map(|m| {
                        let mut pairs = vec![
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit.as_str())),
                            ("better", Json::str(m.better.as_str())),
                        ];
                        if let Some(b) = m.bound {
                            pairs.push(("bound", Json::Num(b)));
                        }
                        Json::obj(pairs)
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("command", strings(&self.command)),
            ("paths", strings(&self.paths)),
            ("run_seconds", Json::Num(self.run_seconds as f64)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::str(w.name.as_str())),
                                ("why", Json::str(w.why.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_definition_round_trips() {
        let spec = Spec::embedded();
        let text = spec.to_json().write();
        assert_eq!(Spec::parse(&text).unwrap(), spec);
        // And the document itself, not just the parsed model.
        assert_eq!(
            Json::parse(&text).unwrap(),
            Json::parse(BENCHMARK_JSON).unwrap()
        );
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "tick_p50_ms",
            "ilqr.lq_ms",
            "fd.dfd_flop_per_ns",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "flop/ns", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn rejects_contract_violations() {
        let good = Spec::embedded().to_json().write();
        assert!(Spec::parse(&good).is_ok());
        for (from, to) in [
            ("\"run_seconds\":", "\"run_secs\":"),
            ("\"bound\":0.25", "\"bound\":0.5"),
            ("\"better\":\"lower\"", "\"better\":\"less\""),
            ("\"unit\":\"ms\"", "\"unit\":\"m s\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "pattern {from} not found");
            assert!(Spec::parse(&bad).is_err(), "accepted {to}");
        }
    }
}
