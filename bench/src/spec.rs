//! `BENCHMARK.json` is the one declaration of what the benchmark measures:
//! workloads, metric names, units, directions and regression bounds. The
//! program reads it at run time instead of repeating the tables in code,
//! so the file and the output cannot drift apart.

use crate::estimators::Tally;
use serde::Deserialize;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Deserialize)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    #[serde(default)]
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Loads `BENCHMARK.json` from the current directory (the root of the
    /// checkout, where the driver runs the command).
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    /// The metrics a run prints: end-to-end ones untraced, per-layer ones
    /// traced.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that are not per-operation (stage completion,
    /// accuracy floor, lineage) and failed, in words.
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Failed operations over attempted ones (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        Tally { attempted: self.attempted, failed: self.failed }.ratio()
    }

    /// The serving workloads' `quality`: the share of requests that were
    /// answered, answered without error, and (for the one in sixteen that
    /// is checked) answered exactly as the in-process reference does.
    pub fn quality(&self) -> f64 {
        1.0 - self.fail_ratio()
    }

    pub fn note(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Lines up a report against the declared metrics: every end-to-end
/// metric must have been measured (an absent one is an error); a
/// per-layer metric whose layer does not run on this workload reads 0.
/// Returns `(name, value, unit, measured)` rows in declaration order.
pub fn resolve<'a>(
    spec: &'a Spec,
    report: &Report,
    trace: bool,
) -> Result<Vec<(&'a str, f64, &'a str, bool)>, String> {
    for name in report.values.keys() {
        if !spec.metrics(trace).iter().any(|m| m.name == *name) {
            return Err(format!("measured metric '{name}' is not declared in BENCHMARK.json"));
        }
    }
    spec.metrics(trace)
        .iter()
        .map(|m| match report.values.get(m.name.as_str()) {
            Some(v) if v.is_finite() => Ok((m.name.as_str(), *v, m.unit.as_str(), true)),
            Some(v) => Err(format!("metric '{}' is not a finite number: {v}", m.name)),
            None if trace => Ok((m.name.as_str(), 0.0, m.unit.as_str(), false)),
            None => Err(format!("end-to-end metric '{}' was not measured", m.name)),
        })
        .collect()
}

/// The result line the driver parses: one JSON object, last on stdout.
pub fn result_line(report: &Report, rows: &[(&str, f64, &str, bool)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        serde_json::from_str(
            r#"{"command": ["x"], "paths": ["bench"], "run_seconds": 3,
                "workloads": [{"name": "a", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
                "per_layer": [{"name": "l.one_us", "unit": "us", "better": "lower"},
                              {"name": "l.two_us", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let spec = spec();
        let mut report = Report { attempted: 7, ..Default::default() };
        report.set("setup_s", 0.8127);
        let rows = resolve(&spec, &report, false).unwrap();
        assert_eq!(
            result_line(&report, &rows),
            r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn traced_runs_zero_fill_layers_that_did_not_run() {
        let spec = spec();
        let mut report = Report::default();
        report.set("l.two_us", 4.5);
        let rows = resolve(&spec, &report, true).unwrap();
        assert_eq!(rows, vec![("l.one_us", 0.0, "us", false), ("l.two_us", 4.5, "us", true)]);
    }

    #[test]
    fn missing_end_to_end_and_undeclared_metrics_are_errors() {
        let spec = spec();
        assert!(resolve(&spec, &Report::default(), false).unwrap_err().contains("setup_s"));
        let mut report = Report::default();
        report.set("setup_s", 1.0);
        report.set("surprise", 1.0);
        assert!(resolve(&spec, &report, false).unwrap_err().contains("surprise"));
        let mut report = Report::default();
        report.set("setup_s", f64::NAN);
        assert!(resolve(&spec, &report, false).unwrap_err().contains("finite"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut report = Report::default();
        assert!(report.correct());
        report.violations.push("accuracy below the floor".into());
        assert!(!report.correct());
    }
}
