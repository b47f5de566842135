//! Modes that run more than one workload: `--workload all`, `repeat` and
//! `check`. Each workload runs in a fresh child process of this same
//! executable, so `peak_rss_mb` is per workload and one workload's heap
//! never warms another's.

use crate::estimators::quartiles;
use crate::spec::Spec;
use crate::{Options, Res};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What a child run printed: its measured-metric table and result line.
struct ChildRun {
    succeeded: bool,
    /// Names in the human-readable metric table (the metrics the workload
    /// measured itself, as opposed to zero-filled ones).
    measured: Vec<String>,
    result: BTreeMap<String, Value>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("own executable path"));
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    command
}

fn run_captured(workload: &str, seed: u64, seconds: f64, trace: bool) -> Res<ChildRun> {
    let output = child(workload, seed, seconds, trace).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8(output.stdout)?;
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    let Value::Object(result) = serde_json::from_str_value(last)
        .map_err(|e| format!("{workload}: last line is not JSON ({e}): {last}"))?
    else {
        return Err(format!("{workload}: result line is not an object").into());
    };
    let measured = stdout
        .lines()
        .skip_while(|l| !l.ends_with("metrics") || !l.starts_with('#'))
        .skip(1)
        .take_while(|l| !l.starts_with("fail_ratio"))
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    Ok(ChildRun { succeeded: output.status.success(), measured, result })
}

fn metric_values(run: &ChildRun) -> BTreeMap<String, f64> {
    let Some(Value::Object(metrics)) = run.result.get("metrics") else { return BTreeMap::new() };
    metrics
        .iter()
        .filter_map(|(name, m)| match m {
            Value::Object(m) => Some((name.clone(), m.get("value")?.as_f64()?)),
            _ => None,
        })
        .collect()
}

fn seconds_of(spec: &Spec, options: &Options) -> f64 {
    options.seconds.unwrap_or(spec.run_seconds as f64)
}

/// `--workload all`: the four workloads one after another, output passed
/// through.
pub fn run_all(spec: &Spec, options: &Options) -> Res<bool> {
    let mut all_ok = true;
    for workload in &spec.workloads {
        let status = child(&workload.name, options.seed, seconds_of(spec, options), options.trace)
            .status()?;
        all_ok &= status.success();
        println!();
    }
    Ok(all_ok)
}

/// `repeat -n K`: the full untraced set K times, each repetition on its
/// own seed as the driver does it, then per workload and metric the
/// median, the quartiles and their distance as a share of the median,
/// against the metric's bound. Fails when a spread exceeds its bound.
/// `setup_s` is listed but does not gate, as in the driver.
pub fn repeat(spec: &Spec, options: &Options) -> Res<bool> {
    if options.repeats < 2 {
        return Err("repeat needs -n of at least 2 to have quartiles".into());
    }
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for rep in 0..options.repeats {
        for workload in &spec.workloads {
            let seed = options.seed + rep as u64;
            eprintln!("repeat {}/{}: {} seed {seed}", rep + 1, options.repeats, workload.name);
            let run = run_captured(&workload.name, seed, seconds_of(spec, options), false)?;
            if !run.succeeded {
                eprintln!("  run failed: {:?}", run.result);
                all_ok = false;
            }
            for (metric, value) in metric_values(&run) {
                samples.entry((workload.name.clone(), metric)).or_default().push(value);
            }
        }
    }
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.name.clone(), metric.name.clone());
            let values = samples.get(&key).map_or(&[][..], Vec::as_slice);
            let Some((q1, q2, q3)) = quartiles(values) else {
                println!("{:<14} {:<20} missing", workload.name, metric.name);
                all_ok = false;
                continue;
            };
            let spread = (q3 - q1) / q2.abs();
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = match (spread <= bound, metric.name == "setup_s") {
                (true, _) if spread * 3.0 <= bound => "steady",
                (true, _) => "within bound",
                (false, true) => "over (not gated)",
                (false, false) => {
                    all_ok = false;
                    "OVER BOUND"
                }
            };
            println!(
                "{:<14} {:<20} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.2}  {verdict}",
                workload.name, metric.name
            );
        }
    }
    Ok(all_ok)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `check`: validates `BENCHMARK.json` against what the workloads print.
pub fn check(spec: &Spec, options: &Options) -> Res<bool> {
    let mut problems: Vec<String> = Vec::new();
    let names = spec
        .workloads
        .iter()
        .map(|w| &w.name)
        .chain(spec.end_to_end.iter().map(|m| &m.name))
        .chain(spec.per_layer.iter().map(|m| &m.name));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !well_formed(name) {
            problems.push(format!("name '{name}' does not match [A-Za-z0-9_.-]{{1,64}}"));
        }
        if !seen.insert(name) {
            problems.push(format!("name '{name}' is used twice"));
        }
    }
    if spec.end_to_end.len() > 16 {
        problems.push(format!("{} end-to-end metrics (at most 16)", spec.end_to_end.len()));
    }
    if spec.per_layer.len() > 128 {
        problems.push(format!("{} per-layer metrics (at most 128)", spec.per_layer.len()));
    }
    if !spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        problems.push("no end-to-end metric setup_s in s, lower is better".into());
    }

    let mut layers_measured = std::collections::BTreeSet::new();
    for workload in &spec.workloads {
        for trace in [false, true] {
            eprintln!("check: {} trace {}", workload.name, u8::from(trace));
            let run = run_captured(&workload.name, options.seed, seconds_of(spec, options), trace)?;
            let at = format!("{} --trace {}", workload.name, u8::from(trace));
            if !run.succeeded {
                problems.push(format!("{at}: exited nonzero"));
            }
            let keys: Vec<&str> = run.result.keys().map(String::as_str).collect();
            if keys != ["attempted", "correct", "failed", "metrics"] {
                problems.push(format!("{at}: result line has keys {keys:?}"));
            }
            if run.result.get("correct") != Some(&Value::Bool(true)) {
                problems.push(format!("{at}: not correct"));
            }
            if run.result.get("failed").and_then(Value::as_i64) != Some(0) {
                problems.push(format!("{at}: operations failed"));
            }
            let values = metric_values(&run);
            let declared = spec.metrics(trace);
            if values.len() != declared.len() {
                problems.push(format!(
                    "{at}: {} metrics printed, {} declared",
                    values.len(),
                    declared.len()
                ));
            }
            for metric in declared {
                match values.get(&metric.name) {
                    None => problems.push(format!("{at}: metric '{}' not emitted", metric.name)),
                    Some(v) if !trace && *v == 0.0 => {
                        problems.push(format!("{at}: end-to-end metric '{}' is 0", metric.name));
                    }
                    Some(_) => {}
                }
            }
            if trace {
                layers_measured.extend(run.measured);
            }
        }
    }
    for metric in &spec.per_layer {
        if !layers_measured.contains(&metric.name) {
            problems.push(format!("per-layer metric '{}' is measured by no workload", metric.name));
        }
    }
    for problem in &problems {
        println!("PROBLEM: {problem}");
    }
    println!(
        "check: {} workloads, {} end-to-end and {} per-layer metrics, {} problems",
        spec.workloads.len(),
        spec.end_to_end.len(),
        spec.per_layer.len(),
        problems.len()
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_held_to_the_contract_alphabet() {
        assert!(well_formed("serving.net.wire_decode_us"));
        assert!(well_formed("p99-ms_2"));
        assert!(!well_formed(""));
        assert!(!well_formed("has space"));
        assert!(!well_formed("slash/es"));
        assert!(!well_formed(&"x".repeat(65)));
    }
}
