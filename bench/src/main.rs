//! The repo benchmark. See `README.md` beside `Cargo.toml` for what each
//! workload and metric means; `BENCHMARK.json` at the checkout root
//! declares them.
//!
//! ```text
//! bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! bench repeat -n K [--seed N] [--seconds S]
//! bench check [--seed N] [--seconds S]
//! ```

mod build_cold;
mod estimators;
mod fixture;
mod host;
mod live_retrain;
mod loadgen;
mod meter;
mod serve_offline;
mod serve_socket;
mod serving;
mod spec;
mod suite;

use spec::{Report, Spec};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Command-line options shared by every mode.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    /// `None` takes `run_seconds` from `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub repeats: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options { workload: None, seed: 1, seconds: None, trace: false, repeats: 5 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                options.seconds = Some(s);
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "-n" => options.repeats = value()?.parse().map_err(|e| format!("-n: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// The four workloads: name, size constants for the host block, entry point.
type Entry = fn(&Path, u64, f64, bool) -> Res<Report>;
fn workload_entry(name: &str) -> Option<(String, Entry)> {
    match name {
        "build_cold" => Some((build_cold::sizes(), build_cold::run)),
        "serve_socket" => Some((serve_socket::sizes(), serve_socket::run)),
        "serve_offline" => Some((serve_offline::sizes(), serve_offline::run)),
        "live_retrain" => Some((live_retrain::sizes(), live_retrain::run)),
        _ => None,
    }
}

/// Runs one workload in this process and prints its metrics and, last,
/// the result line.
fn run_workload(spec: &Spec, name: &str, options: &Options) -> Res<bool> {
    let (workload, (sizes, entry)) = spec
        .workloads
        .iter()
        .find(|w| w.name == name)
        .zip(workload_entry(name))
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds = options.seconds.unwrap_or(spec.run_seconds as f64);
    host::print_host_block(workload, options.seed, seconds, options.trace, &sizes);
    // The scratch guard removes the directory on every way out of this
    // function, including `?` and unwinding.
    let scratch = host::Scratch::create(name)?;
    let report = entry(scratch.path(), options.seed, seconds, options.trace)?;
    drop(scratch);

    let rows = spec::resolve(spec, &report, options.trace)?;
    println!("# {} metrics", if options.trace { "per-layer" } else { "end-to-end" });
    for (metric, value, unit, measured) in &rows {
        if *measured {
            println!("{metric:<44} {value:>16.4} {unit}");
        }
    }
    println!(
        "{:<44} {:>16.4} ratio ({} of {})",
        "fail_ratio",
        report.fail_ratio(),
        report.failed,
        report.attempted
    );
    for violation in &report.violations {
        println!("CHECK FAILED: {violation}");
    }
    println!("{}", spec::result_line(&report, &rows));
    Ok(report.correct())
}

fn main_inner() -> Res<bool> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("repeat") => ("repeat", &args[1..]),
        Some("check") => ("check", &args[1..]),
        _ => ("run", &args[..]),
    };
    let options = parse_options(rest)?;
    let spec = Spec::load()?;
    match (mode, options.workload.as_deref()) {
        ("repeat", _) => suite::repeat(&spec, &options),
        ("check", _) => suite::check(&spec, &options),
        (_, Some("all")) => suite::run_all(&spec, &options),
        (_, Some(name)) => run_workload(&spec, name, &options),
        (_, None) => {
            Err("usage: bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
                          | bench repeat -n K | bench check"
                .into())
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
