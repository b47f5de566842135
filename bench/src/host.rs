//! What the benchmark needs from the machine besides its clocks
//! (`meter.rs`): the host block every run prints, the peak memory reading,
//! and the scratch directory.

use crate::estimators::parse_proc_status_hwm_mb;
use crate::spec::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_proc_status_hwm_mb(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the host block: a number means nothing without the machine, the
/// load it was under, the compiler, the commit, the seed and the sizes.
pub fn print_host_block(workload: &Workload, seed: u64, seconds: f64, trace: bool, sizes: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    println!("# host");
    println!("nproc            {nproc}");
    println!("loadavg at start {}", loadavg.trim());
    println!("rustc            {}", first_line_of("rustc", &["--version"]));
    // The driver's checkout is not a git repository; "unknown" is the
    // honest answer there.
    println!("commit           {}", first_line_of("git", &["rev-parse", "--short", "HEAD"]));
    println!("workload         {} ({})", workload.name, workload.why);
    println!("seed             {seed}");
    println!("seconds          {seconds}");
    println!("trace            {}", u8::from(trace));
    println!("sizes            {sizes}");
}

/// One scratch directory per pid and workload, inside the checkout (the
/// benchmark may write nowhere else), removed when dropped — on success,
/// on a returned error, and on a panic that unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".bench_scratch")
            .join(format!("{}-{workload}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
        // Best effort: drop the parent too when no other run is using it.
        if let Some(parent) = self.dir.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
