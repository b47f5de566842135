//! The benchmark's estimators: percentiles that refuse to report a tail
//! the sample cannot support, failure accounting, quartiles as the driver
//! computes them, and the `/proc` parsers behind the CPU, steal and memory
//! readings. (The median over the quieter time slices is in `meter.rs`.)

/// Median of a sample (mean of the middle pair for even sizes); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of a sample, or `None` when fewer
/// than ten samples lie beyond it: a tail read off a handful of points is
/// noise, and the choosing-metrics guide asks that it not be reported.
/// The median (`p` = 50) is always supported for a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (((p / 100.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if p > 50.0 && sorted.len() - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Operations attempted against operations that failed, were refused,
/// were shed, or answered wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` false counts it as failed too.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a correctness check on an operation already attempted: a
    /// wrong answer fails the operation without attempting another.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI this repo builds for; reading it properly
/// needs `sysconf`, which needs a libc binding the vendor tree lacks.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in milliseconds from the
/// text of `/proc/self/stat`. The second field is the command name in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_proc_stat_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command name come state (field 3) ... utime (14), stime (15).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// Time stolen from this machine's CPUs by the hypervisor since boot, in
/// milliseconds, from the text of `/proc/stat`: the eighth figure of the
/// aggregate `cpu` line. `None` when the kernel reports no steal column.
pub fn parse_system_steal_ms(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = line.split_ascii_whitespace().nth(8)?.parse().ok()?;
    Some(steal * 1000.0 / USER_HZ)
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (the `VmHWM:` line, reported in kB).
pub fn parse_proc_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: ten lie beyond p99, so it is the highest reportable.
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand, 99.9), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), None);
        // The median is always supported, even on tiny samples.
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 50.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tally_counts_wrong_answers_against_the_same_attempt() {
        let mut tally = Tally::default();
        assert_eq!(tally.ratio(), 0.0);
        tally.note(true);
        tally.note(true);
        tally.note(false); // refused
        tally.check(false); // an answered request was wrong
        tally.check(true);
        assert_eq!(tally, Tally { attempted: 3, failed: 2 });
        let mut total = Tally { attempted: 1, failed: 0 };
        total.merge(tally);
        assert_eq!(total.ratio(), 0.5);
    }

    #[test]
    fn proc_stat_parser_survives_hostile_command_names() {
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    150 25 0 0 20 0 3 0 100 1000000 200 18446744073709551615 0 0 0";
        // utime 150 + stime 25 ticks at 100 Hz = 1750 ms.
        assert_eq!(parse_proc_stat_cpu_ms(stat), Some(1750.0));
        assert_eq!(parse_proc_stat_cpu_ms("no parens here"), None);
        assert_eq!(parse_proc_stat_cpu_ms("1 (x) R 1 2"), None);
    }

    #[test]
    fn system_steal_is_the_eighth_figure_of_the_cpu_line() {
        let stat = "cpu  1611087 0 273376 1523805 21165 0 16105 246472 0 0\n\
                    cpu0 792085 0 142435 768487 12963 0 7165 123545 0 0\n";
        assert_eq!(parse_system_steal_ms(stat), Some(2_464_720.0));
        // Kernels before 2.6.11 stop at softirq.
        assert_eq!(parse_system_steal_ms("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_system_steal_ms("intr 5\n"), None);
    }

    #[test]
    fn proc_status_parser_reads_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_proc_status_hwm_mb(status), Some(200.0));
        assert_eq!(parse_proc_status_hwm_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 4.0, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
