//! Timing on a box whose CPUs are not always its own.
//!
//! The benchmark runs in a 2-vCPU virtual machine on a shared host. The
//! hypervisor takes the vCPUs away for a fifth of the time on average and
//! for anything between 1% and 45% of any given second (`steal` in
//! `/proc/stat`). Raw wall-clock throughput swings by a factor of two
//! between identical seconds, and no amount of in-run averaging removes a
//! swing that lasts longer than the run.
//!
//! Two measured quantities tame it. Every timed unit (a time slice of a
//! load phase, one build, one retrain cycle) is read on three clocks:
//! wall time, the process's CPU time, and the time stolen from the
//! machine. Then:
//!
//! - **Granted time.** Of the CPU time the unit wanted (`cpu + steal`),
//!   the share it got is `cpu / (cpu + steal)`. Its wall time scaled by
//!   that share is the time it would have taken on CPUs of its own.
//!   Durations and rates are reported over granted time.
//! - **The quieter half.** Contention costs more than the stolen time
//!   itself (caches are refilled, the closed loop stalls on the thread
//!   that lost its CPU), so a run reports the median over the half of its
//!   units with the lowest stolen share.
//!
//! On the seed this brings the run-to-run spread of serving throughput
//! from 41% to 5% (README.md has the study). On a machine that steals
//! nothing both corrections are the identity.

use crate::estimators::{median, parse_proc_stat_cpu_ms, parse_system_steal_ms};
use std::time::Instant;

/// The three clocks at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Clocks {
    pub at: Instant,
    cpu_ms: f64,
    steal_ms: f64,
}

impl Clocks {
    pub fn read() -> Self {
        let proc_self = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let proc_stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        Self {
            at: Instant::now(),
            cpu_ms: parse_proc_stat_cpu_ms(&proc_self)
                .expect("/proc/self/stat is readable and well formed on Linux"),
            // A kernel that reports no steal column steals nothing we can see.
            steal_ms: parse_system_steal_ms(&proc_stat).unwrap_or(0.0),
        }
    }

    /// What the three clocks advanced by from `self` to `later`.
    pub fn until(&self, later: &Clocks) -> Unit {
        Unit {
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            cpu_s: (later.cpu_ms - self.cpu_ms) / 1000.0,
            steal_s: (later.steal_ms - self.steal_ms) / 1000.0,
        }
    }

    pub fn elapsed(&self) -> Unit {
        self.until(&Clocks::read())
    }
}

/// One timed unit of work on the three clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub wall_s: f64,
    /// CPU time of this process (all threads).
    pub cpu_s: f64,
    /// Time the hypervisor ran something else on this machine's CPUs.
    pub steal_s: f64,
}

impl Unit {
    /// Share of the CPU time the unit wanted that was stolen.
    pub fn stolen_share(&self) -> f64 {
        let wanted = self.cpu_s + self.steal_s;
        if wanted > 0.0 {
            self.steal_s / wanted
        } else {
            0.0
        }
    }

    /// Wall time scaled by the share of wanted CPU time that was granted.
    pub fn granted_s(&self) -> f64 {
        self.wall_s * (1.0 - self.stolen_share())
    }
}

/// Median of `value` over the quieter half (lowest stolen share, rounded
/// up) of the units.
pub fn quiet_median<T>(units: &[(Unit, T)], value: impl Fn(&Unit, &T) -> f64) -> f64 {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| units[a].0.stolen_share().total_cmp(&units[b].0.stolen_share()));
    let quiet: Vec<f64> =
        order[..units.len().div_ceil(2)].iter().map(|&i| value(&units[i].0, &units[i].1)).collect();
    median(&quiet)
}

/// Whether a run that started at `started` and has completed rounds of
/// `round_s` seconds each should start another inside its `seconds`
/// budget: always a first one, then only while at least half of a typical
/// round still fits.
pub fn room_for_another(started: Instant, round_s: &[f64], seconds: f64) -> bool {
    round_s.is_empty() || started.elapsed().as_secs_f64() + 0.5 * median(round_s) < seconds
}

/// One line for the human-readable output: how much was stolen from each
/// unit, so a reader can see what the corrections had to work with.
pub fn describe<T>(what: &str, units: &[(Unit, T)]) -> String {
    let shares: Vec<String> =
        units.iter().map(|(u, _)| format!("{:.0}%", u.stolen_share() * 100.0)).collect();
    let wall: f64 = units.iter().map(|(u, _)| u.wall_s).sum();
    format!(
        "{what}: {} units over {wall:.1} s wall, stolen share {}",
        units.len(),
        shares.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(wall_s: f64, cpu_s: f64, steal_s: f64) -> Unit {
        Unit { wall_s, cpu_s, steal_s }
    }

    #[test]
    fn granted_time_scales_wall_by_the_share_of_cpu_received() {
        // One busy thread: every stolen second is a second of wall lost.
        assert_eq!(unit(10.0, 8.0, 2.0).granted_s(), 8.0);
        // Two busy threads on two CPUs: stolen seconds are shared.
        assert_eq!(unit(10.0, 16.0, 4.0).granted_s(), 8.0);
        // Nothing stolen, or nothing run: wall time as it is.
        assert_eq!(unit(3.0, 5.0, 0.0).granted_s(), 3.0);
        assert_eq!(unit(3.0, 0.0, 0.0).granted_s(), 3.0);
    }

    #[test]
    fn quiet_median_is_taken_over_the_quieter_half_of_the_slices() {
        // Five slices; the three quietest (stolen 0%, 10%, 20%) carry the
        // values 100, 90, 95 -> median 95. The noisy ones do not count.
        let slices = [
            (unit(1.0, 1.0, 1.0), 10.0),   // 50% stolen
            (unit(1.0, 1.0, 0.0), 100.0),  // 0%
            (unit(1.0, 0.8, 0.2), 95.0),   // 20%
            (unit(1.0, 0.9, 0.1), 90.0),   // 10%
            (unit(1.0, 0.6, 0.4), 1000.0), // 40%
        ];
        assert_eq!(quiet_median(&slices, |_, v| *v), 95.0);
        // The value may use the unit: records per granted second.
        let rate = quiet_median(&slices[..2], |u, v| *v / u.granted_s());
        assert_eq!(rate, 100.0);
        assert_eq!(quiet_median(&[] as &[(Unit, f64)], |_, v| *v), 0.0);
    }
}
