//! The closed loop: sustained alerts → ranked retrain worklist.
//!
//! Figure 1's feedback edge, automated: when high-severity alerts stay
//! active for enough consecutive windows, the [`Watchdog`] converts the
//! flagged slices into the same [`SliceDiagnosis`] worklist every other
//! monitoring surface produces — via the shared
//! [`diagnose_reports`](overton_monitor::diagnose_reports) kernel — so
//! the caller can hand the worst slice straight to
//! `Project::retrain_and_compare` (with the task picked by
//! `overton::Run::weakest_task_on_slice`) and the loop runs end-to-end
//! without a human. Determinism matters
//! here: the kernel's tie-breaking makes watchdog-triggered retrains
//! reproducible.

use crate::alert::Severity;
use crate::monitor::Monitor;
use overton_monitor::{diagnose_reports, Metrics, QualityReport, SliceDiagnosis, SLICE_PREFIX};
use overton_store::{LiveStore, Record, StoreError, TAG_DEV, TAG_TEST, TAG_TRAIN};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// The pseudo-task name under which the watchdog reports windowed serving
/// quality (windowed gold accuracy is task-agnostic; the caller maps the
/// slice back onto real tasks when retraining).
pub const WATCHDOG_TASK: &str = "serving";

/// Lineage tag stamped on every record the watchdog captures into a live
/// store, so captured traffic stays queryable (and excludable) downstream
/// exactly like synthetic cold-start data.
pub const TAG_CAPTURED: &str = "capture:watchdog";

/// When the watchdog escalates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WatchdogConfig {
    /// Minimum severity of alerts the watchdog acts on.
    pub min_severity: Severity,
    /// Consecutive breaching windows before a slice is escalated
    /// (transient blips never trigger a retrain).
    pub sustain_windows: u32,
    /// Minimum scored examples behind a diagnosis (passed to the
    /// diagnosis kernel's noise guard).
    pub min_count: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self { min_severity: Severity::Warning, sustain_windows: 3, min_count: 10 }
    }
}

/// Converts a monitor's sustained alerts into the ranked slice worklist.
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    config: WatchdogConfig,
}

impl Watchdog {
    /// A watchdog with the given escalation policy.
    pub fn new(config: WatchdogConfig) -> Self {
        Self { config }
    }

    /// The escalation policy.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Slices whose alerts have been active for at least
    /// `sustain_windows` windows at `min_severity` or above (sorted, so
    /// downstream processing is deterministic).
    pub fn flagged_slices(&self, monitor: &Monitor) -> Vec<String> {
        let flagged: BTreeSet<String> = monitor
            .active_alerts()
            .into_iter()
            .filter(|a| {
                a.rule.severity >= self.config.min_severity
                    && a.windows_active >= self.config.sustain_windows
            })
            .filter_map(|a| a.rule.slice)
            .collect();
        flagged.into_iter().collect()
    }

    /// The retrain worklist: flagged slices scored with their windowed
    /// traffic volume and gold accuracy over the sustained episode (the
    /// last `sustain_windows` closed windows), ranked by the shared
    /// diagnosis kernel. A flagged slice whose traffic carried no gold
    /// scores accuracy 0 — unknown quality on a drifted slice ranks
    /// worst, which is the safe ordering for a retrain queue. Empty when
    /// nothing is sustained — the loop stays closed but quiet.
    pub fn worklist(&self, monitor: &Monitor) -> Vec<SliceDiagnosis> {
        let flagged = self.flagged_slices(monitor);
        if flagged.is_empty() {
            return Vec::new();
        }
        let recent: Vec<_> = {
            let all: Vec<_> = monitor.stats().windows().collect();
            let keep = (self.config.sustain_windows as usize).min(all.len());
            all[all.len() - keep..].to_vec()
        };
        let mut report = QualityReport::new(WATCHDOG_TASK);
        for slice in &flagged {
            let Some(i) = monitor.stats().slice_names().iter().position(|n| n == slice) else {
                continue;
            };
            let mut count = 0u64;
            let mut gold_scored = 0u64;
            let mut gold_correct = 0u64;
            for window in &recent {
                let group = &window.slices[i];
                count += group.count;
                gold_scored += group.gold_scored;
                gold_correct += group.gold_correct_millionths;
            }
            let accuracy =
                if gold_scored == 0 { 0.0 } else { gold_correct as f64 / 1e6 / gold_scored as f64 };
            report.push(
                &format!("{SLICE_PREFIX}{slice}"),
                Metrics { count: count as usize, accuracy, macro_f1: accuracy, micro_f1: accuracy },
            );
        }
        let reports = BTreeMap::from([(WATCHDOG_TASK.to_string(), report)]);
        diagnose_reports(&reports, self.config.min_count)
    }

    /// The capture half of the closed loop: appends the gold-labeled
    /// records of `records` that belong to a currently escalated slice
    /// ([`flagged_slices`](Watchdog::flagged_slices)) into `live`, where
    /// the next incremental retrain picks them up as a sealed delta.
    ///
    /// Captured records are re-tagged as training data: `dev`/`test`
    /// split tags are stripped (live traffic must never leak into the
    /// held-out splits), `train` is ensured, and [`TAG_CAPTURED`] records
    /// the lineage. Records without gold supervision are skipped — the
    /// retrain needs labels, not more unlabeled drift. Returns how many
    /// records were appended; the rows become visible to snapshots at
    /// the next seal ([`LiveStore::flush`] or the byte/row target).
    pub fn capture_into(
        &self,
        monitor: &Monitor,
        records: &[Record],
        live: &LiveStore,
    ) -> Result<usize, StoreError> {
        let flagged = self.flagged_slices(monitor);
        if flagged.is_empty() {
            return Ok(0);
        }
        let mut captured = 0;
        for record in records {
            if !record.slices().any(|s| flagged.iter().any(|f| f == s)) {
                continue;
            }
            if !record.tasks.keys().any(|task| record.gold(task).is_some()) {
                continue;
            }
            let mut capture = record.clone();
            capture.tags.remove(TAG_DEV);
            capture.tags.remove(TAG_TEST);
            capture.tags.insert(TAG_TRAIN.to_string());
            capture.tags.insert(TAG_CAPTURED.to_string());
            live.append(capture)?;
            captured += 1;
        }
        Ok(captured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertRule, Signal};
    use crate::monitor::ObsConfig;
    use overton_serving::{confidence_bin, ServeSample};

    fn sample(slice_mask: u64, gold: f64) -> ServeSample {
        ServeSample {
            ok: true,
            confidence_bin: confidence_bin(0.8),
            confidence_millionths: 800_000,
            latency_micros: 40,
            slice_mask,
            gold_accuracy_millionths: Some((gold * 1e6).round() as u64),
        }
    }

    fn low_accuracy_rule(slice: &str) -> AlertRule {
        AlertRule {
            slice: Some(slice.into()),
            signal: Signal::GoldAccuracy,
            threshold: 0.5,
            min_window_count: 1,
            severity: Severity::Critical,
        }
    }

    #[test]
    fn sustained_alerts_become_a_ranked_worklist() {
        let config = ObsConfig {
            window_len: 10,
            history: 16,
            rules: vec![low_accuracy_rule("bad"), low_accuracy_rule("fine")],
            ..Default::default()
        };
        let mut monitor = Monitor::new(vec!["bad".into(), "fine".into()], None, config);
        // 5 windows: "bad" slice always wrong, "fine" slice always right.
        for i in 0..50u64 {
            let (mask, gold) = if i % 2 == 0 { (0b01, 0.0) } else { (0b10, 1.0) };
            monitor.ingest(&sample(mask, gold));
        }
        let watchdog = Watchdog::new(WatchdogConfig {
            min_severity: Severity::Warning,
            sustain_windows: 3,
            min_count: 5,
        });
        assert_eq!(watchdog.flagged_slices(&monitor), vec!["bad".to_string()]);
        let worklist = watchdog.worklist(&monitor);
        assert_eq!(worklist.len(), 1);
        assert_eq!(worklist[0].slice, "bad");
        assert_eq!(worklist[0].task, WATCHDOG_TASK);
        assert!(worklist[0].metrics.accuracy < 0.5);
        // 3 sustained windows × 5 "bad" samples each.
        assert_eq!(worklist[0].metrics.count, 15);
    }

    #[test]
    fn transient_blips_and_low_severity_do_not_escalate() {
        let config = ObsConfig {
            window_len: 10,
            history: 16,
            rules: vec![low_accuracy_rule("bad")],
            ..Default::default()
        };
        let mut monitor = Monitor::new(vec!["bad".into()], None, config);
        // One bad window only.
        for _ in 0..10 {
            monitor.ingest(&sample(1, 0.0));
        }
        let watchdog = Watchdog::new(WatchdogConfig { sustain_windows: 3, ..Default::default() });
        assert!(watchdog.flagged_slices(&monitor).is_empty(), "one window is a blip");
        assert!(watchdog.worklist(&monitor).is_empty());
        // Severity floor: a Critical-only watchdog ignores Warning rules.
        let mut warn_rule = low_accuracy_rule("bad");
        warn_rule.severity = Severity::Warning;
        let config =
            ObsConfig { window_len: 10, history: 16, rules: vec![warn_rule], ..Default::default() };
        let mut monitor = Monitor::new(vec!["bad".into()], None, config);
        for _ in 0..50 {
            monitor.ingest(&sample(1, 0.0));
        }
        let strict = Watchdog::new(WatchdogConfig {
            min_severity: Severity::Critical,
            sustain_windows: 3,
            min_count: 5,
        });
        assert!(strict.flagged_slices(&monitor).is_empty());
    }

    #[test]
    fn capture_appends_gold_rows_from_flagged_slices_only() {
        use overton_nlp::{generate_workload, WorkloadConfig};

        const SLICE: &str = "complex-disambiguation";
        let config = ObsConfig {
            window_len: 10,
            history: 16,
            rules: vec![low_accuracy_rule(SLICE)],
            ..Default::default()
        };
        let mut monitor = Monitor::new(vec![SLICE.into()], None, config);
        for _ in 0..50 {
            monitor.ingest(&sample(1, 0.0));
        }
        let watchdog = Watchdog::new(WatchdogConfig {
            min_severity: Severity::Warning,
            sustain_windows: 3,
            min_count: 5,
        });
        assert_eq!(watchdog.flagged_slices(&monitor), vec![SLICE.to_string()]);

        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 20,
            n_test: 20,
            seed: 33,
            slice_rate: 0.3,
            ..Default::default()
        });
        let dir =
            std::env::temp_dir().join(format!("overton-watchdog-capture-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let live = LiveStore::create(&dir, ds.schema().clone()).unwrap();

        let captured = watchdog.capture_into(&monitor, ds.records(), &live).unwrap();
        let eligible = ds
            .records()
            .iter()
            .filter(|r| r.in_slice(SLICE) && r.tasks.keys().any(|t| r.gold(t).is_some()))
            .count();
        assert!(captured > 0);
        assert_eq!(captured, eligible, "exactly the gold-labeled slice members are captured");
        assert_eq!(live.pending_rows(), captured);

        // Captured rows are retagged training data with capture lineage.
        live.flush().unwrap();
        let snapshot = live.snapshot();
        for row in 0..snapshot.len() {
            let record = snapshot.store().get(row).unwrap();
            assert!(record.in_slice(SLICE));
            assert!(record.has_tag(TAG_TRAIN) && record.has_tag(TAG_CAPTURED));
            assert!(!record.has_tag(TAG_DEV) && !record.has_tag(TAG_TEST));
            assert!(record.tasks.keys().any(|t| record.gold(t).is_some()));
        }

        // A quiet watchdog captures nothing.
        let quiet = Monitor::new(vec![SLICE.into()], None, ObsConfig::default());
        assert_eq!(watchdog.capture_into(&quiet, ds.records(), &live).unwrap(), 0);

        std::fs::remove_dir_all(&dir).ok();
    }
}
