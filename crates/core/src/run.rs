//! The staged pipeline run: Figure 1 as an explicit, resumable state
//! machine.
//!
//! A [`Run`] executes the paper's loop as six explicit [`Stage`]s — Ingest
//! → Combine → Search → Train → Package → Evaluate — each producing a
//! typed, serializable artifact under the run directory (`runs/<id>/`) and
//! a per-stage wall-clock + record-count entry in the [`RunReport`]. The
//! unit of monitoring is the *run*, not the model: the report is what an
//! engineer (or the `overton report` CLI) reads to understand what a
//! retrain did, and the persisted stage artifacts are what let a run
//! resume from any completed stage instead of starting over.
//!
//! Run-directory layout (written only when the owning
//! [`Project`](crate::Project) has a root):
//!
//! ```text
//! runs/<id>/
//!   store/              sealed sharded row store (Ingest)
//!   combine.json        per-source diagnostics + example counts (Combine)
//!   search.json         chosen architecture + all trials (Search)
//!   train.json          training report (Train)
//!   train.model.json    weights snapshot, a loadable artifact (Train)
//!   artifact.model.json the packaged deployable artifact (Package)
//!   evaluation.json     per-task quality reports (Evaluate)
//!   baseline.json       traffic baseline for drift detection (Evaluate)
//!   report.json         the RunReport; doubles as the completion record
//!   trace.jsonl         one Span JSON line per completed stage
//! ```
//!
//! `trace.jsonl` uses the same [`Span`](overton_serving::Span) schema the
//! socket tier records per request, with stage names instead of
//! request-path names — `overton trace <dir>` renders either one.

use crate::error::Error;
use crate::project::OvertonOptions;
use crate::workflows::{diagnose_reports, mean_accuracy, scored_accuracies, SliceDiagnosis};
use overton_model::{
    evaluate_store, prepare_store, prepare_store_with_space, search, train_chosen, train_model,
    CompiledModel, DeployableModel, Evaluation, FeatureSpace, ModelConfig, PreparedData, Server,
    TrainReport, TrialResult, Winner,
};
use overton_serving::{Span, TrafficBaseline};
use overton_store::{ShardedStore, StoreError};
use overton_supervision::SourceDiagnostics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One stage of the pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Parse + validate the two files (or adopt a sealed store) and seal
    /// the sharded row store.
    Ingest,
    /// Combine multi-source supervision into probabilistic targets.
    Combine,
    /// Coarse architecture search (a no-op pick of the base model when no
    /// tuning spec is configured).
    Search,
    /// Train the compiled multitask model.
    Train,
    /// Package the deployable artifact with its serving signature.
    Package,
    /// Evaluate on the test split: per-task, per-tag, per-slice reports.
    Evaluate,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 6] = [
        Stage::Ingest,
        Stage::Combine,
        Stage::Search,
        Stage::Train,
        Stage::Package,
        Stage::Evaluate,
    ];

    /// The stage's lowercase name (stable; used by the CLI and in files).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Combine => "combine",
            Stage::Search => "search",
            Stage::Train => "train",
            Stage::Package => "package",
            Stage::Evaluate => "evaluate",
        }
    }

    /// The following stage, or `None` after [`Stage::Evaluate`].
    pub fn next(self) -> Option<Stage> {
        let i = Stage::ALL.iter().position(|&s| s == self).expect("stage in ALL");
        Stage::ALL.get(i + 1).copied()
    }

    /// Parses a stage name as printed by [`Stage::name`] (case-insensitive).
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Telemetry for one executed stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// The stage.
    pub stage: Stage,
    /// Wall-clock time the stage took.
    pub wall_ms: u64,
    /// How many records/items the stage processed (rows ingested, examples
    /// combined, trials searched, examples trained on, weights packaged,
    /// rows evaluated).
    pub records: usize,
}

/// The run-level monitoring artifact: per-stage telemetry plus the final
/// test accuracies. Persisted as `report.json`, which also serves as the
/// run's stage-completion record for resume.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// The run's id (its directory name under `runs/`).
    pub run_id: String,
    /// One entry per completed stage, in execution order.
    pub stages: Vec<StageReport>,
    /// Overall test accuracy per task, for tasks that produced an
    /// `overall` row (tasks without scored gold examples are absent, not
    /// zero).
    pub task_accuracy: BTreeMap<String, f64>,
    /// Mean of [`task_accuracy`](Self::task_accuracy) — the mean over
    /// *scored* tasks only, so unscored tasks cannot drag it down.
    pub mean_test_accuracy: f64,
    /// The live-store snapshot generation the run trained on, when the
    /// project was built from a [`StoreSnapshot`](overton_store::StoreSnapshot)
    /// (absent for two-file and plain-store projects). Serde-defaulted so
    /// reports persisted before this field parse unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub snapshot_generation: Option<u64>,
    /// True when the run warm-started from a previous run's packaged
    /// weights (the incremental retrain path) instead of training from a
    /// fresh initialization.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub warm_started: bool,
    /// Seeded-bootstrap 95% interval on
    /// [`mean_test_accuracy`](Self::mean_test_accuracy) (resampling over
    /// the scored per-task accuracies; absent when no task scored or for
    /// reports persisted before this field existed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mean_accuracy_ci: Option<overton_monitor::stats::Interval>,
    /// Test-set reuse budget remaining after this run's evaluate stage
    /// debited the project meter (ease.ml/meter-style ledger at
    /// `<root>/meter.json`). Absent for rootless runs and for reports
    /// persisted before the meter existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub meter_remaining: Option<u64>,
    /// Statistical evidence behind the promotion decision this run was
    /// part of, when it was produced by a retrain-and-compare workflow
    /// (absent for plain builds and for pre-gate reports).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub promotion: Option<overton_monitor::stats::PromotionEvidence>,
}

impl RunReport {
    /// Telemetry for one stage, if it completed.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// True when the stage has a telemetry entry (i.e. completed).
    pub fn completed(&self, stage: Stage) -> bool {
        self.stage(stage).is_some()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run: {}", self.run_id)?;
        writeln!(f, "{:>9}  {:>9}  {:>9}", "stage", "wall_ms", "records")?;
        for s in &self.stages {
            writeln!(f, "{:>9}  {:>9}  {:>9}", s.stage.name(), s.wall_ms, s.records)?;
        }
        for (task, acc) in &self.task_accuracy {
            writeln!(f, "test accuracy {task}: {acc:.4}")?;
        }
        if !self.task_accuracy.is_empty() {
            writeln!(
                f,
                "mean test accuracy: {:.4} ({} scored tasks)",
                self.mean_test_accuracy,
                self.task_accuracy.len()
            )?;
        }
        if let Some(ci) = &self.mean_accuracy_ci {
            writeln!(f, "mean accuracy 95% bootstrap CI: {ci}")?;
        }
        if let Some(remaining) = self.meter_remaining {
            writeln!(f, "test-set reuse budget remaining: {remaining}")?;
        }
        if let Some(promotion) = &self.promotion {
            writeln!(f, "promotion: {promotion}")?;
        }
        Ok(())
    }
}

/// The combine stage's persisted artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CombineArtifact {
    diagnostics: BTreeMap<String, Vec<SourceDiagnostics>>,
    train_examples: usize,
    dev_examples: usize,
}

/// The search stage's persisted artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SearchArtifact {
    chosen: ModelConfig,
    trials: Vec<TrialResult>,
}

/// A staged, resumable pipeline execution. Created by
/// [`Project::start`](crate::Project::start) (which performs
/// [`Stage::Ingest`]); drive it with [`advance`](Run::advance) or
/// [`complete`](Run::complete).
pub struct Run {
    pub(crate) id: String,
    pub(crate) dir: Option<PathBuf>,
    pub(crate) options: OvertonOptions,
    /// Shared with the owning project when the source is a sealed store,
    /// so starting a run never deep-copies the shard blobs.
    pub(crate) store: Arc<ShardedStore>,
    pub(crate) prepared: Option<PreparedData>,
    pub(crate) diagnostics: BTreeMap<String, Vec<SourceDiagnostics>>,
    pub(crate) train_examples: usize,
    pub(crate) dev_examples: usize,
    pub(crate) chosen_config: Option<ModelConfig>,
    pub(crate) trials: Vec<TrialResult>,
    /// The search winner's training state, held from search to train so
    /// the final train continues it instead of retraining from epoch 0.
    /// Never persisted: a run without it (a resume) trains from scratch
    /// and gets the same bits.
    pub(crate) winner: Option<Winner>,
    pub(crate) model: Option<CompiledModel>,
    pub(crate) space: Option<FeatureSpace>,
    pub(crate) train_report: Option<TrainReport>,
    pub(crate) artifact: Option<DeployableModel>,
    pub(crate) evaluation: Option<Evaluation>,
    pub(crate) baseline: Option<TrafficBaseline>,
    /// A previous run's packaged weights to warm-start from (the
    /// incremental retrain path): combine encodes in this artifact's
    /// feature space, search adopts its architecture, and train continues
    /// from its weights instead of a fresh initialization.
    pub(crate) warm: Option<Arc<DeployableModel>>,
    pub(crate) report: RunReport,
    /// The next stage to execute; `None` once the run is complete.
    pub(crate) cursor: Option<Stage>,
    /// Origin instant the `trace.jsonl` span offsets are measured from.
    /// Shifted back in [`note_stage`](Run::note_stage) when a stage
    /// started before construction (ingest runs in `Project::start`), so
    /// offsets are always non-negative.
    trace_origin: Instant,
}

impl fmt::Debug for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Run")
            .field("id", &self.id)
            .field("dir", &self.dir)
            .field("rows", &self.store.len())
            .field("next_stage", &self.cursor)
            .field("completed", &self.report.stages.iter().map(|s| s.stage).collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl Run {
    pub(crate) fn new(
        id: String,
        dir: Option<PathBuf>,
        options: OvertonOptions,
        store: Arc<ShardedStore>,
    ) -> Self {
        let report = RunReport { run_id: id.clone(), ..RunReport::default() };
        Self {
            id,
            dir,
            options,
            store,
            prepared: None,
            diagnostics: BTreeMap::new(),
            train_examples: 0,
            dev_examples: 0,
            chosen_config: None,
            trials: Vec::new(),
            winner: None,
            model: None,
            space: None,
            train_report: None,
            artifact: None,
            evaluation: None,
            baseline: None,
            warm: None,
            report,
            cursor: Some(Stage::Combine),
            trace_origin: Instant::now(),
        }
    }

    /// The run id (`run-NNNN` for persisted runs).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The run directory, when the project persists runs.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The sealed store the run operates on.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Per-stage telemetry plus final accuracies.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The next stage [`advance`](Run::advance) would execute, or `None`
    /// when the run is complete.
    pub fn next_stage(&self) -> Option<Stage> {
        self.cursor
    }

    /// True once every stage has executed.
    pub fn is_complete(&self) -> bool {
        self.cursor.is_none()
    }

    /// The searched (or base) architecture, once [`Stage::Search`] ran.
    pub fn chosen_config(&self) -> Option<&ModelConfig> {
        self.chosen_config.as_ref()
    }

    /// All search trials, best first (empty when search was skipped).
    pub fn trials(&self) -> &[TrialResult] {
        &self.trials
    }

    /// Per-task supervision diagnostics, once [`Stage::Combine`] ran.
    pub fn diagnostics(&self) -> &BTreeMap<String, Vec<SourceDiagnostics>> {
        &self.diagnostics
    }

    /// The training summary, once [`Stage::Train`] ran.
    pub fn train_report(&self) -> Option<&TrainReport> {
        self.train_report.as_ref()
    }

    /// The packaged deployable artifact, once [`Stage::Package`] ran.
    pub fn artifact(&self) -> Option<&DeployableModel> {
        self.artifact.as_ref()
    }

    /// The test evaluation, once [`Stage::Evaluate`] ran.
    pub fn evaluation(&self) -> Option<&Evaluation> {
        self.evaluation.as_ref()
    }

    /// The traffic baseline captured over the test split during
    /// [`Stage::Evaluate`] (persisted as `baseline.json`): the reference
    /// distribution the deployment's drift detectors compare live
    /// traffic against.
    pub fn baseline(&self) -> Option<&TrafficBaseline> {
        self.baseline.as_ref()
    }

    /// Overall test accuracy of a task (0 before evaluation or for an
    /// unscored task).
    pub fn test_accuracy(&self, task: &str) -> f64 {
        self.evaluation.as_ref().map_or(0.0, |e| e.accuracy(task))
    }

    /// Mean test accuracy over the tasks that were actually scored
    /// (tasks without an `overall` row are excluded from numerator *and*
    /// denominator).
    pub fn mean_test_accuracy(&self) -> f64 {
        self.report.mean_test_accuracy
    }

    /// The monitoring worklist: `(task, slice)` pairs of the evaluation
    /// ranked by accuracy ascending, skipping slices with fewer than
    /// `min_count` scored examples — the same kernel as
    /// [`Project::monitor`](crate::Project::monitor) over live reports.
    pub fn worst_slices(&self, min_count: usize) -> Vec<SliceDiagnosis> {
        self.evaluation.as_ref().map_or_else(Vec::new, |e| diagnose_reports(&e.reports, min_count))
    }

    /// The task that scored lowest on `slice` in this run's evaluation —
    /// deterministically: lowest accuracy, ties broken on task name. The
    /// obs [`Watchdog`](overton_obs::Watchdog)'s windowed diagnoses are
    /// task-agnostic; this maps an escalated slice onto the `task`
    /// argument of
    /// [`Project::retrain_and_compare`](crate::Project::retrain_and_compare),
    /// closing Figure 1's loop automatically.
    pub fn weakest_task_on_slice(&self, slice: &str) -> Result<String, Error> {
        let evaluation = self.evaluation.as_ref().ok_or_else(|| {
            Error::run(Stage::Evaluate, "run has no evaluation; complete it first")
        })?;
        evaluation
            .reports
            .keys()
            .filter_map(|task| evaluation.slice_metrics(task, slice).map(|m| (task, m.accuracy)))
            .min_by(|(ta, a), (tb, b)| a.total_cmp(b).then_with(|| ta.cmp(tb)))
            .map(|(task, _)| task.clone())
            .ok_or_else(|| {
                Error::run(
                    Stage::Evaluate,
                    format!("no task of the run was evaluated on slice '{slice}'"),
                )
            })
    }

    /// Executes the next stage, returning which one ran.
    pub fn advance(&mut self) -> Result<Stage, Error> {
        let stage =
            self.cursor.ok_or_else(|| Error::run(Stage::Evaluate, "run is already complete"))?;
        let start = Instant::now();
        let records = match stage {
            Stage::Ingest => unreachable!("ingest runs in Project::start"),
            Stage::Combine => self.run_combine()?,
            Stage::Search => self.run_search()?,
            Stage::Train => self.run_train()?,
            Stage::Package => self.run_package()?,
            Stage::Evaluate => self.run_evaluate()?,
        };
        self.note_stage(stage, start, records);
        self.cursor = stage.next();
        self.persist_report()?;
        Ok(stage)
    }

    /// Executes every remaining stage.
    pub fn complete(&mut self) -> Result<(), Error> {
        while !self.is_complete() {
            self.advance()?;
        }
        Ok(())
    }

    pub(crate) fn note_stage(&mut self, stage: Stage, start: Instant, records: usize) {
        let end = Instant::now();
        self.report.stages.push(StageReport {
            stage,
            wall_ms: end.duration_since(start).as_millis() as u64,
            records,
        });
        // Ingest starts in `Project::start`, before this Run exists; fold
        // its start into the origin so every span offset stays positive.
        if start < self.trace_origin {
            self.trace_origin = start;
        }
        self.append_trace_span(Span {
            name: stage.name().to_string(),
            start_micros: start.duration_since(self.trace_origin).as_micros() as u64,
            end_micros: end.duration_since(self.trace_origin).as_micros() as u64,
        });
    }

    /// Appends one stage span to `trace.jsonl` — the build-side twin of
    /// the socket tier's request traces, same [`Span`] schema. Best
    /// effort: a trace write failure never fails the stage.
    fn append_trace_span(&self, span: Span) {
        let Some(dir) = &self.dir else { return };
        let Ok(line) = serde_json::to_string(&span) else { return };
        let open =
            std::fs::OpenOptions::new().create(true).append(true).open(dir.join("trace.jsonl"));
        if let Ok(mut file) = open {
            use std::io::Write;
            let _ = writeln!(file, "{line}");
        }
    }

    // ---- stage executors ------------------------------------------------

    fn run_combine(&mut self) -> Result<usize, Error> {
        if self.store.index().train_rows().is_empty() {
            return Err(Error::NoTrainingData);
        }
        // Warm-started runs encode in the previous artifact's feature
        // space (unseen tokens map to `<unk>`), so the carried-over
        // weights keep their meaning; cold runs build the space from the
        // rows as usual.
        let prepared = match &self.warm {
            Some(warm) => {
                prepare_store_with_space(&self.store, &self.options.combine, warm.space.clone())?
            }
            None => prepare_store(&self.store, &self.options.combine)?,
        };
        if prepared.train.iter().all(|e| e.targets.is_empty()) {
            return Err(Error::NoTrainingData);
        }
        self.diagnostics = prepared.diagnostics.clone();
        self.train_examples = prepared.train.len();
        self.dev_examples = prepared.dev.len();
        let records = prepared.train.len() + prepared.dev.len();
        self.write_json(
            "combine.json",
            &CombineArtifact {
                diagnostics: self.diagnostics.clone(),
                train_examples: self.train_examples,
                dev_examples: self.dev_examples,
            },
        )?;
        self.space = Some(prepared.space.clone());
        self.prepared = Some(prepared);
        Ok(records)
    }

    fn run_search(&mut self) -> Result<usize, Error> {
        let prepared = self.prepared.as_ref().ok_or_else(|| {
            Error::run(Stage::Search, "combine output not in memory (resume from combine)")
        })?;
        // A warm-started run must keep the architecture its weights were
        // trained under — searching a new one would orphan them — so the
        // previous artifact's config wins over both the tuning spec and
        // the base model.
        let (chosen, trials, winner) = match (&self.warm, &self.options.tuning) {
            (Some(warm), _) => (warm.config.clone(), Vec::new(), None),
            (None, Some(spec)) => {
                let (winner, trials) = search(
                    self.store.schema(),
                    &prepared.space,
                    &prepared.train,
                    &prepared.dev,
                    spec,
                    &self.options.base_model,
                    self.options.pretrained.as_ref(),
                    &self.options.search,
                );
                (winner.config().clone(), trials, Some(winner))
            }
            (None, None) => (self.options.base_model.clone(), Vec::new(), None),
        };
        self.write_json(
            "search.json",
            &SearchArtifact { chosen: chosen.clone(), trials: trials.clone() },
        )?;
        let records = trials.len();
        self.chosen_config = Some(chosen);
        self.trials = trials;
        self.winner = winner;
        Ok(records)
    }

    fn run_train(&mut self) -> Result<usize, Error> {
        let prepared = self.prepared.as_ref().ok_or_else(|| {
            Error::run(Stage::Train, "combine output not in memory (resume from combine)")
        })?;
        let chosen = self
            .chosen_config
            .clone()
            .ok_or_else(|| Error::run(Stage::Train, "no architecture chosen (run search first)"))?;
        // Warm start: reinstantiate the previous run's weights and keep
        // training; otherwise train the chosen architecture, continuing
        // the search winner's training when that gives the same bits.
        let winner = self.winner.take();
        let (model, train_report) = match &self.warm {
            Some(warm) => {
                let mut model = warm.instantiate();
                let report =
                    train_model(&mut model, &prepared.train, &prepared.dev, &self.options.train);
                (model, report)
            }
            None => train_chosen(
                self.store.schema(),
                &prepared.space,
                &prepared.train,
                &prepared.dev,
                &chosen,
                self.options.pretrained.as_ref(),
                &self.options.train,
                winner,
            ),
        };
        self.write_json("train.json", &train_report)?;
        // The weights snapshot is itself a loadable artifact, which is what
        // makes the run resumable from `package` without retraining.
        let mut metadata = BTreeMap::new();
        metadata.insert("stage".into(), "train".into());
        metadata.insert("run".into(), self.id.clone());
        let snapshot = DeployableModel::package(&model, &prepared.space, metadata);
        self.write_bytes("train.model.json", &snapshot.to_bytes())?;
        let records = prepared.train.len();
        self.model = Some(model);
        self.train_report = Some(train_report);
        // Training is the last consumer of the combine intermediate
        // (encoded features + targets for every train/dev example); drop
        // it so a long-lived Run doesn't pin it through deploy/monitor.
        self.prepared = None;
        Ok(records)
    }

    fn run_package(&mut self) -> Result<usize, Error> {
        let model = self
            .model
            .as_ref()
            .ok_or_else(|| Error::run(Stage::Package, "no trained model (run train first)"))?;
        let space = self
            .space
            .as_ref()
            .ok_or_else(|| Error::run(Stage::Package, "no feature space (run combine first)"))?;
        let chosen = self
            .chosen_config
            .as_ref()
            .ok_or_else(|| Error::run(Stage::Package, "no architecture (run search first)"))?;
        let mut metadata = BTreeMap::new();
        metadata.insert("train_records".into(), self.train_examples.to_string());
        metadata.insert("dev_records".into(), self.dev_examples.to_string());
        metadata.insert("encoder".into(), format!("{:?}", chosen.encoder));
        metadata.insert("run".into(), self.id.clone());
        // Data lineage for the incremental path: which live-store
        // generation the weights saw, and whether they continued from a
        // previous run's artifact.
        if let Some(generation) = self.report.snapshot_generation {
            metadata.insert("snapshot_generation".into(), generation.to_string());
        }
        if self.warm.is_some() {
            metadata.insert("warm_started".into(), "true".into());
        }
        let artifact = DeployableModel::package(model, space, metadata);
        self.write_bytes("artifact.model.json", &artifact.to_bytes())?;
        let records = model.num_weights();
        self.artifact = Some(artifact);
        Ok(records)
    }

    fn run_evaluate(&mut self) -> Result<usize, Error> {
        let model = self
            .model
            .as_ref()
            .ok_or_else(|| Error::run(Stage::Evaluate, "no trained model (run train first)"))?;
        let space = self
            .space
            .as_ref()
            .ok_or_else(|| Error::run(Stage::Evaluate, "no feature space (run combine first)"))?;
        let rows = self.store.index().test_rows();
        let evaluation = evaluate_store(model, &self.store, rows, space)?;
        // Every look at the holdout spends statistical validity
        // (ease.ml/meter): debit the project-level reuse ledger before
        // reporting the numbers. Rootless/in-memory runs have no project
        // directory and therefore no ledger to debit. The debit saturates
        // rather than fails when the budget is exhausted — the remaining
        // balance (surfaced in the report, `/metrics` and `overton
        // meter`) is the warning, not a hard stop.
        if let Some(root) = self.dir.as_ref().and_then(|d| d.parent()).and_then(|p| p.parent()) {
            if !root.as_os_str().is_empty() {
                let mut ledger = overton_monitor::stats::MeterLedger::open_or_create(root)?;
                self.report.meter_remaining = Some(ledger.debit(&self.id, 1)?);
            }
        }
        // The filtered mean: only tasks that produced an `overall` row
        // enter numerator and denominator.
        let task_accuracy = scored_accuracies(&evaluation.reports);
        self.report.mean_test_accuracy = mean_accuracy(&task_accuracy);
        // Seeded bootstrap over the scored per-task accuracies — the
        // non-binomial companion to the per-slice Clopper-Pearson bounds
        // in the quality reports. Seed 0 always: same evaluation, same
        // bounds, bit for bit.
        let accuracies: Vec<f64> = task_accuracy.values().copied().collect();
        self.report.mean_accuracy_ci = (!accuracies.is_empty()).then(|| {
            overton_monitor::stats::bootstrap_mean_interval(
                &accuracies,
                overton_monitor::stats::DEFAULT_ALPHA,
                1000,
                0,
            )
        });
        self.report.task_accuracy = task_accuracy;
        let records = rows.len();
        self.write_json("evaluation.json", &evaluation.reports)?;
        self.evaluation = Some(evaluation);
        // Capture the traffic baseline over the same split the artifact
        // was accepted on — the reference distribution deployments reload
        // for drift detection. The packaged artifact exists (Package runs
        // before Evaluate), so the baseline reflects exactly the served
        // weights. This is a second forward pass over the test rows
        // (evaluate_store just predicted them): a deliberate trade —
        // the baseline must come from the *served* artifact's outputs
        // (confidence + slice heads), which the shard-parallel
        // evaluation kernel does not surface; folding capture into it
        // is a cross-crate refactor to revisit if evaluate-stage wall
        // time ever matters.
        if !rows.is_empty() {
            let artifact = self.artifact.as_ref().expect("package stage ran before evaluate");
            let server = Server::load(artifact);
            let records: Vec<overton_store::Record> = rows
                .iter()
                .map(|&r| self.store.get(r as usize))
                .collect::<Result<_, StoreError>>()?;
            let baseline = TrafficBaseline::collect(&server, &records)?;
            self.write_json("baseline.json", &baseline)?;
            self.baseline = Some(baseline);
        }
        Ok(records)
    }

    // ---- persistence ----------------------------------------------------

    pub(crate) fn write_json<T: Serialize>(&self, file: &str, value: &T) -> Result<(), Error> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let text = serde_json::to_string_pretty(value).map_err(StoreError::Json)?;
        std::fs::write(dir.join(file), text)?;
        Ok(())
    }

    pub(crate) fn write_bytes(&self, file: &str, bytes: &[u8]) -> Result<(), Error> {
        let Some(dir) = &self.dir else { return Ok(()) };
        std::fs::write(dir.join(file), bytes)?;
        Ok(())
    }

    pub(crate) fn persist_report(&self) -> Result<(), Error> {
        self.write_json("report.json", &self.report)
    }

    /// Records a retrain-and-compare promotion decision on this run: the
    /// full evidence goes into the report (re-persisted as `report.json`)
    /// and a summary into the packaged artifact's metadata (the artifact
    /// file is rewritten), so both the run's monitoring record and the
    /// deployable bytes carry the statistical trail.
    pub(crate) fn record_promotion(
        &mut self,
        evidence: &overton_monitor::stats::PromotionEvidence,
    ) -> Result<(), Error> {
        self.report.promotion = Some(evidence.clone());
        self.persist_report()?;
        if let Some(artifact) = self.artifact.as_mut() {
            let decision = if evidence.significant { "promote" } else { "hold" };
            artifact.metadata.insert("promotion".into(), decision.into());
            artifact
                .metadata
                .insert("promotion_p_value".into(), format!("{:.6}", evidence.p_value));
            if let Some(remaining) = evidence.meter_remaining {
                artifact.metadata.insert("meter_remaining".into(), remaining.to_string());
            }
            let bytes = artifact.to_bytes();
            self.write_bytes("artifact.model.json", &bytes)?;
        }
        Ok(())
    }

    // ---- resume ---------------------------------------------------------

    /// The files a stage writes into the run directory (the persisted
    /// store aside, which ingest always rewrites wholesale).
    fn stage_files(stage: Stage) -> &'static [&'static str] {
        match stage {
            Stage::Ingest => &[],
            Stage::Combine => &["combine.json"],
            Stage::Search => &["search.json"],
            Stage::Train => &["train.json", "train.model.json"],
            Stage::Package => &["artifact.model.json"],
            Stage::Evaluate => &["evaluation.json", "baseline.json"],
        }
    }

    /// Deletes the artifacts of `from` and every later stage, so a run
    /// directory mid-resume never pairs fresh early-stage state with
    /// stale downstream artifacts (e.g. a re-ingested store next to an
    /// old `artifact.model.json`).
    pub(crate) fn clear_stage_artifacts(dir: &Path, from: Stage) {
        // Span offsets are relative to one execution's origin, so a
        // resumed run always starts the trace fresh — whatever `from`,
        // mixing spans from two executions would mix two origins.
        std::fs::remove_file(dir.join("trace.jsonl")).ok();
        for stage in Stage::ALL.into_iter().filter(|&s| s >= from) {
            for file in Self::stage_files(stage) {
                std::fs::remove_file(dir.join(file)).ok();
            }
        }
    }

    /// Reloads a persisted run so execution restarts at `from` (which is
    /// re-executed; everything before it is loaded from the run
    /// directory). The heavyweight combine intermediate (per-example
    /// probabilistic targets) is not persisted — when `from` is `search`
    /// or `train` it is rebuilt deterministically from the stored shards —
    /// while trained weights resume from the `train.model.json` snapshot,
    /// so no resume point ever retrains.
    pub(crate) fn load(
        dir: PathBuf,
        id: String,
        options: OvertonOptions,
        from: Stage,
        store: Arc<ShardedStore>,
    ) -> Result<Self, Error> {
        let report_path = dir.join("report.json");
        let text = std::fs::read_to_string(&report_path)
            .map_err(|e| Error::run(from, format!("cannot read {}: {e}", report_path.display())))?;
        let mut report: RunReport = serde_json::from_str(&text)
            .map_err(|e| Error::run(from, format!("report.json: {e}")))?;
        for stage in Stage::ALL.into_iter().take_while(|&s| s != from) {
            if !report.completed(stage) {
                return Err(Error::run(
                    from,
                    format!("cannot resume: stage {stage} never completed in this run"),
                ));
            }
        }
        // A warm-started run's combine/search/train stages depend on the
        // previous artifact (its space, architecture and weights), which
        // — like the pretrained encoder — is an input the run directory
        // does not embed. Resuming one into a retraining stage would
        // silently rebuild a *cold* feature space under warm artifacts;
        // resume is only sound from package onward (those stages reload
        // the trained snapshot, space included).
        if report.warm_started && from <= Stage::Train {
            return Err(Error::run(
                from,
                "cannot resume a warm-started (incremental) run from a stage that retrains; \
                 re-run the incremental retrain against a fresh snapshot instead",
            ));
        }
        // Keep telemetry for the stages we are not re-running.
        report.stages.retain(|s| s.stage < from);
        report.task_accuracy.clear();
        report.mean_test_accuracy = 0.0;
        report.mean_accuracy_ci = None;
        report.meter_remaining = None;
        report.promotion = None;
        report.run_id = id.clone();

        let mut run = Run::new(id, Some(dir.clone()), options, store);
        run.report = report;
        run.cursor = Some(from);

        let read_json = |file: &str| -> Result<String, Error> {
            std::fs::read_to_string(dir.join(file))
                .map_err(|e| Error::run(from, format!("cannot read {file}: {e}")))
        };
        let parse = |what: &str, e: serde_json::Error| Error::run(from, format!("{what}: {e}"));

        if from > Stage::Combine {
            let text = read_json("combine.json")?;
            let combine: CombineArtifact =
                serde_json::from_str(&text).map_err(|e| parse("combine.json", e))?;
            run.diagnostics = combine.diagnostics;
            run.train_examples = combine.train_examples;
            run.dev_examples = combine.dev_examples;
            if from <= Stage::Train {
                // Search/Train need the combined examples; rebuild them
                // deterministically from the sealed store.
                let prepared = prepare_store(&run.store, &run.options.combine)?;
                run.space = Some(prepared.space.clone());
                run.prepared = Some(prepared);
            }
        }
        if from > Stage::Search {
            let text = read_json("search.json")?;
            let search: SearchArtifact =
                serde_json::from_str(&text).map_err(|e| parse("search.json", e))?;
            run.chosen_config = Some(search.chosen);
            run.trials = search.trials;
        }
        if from > Stage::Train {
            let text = read_json("train.json")?;
            run.train_report =
                Some(serde_json::from_str(&text).map_err(|e| parse("train.json", e))?);
            let snapshot_file =
                if from > Stage::Package { "artifact.model.json" } else { "train.model.json" };
            let bytes = std::fs::read(dir.join(snapshot_file))
                .map_err(|e| Error::run(from, format!("cannot read {snapshot_file}: {e}")))?;
            let snapshot = DeployableModel::from_bytes(&bytes)?;
            run.model = Some(snapshot.instantiate());
            run.space = Some(snapshot.space.clone());
            if from > Stage::Package {
                run.artifact = Some(snapshot);
            }
        }

        // Only now that every needed artifact loaded: delete the stale
        // artifacts of the stages being re-run and persist the truncated
        // report, so an abandoned resume can't pair fresh early-stage
        // state with outdated downstream artifacts — while a resume that
        // *fails to load* (e.g. a corrupt search.json) leaves the run
        // directory exactly as it was, still serveable.
        Run::clear_stage_artifacts(&dir, from);
        run.persist_report()?;
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_and_parse() {
        assert_eq!(Stage::Ingest.next(), Some(Stage::Combine));
        assert_eq!(Stage::Evaluate.next(), None);
        assert!(Stage::Combine < Stage::Train);
        assert_eq!(Stage::parse("TRAIN"), Some(Stage::Train));
        assert_eq!(Stage::parse("nope"), None);
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
    }

    #[test]
    fn report_roundtrips_and_tracks_completion() {
        let mut report = RunReport { run_id: "run-0001".into(), ..Default::default() };
        report.stages.push(StageReport { stage: Stage::Ingest, wall_ms: 3, records: 100 });
        report.task_accuracy.insert("Intent".into(), 0.75);
        report.mean_test_accuracy = 0.75;
        assert!(report.completed(Stage::Ingest));
        assert!(!report.completed(Stage::Train));
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let text = report.to_string();
        assert!(text.contains("ingest") && text.contains("mean test accuracy"), "{text}");
    }

    #[test]
    fn weakest_task_on_slice_breaks_ties_on_task_name() {
        use overton_monitor::{Metrics, QualityReport};
        let store = overton_store::Dataset::new(overton_nlp::workload_schema()).seal();
        let mut run = Run::new("run-t".into(), None, OvertonOptions::default(), Arc::new(store));
        assert!(run.weakest_task_on_slice("hard").is_err(), "no evaluation yet");

        let metrics = |accuracy| Metrics { count: 10, accuracy, macro_f1: 0.0, micro_f1: 0.0 };
        let mut reports = BTreeMap::new();
        for (task, accuracy) in [("POS", 0.4), ("Intent", 0.4), ("EntityType", 0.9)] {
            let mut report = QualityReport::new(task);
            report.push("overall", metrics(0.1));
            report.push("slice:hard", metrics(accuracy));
            reports.insert(task.to_string(), report);
        }
        run.evaluation = Some(Evaluation { reports });
        assert_eq!(run.weakest_task_on_slice("hard").unwrap(), "Intent");
        let err = run.weakest_task_on_slice("absent").unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");
    }
}
