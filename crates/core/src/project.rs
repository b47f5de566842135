//! The front door: a declarative [`Project`] built from the paper's
//! two-file contract.
//!
//! An Overton engineer's entire interface is a schema file and a data file
//! (paper §1–2). [`Project::from_files`] takes exactly those two paths —
//! the data file streams straight into the sharded row store, no eager
//! `Vec<Record>` — and executes the pipeline as a staged, resumable
//! [`Run`]. The project also closes Figure 1's loop: [`Project::deploy`]
//! hands the packaged artifact to the serving runtime
//! ([`DeploymentManager`] + [`WorkerPool`]), and [`Project::monitor`]
//! turns the quality reports coming back from live traffic into the
//! ranked slice worklist that drives the next data edit.

use crate::error::Error;
use crate::run::{Run, Stage};
use crate::workflows::{diagnose_reports, ImprovementReport, SliceDiagnosis};
use overton_model::{
    DeployableModel, ModelConfig, ModelRegistry, PretrainedEncoder, SearchConfig, TrainConfig,
    TuningSpec,
};
use overton_monitor::{stats, QualityReport};
use overton_obs as obs;
use overton_serving::{
    CascadeEngine, DeploymentManager, ServingConfig, TrafficBaseline, WorkerPool,
};
use overton_store::{Dataset, ShardedStore, StoreSnapshot};
use overton_supervision::CombineMethod;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline configuration. Everything has sensible defaults; an engineer
/// usually touches none of it (that is the point of the system).
/// Serializable: a persisted [`Run`](crate::Run) records its options as
/// `options.json` so resuming re-executes under the run's original
/// configuration.
#[derive(Default, Clone, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct OvertonOptions {
    /// How conflicting supervision is resolved.
    pub combine: CombineMethod,
    /// Base architecture settings (sizes etc. are overridden by search).
    pub base_model: ModelConfig,
    /// The coarse search space; `None` skips search and uses `base_model`.
    pub tuning: Option<TuningSpec>,
    /// Search budget.
    pub search: SearchConfig,
    /// Final training budget.
    pub train: TrainConfig,
    /// Optional pretrained embedding artifact (Figure 4b "with-BERT").
    /// Not persisted in a run's `options.json` — the weight table is an
    /// input artifact (like the data files), so resume takes it from the
    /// project instead of re-serializing megabytes of embeddings per run.
    #[serde(skip)]
    pub pretrained: Option<PretrainedEncoder>,
}

/// Where a project's records come from.
enum Source {
    /// The two-file contract: schema JSON + JSONL records. Ingest streams
    /// the data file into shard builders on every run, so edits to the
    /// files are picked up by the next run — that *is* the improvement
    /// loop.
    Files { schema: PathBuf, data: PathBuf },
    /// An already-sealed store (in-memory callers, live-store snapshots).
    /// Shared, so repeated runs adopt it without deep-copying the shard
    /// blobs.
    Store(Arc<ShardedStore>),
}

/// A declarative Overton project: a data source, pipeline options, and an
/// optional root directory under which runs persist (`<root>/runs/<id>/`)
/// and deployments keep their model registry (`<root>/registry/`).
pub struct Project {
    name: String,
    source: Source,
    options: OvertonOptions,
    root: Option<PathBuf>,
    /// A previous run's packaged artifact to warm-start new runs from
    /// (the incremental retrain path): combine encodes in its feature
    /// space, search keeps its architecture, train continues from its
    /// weights.
    warm: Option<Arc<DeployableModel>>,
    /// The live-store snapshot generation the source store was pinned at,
    /// when the project was built with [`Project::from_snapshot`];
    /// recorded in the run's report and artifact metadata as lineage.
    snapshot_generation: Option<u64>,
}

impl Project {
    /// A project over the two-file engineer contract. The files are read
    /// at [`start`](Project::start)/[`run`](Project::run) time (the ingest
    /// stage), so construction never fails and re-running picks up edits.
    pub fn from_files(schema: impl Into<PathBuf>, data: impl Into<PathBuf>) -> Self {
        Self {
            name: "overton".into(),
            source: Source::Files { schema: schema.into(), data: data.into() },
            options: OvertonOptions::default(),
            root: None,
            warm: None,
            snapshot_generation: None,
        }
    }

    /// A project over an already-sealed store.
    pub fn from_store(store: ShardedStore) -> Self {
        Self {
            name: "overton".into(),
            source: Source::Store(Arc::new(store)),
            options: OvertonOptions::default(),
            root: None,
            warm: None,
            snapshot_generation: None,
        }
    }

    /// A project over a pinned [`StoreSnapshot`] of a live store
    /// ([`LiveStore::snapshot`](overton_store::LiveStore::snapshot)).
    /// The snapshot's merged base+delta store is adopted without copying
    /// the shard blobs, and its generation id is recorded in every run's
    /// report (and packaged artifact metadata) as data lineage — the
    /// incremental-ingest loop's answer to "which data did these weights
    /// see". Appends and compactions after the pin never perturb the run.
    pub fn from_snapshot(snapshot: &StoreSnapshot) -> Self {
        Self {
            name: "overton".into(),
            source: Source::Store(snapshot.store_arc()),
            options: OvertonOptions::default(),
            root: None,
            warm: None,
            snapshot_generation: Some(snapshot.generation()),
        }
    }

    /// Warm-starts every run of this project from `artifact` (a previous
    /// run's packaged model): combine encodes new rows in the artifact's
    /// feature space (unseen tokens map to `<unk>`), search keeps its
    /// architecture, and training continues from its weights. This is
    /// the incremental retrain path — pair it with
    /// [`from_snapshot`](Project::from_snapshot) over a base+delta world
    /// to skip the full re-ingest.
    pub fn warm_started(mut self, artifact: DeployableModel) -> Self {
        self.warm = Some(Arc::new(artifact));
        self
    }

    /// A project over an eager dataset (seals it once, up front).
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self::from_store(dataset.seal())
    }

    /// Names the project (the deployment/registry name; defaults to
    /// `"overton"`).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Sets the pipeline options.
    pub fn with_options(mut self, options: OvertonOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the project root: runs persist under `<root>/runs/<id>/` and
    /// become resumable; [`deploy`](Project::deploy) keeps its registry at
    /// `<root>/registry/`. Without a root everything runs in memory.
    pub fn at(mut self, root: impl Into<PathBuf>) -> Self {
        self.root = Some(root.into());
        self
    }

    /// The project name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pipeline options.
    pub fn options(&self) -> &OvertonOptions {
        &self.options
    }

    /// The runs directory, when the project has a root.
    pub fn runs_dir(&self) -> Option<PathBuf> {
        self.root.as_ref().map(|r| r.join("runs"))
    }

    /// The id of the most recent persisted run, if any (highest run
    /// number, compared numerically).
    pub fn latest_run_id(&self) -> Result<Option<String>, Error> {
        let Some(runs) = self.runs_dir() else { return Ok(None) };
        if !runs.exists() {
            return Ok(None);
        }
        Ok(max_run(&runs)?.map(|(_, name)| name))
    }

    /// Starts a new run by executing [`Stage::Ingest`]: the two files are
    /// parsed, validated and streamed into the sharded row store (or the
    /// sealed source store is adopted), and — when the project has a root
    /// — the store and the run's options are persisted under a fresh
    /// `runs/<id>/` directory. The directory is allocated only after
    /// ingestion succeeds (and removed again if persisting fails), so a
    /// malformed data file never leaves an empty "latest" run behind.
    pub fn start(&self) -> Result<Run, Error> {
        let start = Instant::now();
        let store = self.ingest_store()?;
        let (id, dir) = self.allocate_run_dir()?;
        let persist = |run: &Run| -> Result<(), Error> {
            if run.dir().is_some() {
                run.store().write_dir(run.dir().expect("checked").join("store"))?;
                run.write_json(
                    "options.json",
                    &RunOptionsFile {
                        uses_pretrained: self.options.pretrained.is_some(),
                        options: self.options.clone(),
                    },
                )?;
            }
            run.persist_report()?;
            Ok(())
        };
        let records = store.len();
        let mut run = Run::new(id, dir, self.options.clone(), store);
        run.warm = self.warm.clone();
        run.report.snapshot_generation = self.snapshot_generation;
        run.report.warm_started = self.warm.is_some();
        run.note_stage(Stage::Ingest, start, records);
        if let Err(e) = persist(&run) {
            if let Some(dir) = run.dir() {
                std::fs::remove_dir_all(dir).ok();
            }
            return Err(e);
        }
        Ok(run)
    }

    /// Starts a run and drives it through every stage.
    pub fn run(&self) -> Result<Run, Error> {
        let mut run = self.start()?;
        run.complete()?;
        Ok(run)
    }

    /// Resumes the persisted run `run_id` from stage `from`: `from` and
    /// everything after it re-execute, everything before it loads from the
    /// run directory (`ingest` re-reads the project source into the same
    /// directory; later stages reuse the sealed store and the persisted
    /// stage artifacts — in particular, resuming after `train` never
    /// retrains). A resumed run re-executes under the **options it was
    /// started with** (persisted as `options.json`); the project's current
    /// options apply only to new runs, so resuming can never silently
    /// retrain with a different configuration than the run's own
    /// artifacts record. Returns the run positioned at `from`; drive it
    /// with [`Run::complete`].
    pub fn resume(&self, run_id: &str, from: Stage) -> Result<Run, Error> {
        let runs = self
            .runs_dir()
            .ok_or_else(|| Error::run(from, "project has no root; nothing to resume"))?;
        let dir = runs.join(run_id);
        if !dir.join("report.json").exists() {
            return Err(Error::run(from, format!("no persisted run at {}", dir.display())));
        }
        let options = self.persisted_options(&dir, from)?;
        if from == Stage::Ingest {
            // A full re-run in place: re-ingest the (possibly edited)
            // source into the same run directory. The new store lands in
            // a temp directory first, so an ingest or write failure
            // leaves the old run fully intact; only once it is safely on
            // disk do we drop the stale downstream artifacts and swap the
            // store in (a plain overwrite would also strand old shard
            // files that `read_dir`'s extra-shard check rejects when the
            // dataset shrank).
            let start = Instant::now();
            let store = self.ingest_store()?;
            let store_dir = dir.join("store");
            let staging = dir.join("store.tmp");
            std::fs::remove_dir_all(&staging).ok();
            store.write_dir(&staging)?;
            std::fs::remove_dir_all(&store_dir).ok();
            std::fs::rename(&staging, &store_dir)?;
            // Only after the new store is swapped in: a failed write or
            // swap above leaves the old run — artifacts included — fully
            // intact and still serveable.
            Run::clear_stage_artifacts(&dir, Stage::Ingest);
            let records = store.len();
            let mut run = Run::new(run_id.to_string(), Some(dir), options, store);
            run.warm = self.warm.clone();
            run.report.snapshot_generation = self.snapshot_generation;
            run.report.warm_started = self.warm.is_some();
            run.note_stage(Stage::Ingest, start, records);
            run.persist_report()?;
            return Ok(run);
        }
        let store = Arc::new(ShardedStore::read_dir(dir.join("store"))?);
        Run::load(dir, run_id.to_string(), options, from, store)
    }

    /// Ingests the project source: streams the two files into shard
    /// builders, or adopts the already-sealed store (a cheap `Arc` clone,
    /// not a copy of the shard blobs).
    fn ingest_store(&self) -> Result<Arc<ShardedStore>, Error> {
        Ok(match &self.source {
            Source::Files { schema, data } => Arc::new(ShardedStore::from_files(schema, data)?),
            Source::Store(store) => Arc::clone(store),
        })
    }

    /// The options a persisted run was started with. A run directory
    /// predating `options.json` falls back to the project's current
    /// options; an *unreadable* `options.json` is a hard error — silently
    /// substituting different options would break the resume guarantee.
    /// The pretrained encoder itself is an input artifact `options.json`
    /// does not embed; it comes from the project (like the data files),
    /// and the persisted `uses_pretrained` marker makes a mismatch a hard
    /// error instead of a silent retrain without the encoder.
    fn persisted_options(
        &self,
        run_dir: &std::path::Path,
        from: Stage,
    ) -> Result<OvertonOptions, Error> {
        let path = run_dir.join("options.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let file: RunOptionsFile = serde_json::from_str(&text).map_err(|e| {
                    Error::run(
                        from,
                        format!(
                            "{}: {e} (the run's original options are unreadable; delete the file \
                             to resume under the project's current options)",
                            path.display()
                        ),
                    )
                })?;
                if file.uses_pretrained != self.options.pretrained.is_some() {
                    return Err(Error::run(
                        from,
                        format!(
                            "the run was built {} a pretrained encoder but the project is \
                             configured {} one; supply matching options to resume",
                            if file.uses_pretrained { "with" } else { "without" },
                            if self.options.pretrained.is_some() { "with" } else { "without" },
                        ),
                    ));
                }
                let mut options = file.options;
                options.pretrained = self.options.pretrained.clone();
                Ok(options)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(self.options.clone()),
            Err(e) => Err(e.into()),
        }
    }

    /// Deploys a completed run's packaged artifact: publishes it to the
    /// project registry, opens a [`DeploymentManager`] (the canary/rollback
    /// gate), and starts a [`WorkerPool`] serving the artifact, attached so
    /// promotions hot-swap the pool's engine. This is the right-hand side
    /// of Figure 1 made concrete.
    pub fn deploy(&self, run: &Run) -> Result<Deployment, Error> {
        self.deploy_with(run, ServingConfig::default())
    }

    /// [`deploy`](Project::deploy) with explicit worker-pool sizing.
    pub fn deploy_with(&self, run: &Run, config: ServingConfig) -> Result<Deployment, Error> {
        let artifact = run.artifact().ok_or_else(|| {
            Error::run(Stage::Package, "run has no packaged artifact; complete the run first")
        })?;
        // Rootless, run-dir-less deployments get a unique scratch
        // registry (cleaned up when the Deployment drops) — a fixed path
        // would grow forever and could collide across processes via pid
        // reuse.
        let (registry_dir, temp_registry) = match (&self.root, run.dir()) {
            (Some(root), _) => (root.join("registry"), None),
            (None, Some(dir)) => (dir.join("registry"), None),
            (None, None) => {
                let unique = DEPLOY_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let dir = std::env::temp_dir().join(format!(
                    "overton-{}-registry-{}-{unique}",
                    self.name,
                    std::process::id()
                ));
                (dir.clone(), Some(dir))
            }
        };
        let registry = ModelRegistry::open(&registry_dir)?;
        registry.publish(artifact, &self.name)?;
        let mut manager = DeploymentManager::open(registry, &self.name, DEPLOY_THRESHOLD)?;
        let engine: Arc<CascadeEngine> = manager.build_engine()?;
        // The run's traffic baseline (collected at evaluate over the test
        // split, persisted as baseline.json) arms the deployment's drift
        // detectors. A run without one (evaluated before this feature)
        // deploys without drift detection; a baseline that exists but
        // does not parse is a hard error — silently deploying with drift
        // detection off while it looks on would defeat the monitoring.
        let baseline = match run.baseline() {
            Some(b) => Some(b.clone()),
            None => match run.dir().map(|d| d.join("baseline.json")) {
                Some(path) if path.exists() => {
                    let text = std::fs::read_to_string(&path)?;
                    Some(serde_json::from_str::<TrafficBaseline>(&text).map_err(|e| {
                        overton_store::StoreError::Validation(format!(
                            "{}: {e} (delete the file to deploy without drift detection)",
                            path.display()
                        ))
                    })?)
                }
                _ => None,
            },
        };
        let pool = Arc::new(WorkerPool::start(engine, config, baseline));
        manager.attach_pool(Arc::clone(&pool));
        let obslog_dir = registry_dir.join(&self.name).join("obslog");
        Ok(Deployment { manager, pool, obslog_dir, temp_registry })
    }

    /// Turns quality reports observed on live traffic (e.g. from
    /// [`DeploymentManager::canary_reports`]) back into the ranked slice
    /// worklist an engineer triages — the monitoring edge of Figure 1's
    /// loop. Slices with fewer than `min_count` scored examples are
    /// skipped.
    pub fn monitor(
        &self,
        reports: &BTreeMap<String, QualityReport>,
        min_count: usize,
    ) -> Vec<SliceDiagnosis> {
        diagnose_reports(reports, min_count)
    }

    /// Re-runs the pipeline on the project's *current* source (for a
    /// two-file project, the freshly edited files) and reports the
    /// targeted `(task, slice)` accuracy of `previous` and of the new run —
    /// the improve-and-retrain workflow of paper §2.3.
    ///
    /// The comparison is significance-gated: the report carries
    /// [`PromotionEvidence`](overton_monitor::stats::PromotionEvidence)
    /// (per-slice success counts, confidence bounds, a one-sided
    /// two-proportion p-value), and
    /// [`ImprovementReport::promoted`] is true only when the new run's
    /// per-slice win is statistically significant — a positive point
    /// delta within holdout noise holds the old model. The evidence
    /// (plus the remaining test-set reuse budget) is persisted into the
    /// new run's `report.json` and its artifact metadata.
    ///
    /// Every retrain variant is this one method on a differently built
    /// project. An incremental retrain runs over a pinned live-store
    /// snapshot, warm-started from the previous artifact; a watchdog
    /// escalation names only a slice, and
    /// [`Run::weakest_task_on_slice`] supplies the task:
    ///
    /// ```text
    /// let task = previous.weakest_task_on_slice(slice)?;
    /// Project::from_snapshot(&snapshot)
    ///     .warm_started(previous.artifact().unwrap().clone())
    ///     .retrain_and_compare(&previous, &task, slice)?;
    /// ```
    pub fn retrain_and_compare(
        &self,
        previous: &Run,
        task: &str,
        slice: &str,
    ) -> Result<ImprovementReport, Error> {
        let mut run = self.run()?;
        let metrics = |r: &Run| r.evaluation().and_then(|e| e.slice_metrics(task, slice));
        let counts = |r: &Run| metrics(r).map_or((0, 0), |m| (m.successes(), m.count as u64));
        let accuracy = |r: &Run| metrics(r).map_or(0.0, |m| m.accuracy);
        let mut evidence = stats::evaluate_promotion(
            task,
            slice,
            counts(previous),
            counts(&run),
            stats::DEFAULT_ALPHA,
        );
        evidence.meter_remaining = run.report().meter_remaining;
        run.record_promotion(&evidence)?;
        Ok(ImprovementReport { before: accuracy(previous), after: accuracy(&run), run, evidence })
    }

    fn allocate_run_dir(&self) -> Result<(String, Option<PathBuf>), Error> {
        let Some(runs) = self.runs_dir() else {
            return Ok(("run-mem".into(), None));
        };
        std::fs::create_dir_all(&runs)?;
        // `create_dir` (not `create_dir_all`) fails on an existing
        // directory, so two concurrent builds racing for the same number
        // cannot both claim it — the loser retries with the next one.
        let mut next = max_run(&runs)?.map_or(1, |(n, _)| n + 1);
        loop {
            let id = format!("run-{next:04}");
            let dir = runs.join(&id);
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok((id, Some(dir))),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Confidence below which the serving cascade escalates to the large
/// model, when one is attached to the deployment.
const DEPLOY_THRESHOLD: f32 = 0.5;

/// Disambiguates scratch registries of rootless deployments within one
/// process.
static DEPLOY_SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// The on-disk shape of a run's `options.json`: the serializable options
/// plus a marker for the pretrained encoder, which is an input artifact
/// the file does not embed (resume must be given the same one).
#[derive(serde::Serialize, serde::Deserialize)]
struct RunOptionsFile {
    uses_pretrained: bool,
    options: OvertonOptions,
}

fn run_number(name: &str) -> Option<u32> {
    name.strip_prefix("run-")?.parse().ok()
}

/// Scans a runs directory for the highest-numbered `run-N` entry — the
/// one rule shared by "which run is latest" and "which id comes next".
fn max_run(runs: &std::path::Path) -> Result<Option<(u32, String)>, Error> {
    let mut max: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(runs)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(n) = run_number(&name) {
            if max.as_ref().is_none_or(|(m, _)| n > *m) {
                max = Some((n, name));
            }
        }
    }
    Ok(max)
}

/// A live deployment produced by [`Project::deploy`]: the canary gate plus
/// the worker pool actually answering traffic. Dropping it shuts the pool
/// down after the queue drains (and removes the scratch registry of a
/// rootless deployment).
pub struct Deployment {
    manager: DeploymentManager,
    pool: Arc<WorkerPool>,
    /// Where [`watch`](Deployment::watch) persists the metrics log:
    /// `<registry>/<deployment>/obslog/`.
    obslog_dir: PathBuf,
    /// Set only for rootless deployments, whose registry lives in a
    /// unique temp directory removed on drop.
    temp_registry: Option<PathBuf>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(dir) = &self.temp_registry {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

impl Deployment {
    /// The canary/rollback gate (start canaries, observe traffic, resolve).
    pub fn manager(&mut self) -> &mut DeploymentManager {
        &mut self.manager
    }

    /// The serving pool (submit traffic, read telemetry).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Serves a burst of live records through the incumbent (and any
    /// active canary shadow), returning the live responses in input order.
    pub fn observe(
        &mut self,
        records: &[overton_store::Record],
    ) -> Vec<Result<overton_model::ServingResponse, overton_store::StoreError>> {
        self.manager.observe(records)
    }

    /// Where [`watch`](Deployment::watch) writes the metrics log.
    pub fn obslog_dir(&self) -> &Path {
        &self.obslog_dir
    }

    /// Starts continuous monitoring of the deployment with the default
    /// rule set ([`obs::default_rules`] over the serving slice space):
    /// attaches an [`obs::Monitor`] to the pool's observer hook and
    /// persists the metrics log under
    /// [`obslog_dir`](Deployment::obslog_dir), where `overton monitor`
    /// can replay it.
    pub fn watch(&self) -> Result<obs::Monitor, Error> {
        self.watch_with(obs::ObsConfig {
            rules: obs::default_rules(self.pool.telemetry().slice_names()),
            ..Default::default()
        })
    }

    /// [`watch`](Deployment::watch) with an explicit configuration (the
    /// rules are taken as given).
    pub fn watch_with(&self, config: obs::ObsConfig) -> Result<obs::Monitor, Error> {
        Ok(obs::Monitor::attach(&self.pool, config, Some(&self.obslog_dir))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_model::TrainConfig;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::LiveStore;

    fn quick_options() -> OvertonOptions {
        OvertonOptions {
            train: TrainConfig { epochs: 2, early_stop_patience: 0, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let empty = Dataset::new(overton_nlp::workload_schema());
        let result = Project::from_dataset(&empty).with_options(quick_options()).run();
        assert!(matches!(result, Err(Error::NoTrainingData)), "{result:?}");
    }

    #[test]
    fn incremental_retrain_warm_starts_from_a_pinned_snapshot() {
        let dir = std::env::temp_dir()
            .join(format!("overton-proj-incr-{}", std::process::id()))
            .join("live");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();

        let base = generate_workload(&WorkloadConfig {
            n_train: 120,
            n_dev: 30,
            n_test: 40,
            seed: 21,
            ..Default::default()
        });
        let live = LiveStore::create_from(&dir, base.seal_shards(2)).unwrap();

        // Cold run over the generation-0 snapshot.
        let snap0 = live.snapshot();
        let project = Project::from_snapshot(&snap0).with_options(quick_options());
        let run = project.run().unwrap();
        assert_eq!(run.report().snapshot_generation, Some(0));
        assert!(!run.report().warm_started);
        let cold_artifact = run.artifact().unwrap().clone();

        // Fresh labeled traffic lands in a delta; the pinned cold
        // snapshot must not see it.
        let extra = generate_workload(&WorkloadConfig {
            n_train: 40,
            n_dev: 0,
            n_test: 0,
            seed: 404,
            ..Default::default()
        });
        for record in extra.records() {
            live.append(record.clone()).unwrap();
        }
        live.flush().unwrap();
        let snap1 = live.snapshot();
        assert!(snap1.generation() > snap0.generation());
        assert_eq!(snap0.len(), 190, "pinned snapshot saw appended rows");

        // Warm retrain over the new snapshot: previous space and
        // architecture carry over, lineage is recorded.
        let report = Project::from_snapshot(&snap1)
            .with_options(quick_options())
            .warm_started(cold_artifact.clone())
            .retrain_and_compare(&run, "Intent", "complex-disambiguation")
            .unwrap();
        assert!((0.0..=1.0).contains(&report.before));
        assert!((0.0..=1.0).contains(&report.after));
        let artifact = report.run.artifact().unwrap();
        assert_eq!(artifact.metadata.get("warm_started").map(String::as_str), Some("true"));
        assert_eq!(
            artifact.metadata.get("snapshot_generation"),
            Some(&snap1.generation().to_string())
        );
        assert!(artifact.metadata.contains_key("promotion"));
        assert!(report.run.trials().is_empty(), "warm runs never search");
        assert_eq!(
            artifact.space.token_vocab.len(),
            cold_artifact.space.token_vocab.len(),
            "warm run must encode in the previous run's feature space"
        );

        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }
}
