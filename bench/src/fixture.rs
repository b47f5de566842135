//! Seeded inputs. Everything a workload feeds the system is generated
//! here from the run's `--seed`, which reaches every generator: the
//! workload (data), the traffic stream (requests), and the model, search
//! and training seeds. The system under test only ever sees the
//! generated files and records.

use crate::estimators::Tally;
use crate::spec::Report;
use crate::Res;
use overton::model::{
    AggregationKind, DeployableModel, EmbeddingKind, EncoderKind, ModelConfig, SearchConfig,
    TrainConfig, TuningSpec,
};
use overton::nlp::{KnowledgeBase, TrafficConfig, TrafficStream, WorkloadConfig};
use overton::serving::TrafficBaseline;
use overton::store::Record;
use overton::{OvertonOptions, Project, Run, Stage};
use std::path::Path;

pub fn workload(seed: u64, n_train: usize, n_dev: usize, n_test: usize) -> WorkloadConfig {
    WorkloadConfig { n_train, n_dev, n_test, seed, ..Default::default() }
}

fn train_config(seed: u64, epochs: usize) -> TrainConfig {
    // No early stopping: the amount of work must not depend on how the
    // dev curve happens to bend on this seed.
    TrainConfig { epochs, early_stop_patience: 0, seed, grad_workers: 1, ..Default::default() }
}

/// Pipeline options with every seed set. With `search`, a two-trial
/// search (one epoch each, two threads) picks between mean and max
/// aggregation: the candidates cost the same to train, so the build's
/// wall time measures the code and not which candidate this seed's dev
/// split happened to favour.
pub fn options(seed: u64, epochs: usize, search: bool) -> OvertonOptions {
    OvertonOptions {
        base_model: ModelConfig { seed, ..Default::default() },
        tuning: search.then(|| TuningSpec {
            sizes: vec![(32, 48)],
            encoders: vec![EncoderKind::Cnn],
            embeddings: vec![EmbeddingKind::Learned],
            aggregations: vec![AggregationKind::Mean, AggregationKind::Max],
        }),
        search: SearchConfig { trials: 2, threads: 2, seed, train: train_config(seed, 1) },
        train: train_config(seed, epochs),
        ..Default::default()
    }
}

/// Rows of the small build that gives the serving workloads something to
/// serve. Serving speed depends on the architecture, not on how well the
/// weights fit, so one short epoch is enough.
pub const MODEL_ROWS: (usize, usize, usize) = (800, 100, 200);

/// A packaged artifact and the traffic baseline its run recorded.
pub struct Model {
    pub artifact: DeployableModel,
    pub baseline: TrafficBaseline,
}

/// Builds the serving workloads' model through the two-file front door
/// under `dir`, exactly as `overton build` would.
pub fn train_model(dir: &Path, seed: u64) -> Res<Model> {
    let (train, dev, test) = MODEL_ROWS;
    let (schema, data) =
        overton::nlp::write_two_file_workload(&workload(seed, train, dev, test), dir.join("in"))?;
    let run = Project::from_files(schema, data)
        .at(dir.join("project"))
        .with_options(options(seed, 1, false))
        .run()?;
    let artifact = run.artifact().ok_or("the model build packaged no artifact")?.clone();
    let baseline = run.baseline().ok_or("the model build recorded no traffic baseline")?.clone();
    Ok(Model { artifact, baseline })
}

/// Counts the six pipeline stages of `run` as operations, the ones that
/// did not complete as failures.
pub fn note_stages(report: &mut Report, run: &Run) {
    for stage in Stage::ALL {
        report.note(Tally { attempted: 1, failed: u64::from(!run.report().completed(stage)) });
    }
}

/// `n` seeded live-traffic records (no gold labels: these are requests).
pub fn traffic(seed: u64, n: usize) -> Vec<Record> {
    let kb = KnowledgeBase::standard();
    let config = TrafficConfig { seed, with_gold: false, ..Default::default() };
    TrafficStream::new(&kb, config).records(n)
}
