//! Coarse-grained architecture and hyperparameter search.
//!
//! "Overton searches over relatively limited large blocks, e.g., should we
//! use an LSTM or CNN, not at a fine-grained level of connections" (§4).
//! Trials run in parallel on scoped threads; each trains a short-budget
//! model and is scored by its best dev agreement. The winner's training
//! state is kept and every loser's dropped: [`train_chosen`] continues the
//! winner to the full budget instead of retraining it from epoch 0,
//! whenever continuing provably gives the bits a fresh run would.

use crate::config::{EmbeddingKind, ModelConfig, TrainConfig, TuningSpec};
use crate::features::{CompiledExample, FeatureSpace};
use crate::network::CompiledModel;
use crate::pretrained::PretrainedEncoder;
use crate::trainer::{dev_agreement, TrainReport, TrainState};
use overton_store::{par_map, Schema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Search budget and parallelism.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SearchConfig {
    /// Maximum trials (the spec's cross-product is subsampled when larger).
    pub trials: usize,
    /// Worker threads.
    pub threads: usize,
    /// Subsampling seed.
    pub seed: u64,
    /// Per-trial training budget (keep short; the winner's training is
    /// continued to the final budget by [`train_chosen`]).
    pub train: TrainConfig,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            trials: 6,
            threads: 4,
            seed: 0,
            train: TrainConfig { epochs: 3, early_stop_patience: 0, ..Default::default() },
        }
    }
}

/// One trial's outcome.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrialResult {
    /// The configuration tried.
    pub config: ModelConfig,
    /// Dev agreement achieved after the short training budget.
    pub dev_score: f64,
}

/// The winning trial: its configuration and its training state after the
/// search budget, held in memory (never persisted) until
/// [`train_chosen`] continues it.
pub struct Winner {
    config: ModelConfig,
    state: TrainState,
}

impl Winner {
    /// The winning configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }
}

/// Runs the search and returns the winner plus all trials (sorted
/// best-first).
///
/// # Panics
/// Panics if the spec contains `Pretrained` embeddings but no artifact is
/// supplied, or if there are no dev examples to score on.
#[allow(clippy::too_many_arguments)] // mirrors the pipeline stages 1:1
pub fn search(
    schema: &Schema,
    space: &FeatureSpace,
    train: &[CompiledExample],
    dev: &[CompiledExample],
    spec: &TuningSpec,
    base: &ModelConfig,
    pretrained: Option<&PretrainedEncoder>,
    config: &SearchConfig,
) -> (Winner, Vec<TrialResult>) {
    assert!(!dev.is_empty(), "search needs dev examples to score trials");
    let mut candidates = spec.enumerate(base);
    if pretrained.is_none() {
        assert!(
            candidates.iter().all(|c| c.embedding == EmbeddingKind::Learned),
            "spec includes pretrained embeddings but no artifact was supplied"
        );
    }
    // Subsample without replacement when the space exceeds the budget.
    let mut rng = SmallRng::seed_from_u64(config.seed);
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.gen_range(0..=i));
    }
    candidates.truncate(config.trials.max(1));

    let mut trials = par_map(config.threads, candidates, |trial_config| {
        let mut model = compile_candidate(schema, space, &trial_config, pretrained);
        let mut state = TrainState::new(&model, train.len(), &config.train);
        let report = state.run(&mut model, train, dev);
        // The best epoch's score is the dev agreement of the weights the
        // run restored; only a run of no epochs has none.
        let dev_score =
            if report.epochs_run == 0 { dev_agreement(&model, dev) } else { report.best_dev_score };
        (TrialResult { config: trial_config, dev_score }, state)
    });
    // Trials come back in candidate order and the sort is stable, so ties
    // on dev score resolve the same way for any thread count.
    trials.sort_by(|(a, _), (b, _)| {
        b.dev_score.partial_cmp(&a.dev_score).expect("dev scores are means of finite agreements")
    });
    let (trials, states): (Vec<TrialResult>, Vec<TrainState>) = trials.into_iter().unzip();
    // Keep the winner's state; the losers' drop with the iterator.
    let state = states.into_iter().next().expect("at least one trial");
    (Winner { config: trials[0].config.clone(), state }, trials)
}

/// Compiles a candidate architecture, handing the pretrained artifact only
/// to a config that asks for pretrained embeddings. Trials and the final
/// train both compile through here, so a trial's weights fit the model
/// the final train compiles.
fn compile_candidate(
    schema: &Schema,
    space: &FeatureSpace,
    config: &ModelConfig,
    pretrained: Option<&PretrainedEncoder>,
) -> CompiledModel {
    let artifact = match config.embedding {
        EmbeddingKind::Pretrained => pretrained,
        EmbeddingKind::Learned => None,
    };
    CompiledModel::compile(schema, space, config, artifact)
}

/// Compiles `chosen` and trains it under `config`. When `winner` is the
/// search trial of `chosen` over the same `train` and `dev` examples, and
/// continuing it gives the bits a fresh run would (see the trainer's `TrainState::continue_under`), its training
/// continues from the trial's last epoch; otherwise it starts from epoch
/// 0. Either way the model and report are the ones a fresh run returns.
#[allow(clippy::too_many_arguments)] // mirrors `search` 1:1
pub fn train_chosen(
    schema: &Schema,
    space: &FeatureSpace,
    train: &[CompiledExample],
    dev: &[CompiledExample],
    chosen: &ModelConfig,
    pretrained: Option<&PretrainedEncoder>,
    config: &TrainConfig,
    winner: Option<Winner>,
) -> (CompiledModel, TrainReport) {
    let mut model = compile_candidate(schema, space, chosen, pretrained);
    let mut state = winner
        .filter(|winner| winner.config == *chosen)
        .and_then(|winner| winner.state.continue_under(config))
        .unwrap_or_else(|| TrainState::new(&model, train.len(), config));
    let report = state.run(&mut model, train, dev);
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::prepare_store;
    use crate::config::{AggregationKind, EncoderKind};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_supervision::CombineMethod;

    #[test]
    fn search_ranks_trials_and_returns_best() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 100,
            n_dev: 30,
            n_test: 10,
            seed: 3,
            ..Default::default()
        });
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        let spec = TuningSpec {
            sizes: vec![(24, 32)],
            encoders: vec![EncoderKind::MeanBag, EncoderKind::Cnn],
            embeddings: vec![EmbeddingKind::Learned],
            aggregations: vec![AggregationKind::Mean],
        };
        let (winner, trials) = search(
            ds.schema(),
            &prepared.space,
            &prepared.train,
            &prepared.dev,
            &spec,
            &ModelConfig::default(),
            None,
            &SearchConfig {
                trials: 2,
                threads: 2,
                train: TrainConfig { epochs: 2, ..Default::default() },
                ..Default::default()
            },
        );
        assert_eq!(trials.len(), 2);
        assert!(trials[0].dev_score >= trials[1].dev_score);
        assert_eq!(*winner.config(), trials[0].config);
    }

    /// With no dev targets every trial scores 0.0, so the winner and the
    /// trial order rest entirely on how ties resolve. They must follow
    /// candidate order, not which thread finished first.
    #[test]
    fn tied_trials_resolve_identically_for_any_thread_count() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 10,
            n_test: 5,
            seed: 3,
            ..Default::default()
        });
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        let mut dev = prepared.dev.clone();
        for example in &mut dev {
            example.targets.clear();
        }
        // A slow encoder ahead of a fast one after the seeded shuffle:
        // with two threads the second candidate finishes first.
        let spec = TuningSpec {
            sizes: vec![(24, 32)],
            encoders: vec![EncoderKind::Lstm, EncoderKind::MeanBag],
            embeddings: vec![EmbeddingKind::Learned],
            aggregations: vec![AggregationKind::Mean],
        };
        let run = |threads| {
            search(
                ds.schema(),
                &prepared.space,
                &prepared.train,
                &dev,
                &spec,
                &ModelConfig::default(),
                None,
                &SearchConfig {
                    trials: 2,
                    threads,
                    seed: 0,
                    train: TrainConfig { epochs: 1, early_stop_patience: 0, ..Default::default() },
                },
            )
        };
        let (serial_best, serial_trials) = run(1);
        let serial_best = serial_best.config().clone();
        assert!(serial_trials.iter().all(|t| t.dev_score == 0.0), "{serial_trials:?}");
        assert_eq!(serial_best.encoder, EncoderKind::Lstm, "the slow trial leads candidate order");
        let (parallel_best, parallel_trials) = run(2);
        assert_eq!(*parallel_best.config(), serial_best);
        assert_eq!(parallel_trials, serial_trials);
    }

    #[test]
    #[should_panic(expected = "needs dev examples")]
    fn empty_dev_rejected() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 10,
            n_dev: 0,
            n_test: 5,
            seed: 3,
            ..Default::default()
        });
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        let _ = search(
            ds.schema(),
            &prepared.space,
            &prepared.train,
            &prepared.dev,
            &TuningSpec::default(),
            &ModelConfig::default(),
            None,
            &SearchConfig::default(),
        );
    }
}
