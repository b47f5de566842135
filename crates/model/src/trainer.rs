//! Minibatch training with early stopping on a dev split.
//!
//! Everything the loop carries from one epoch to the next is one
//! `TrainState`. [`train_model`] runs a fresh one; the search's final
//! train continues the winning trial's instead, when its
//! `continue_under` proves the result is the bits a fresh run gives.
//!
//! # Determinism contract
//!
//! A window's examples run through the training executor
//! (`backprop.rs`) row-stacked: the window is split into
//! [`TrainConfig::grad_workers`] contiguous sub-windows, one slot arena
//! each, on scoped threads. The trajectory is nonetheless
//! worker-count-invariant, and equal to running each example as a batch
//! of one: final weights are bit-identical whether a window ran on 1
//! arena or 8.
//! Four properties make that hold:
//!
//! 1. Every example draws a private dropout seed from the main RNG *in
//!    shuffle order*, before dispatch — the main RNG stream never
//!    depends on scheduling, and an example's masks never depend on
//!    which arena it shares.
//! 2. Windows are aligned to optimizer steps: forwards never mutate
//!    parameters, and a window never extends past the example that
//!    completes a minibatch, so every forward sees exactly the
//!    parameters the serial loop would have shown it.
//! 3. Stacking changes no example's bits. GEMM rows are independent;
//!    what mixes rows runs per example; each step's backward adds its
//!    deltas in a fixed order; and each example's parameter gradient
//!    comes out as partials, each summed from zero over that example's
//!    rows only. So each example's loss and partials are the bits a batch
//!    of one computes.
//! 4. The partials are merged into the store in example order (and, per
//!    parameter, in step order within an example) on the calling thread,
//!    so the f32 accumulation order — and thus every rounding — is fixed.

use crate::backprop::{self, Workspace};
use crate::config::TrainConfig;
use crate::features::CompiledExample;
use crate::infer::{argmax, Decode};
use crate::network::CompiledModel;
use overton_store::par_map;
use overton_tensor::optim::Adam;
use overton_tensor::ParamStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Summary of a training run. Serializable: the `Run` API persists it as
/// the train stage's artifact under the run directory.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainReport {
    /// Epochs actually run (early stopping may cut this short).
    pub epochs_run: usize,
    /// Best dev score seen (mean per-task agreement with dev targets).
    pub best_dev_score: f64,
    /// Per-epoch `(mean train loss, dev score)`.
    pub history: Vec<(f64, f64)>,
}

/// Trains `model` in place. Dev examples must carry targets (typically gold
/// one-hots); the parameters from the best dev epoch are restored at the
/// end.
pub fn train_model(
    model: &mut CompiledModel,
    train: &[CompiledExample],
    dev: &[CompiledExample],
    config: &TrainConfig,
) -> TrainReport {
    TrainState::new(model, train.len(), config).run(model, train, dev)
}

/// Everything the training loop carries from one epoch to the next. A
/// fresh state is epoch 0 of a run; [`run`](Self::run) trains it to its
/// config's epoch budget and can be called again after
/// [`continue_under`](Self::continue_under) raised that budget. Starting
/// from scratch is resuming from the fresh state: there is one loop.
pub(crate) struct TrainState {
    /// The configuration the epochs ran (or will run) under.
    config: TrainConfig,
    /// The latest epoch's weights. The model holds them while the loop
    /// runs and the best epoch's weights between runs.
    params: ParamStore,
    opt: Adam,
    rng: SmallRng,
    order: Vec<usize>,
    best_dev: f64,
    best_params: ParamStore,
    since_best: usize,
    /// Per-epoch `(mean train loss, dev score)`; its length is the number
    /// of epochs run.
    history: Vec<(f64, f64)>,
    stopped_early: bool,
}

impl TrainState {
    /// Epoch 0 of a run of `config` over `train_len` examples from
    /// `model`'s current weights.
    pub(crate) fn new(model: &CompiledModel, train_len: usize, config: &TrainConfig) -> Self {
        assert!(train_len > 0, "no training examples");
        Self {
            config: config.clone(),
            params: model.params.clone(),
            opt: Adam::new(config.learning_rate).with_weight_decay(config.weight_decay),
            rng: SmallRng::seed_from_u64(config.seed),
            order: (0..train_len).collect(),
            best_dev: f64::NEG_INFINITY,
            best_params: model.params.clone(),
            since_best: 0,
            history: Vec::with_capacity(config.epochs),
            stopped_early: false,
        }
    }

    /// The state a fresh run under `config` would be in after this
    /// state's epochs, or `None` when that run's bits could differ. It
    /// continues only when every field that shapes the trajectory is
    /// equal (the epoch budget, `grad_workers` and the patience do not:
    /// workers never change the bits, and the patience only decides
    /// when the loop breaks), the budget reaches the epochs already run,
    /// and neither this run's patience nor `config`'s would have stopped
    /// before its last epoch. If `config`'s patience stops exactly there,
    /// the continued state is finished: a fresh run ends where this one
    /// did.
    pub(crate) fn continue_under(mut self, config: &TrainConfig) -> Option<Self> {
        let epochs_run = self.history.len();
        if !same_trajectory(&self.config, config)
            || config.epochs < epochs_run
            || self.stopped_early
        {
            return None;
        }
        let (mut best_dev, mut since_best) = (f64::NEG_INFINITY, 0usize);
        for (epoch, &(_, dev_score)) in self.history.iter().enumerate() {
            if dev_score > best_dev {
                (best_dev, since_best) = (dev_score, 0);
            } else {
                since_best += 1;
                if patience_exhausted(config.early_stop_patience, since_best) {
                    if epoch + 1 < epochs_run {
                        return None;
                    }
                    self.stopped_early = true;
                }
            }
        }
        self.config = config.clone();
        Some(self)
    }

    /// Runs epochs `epochs_run..config.epochs` (fewer if the patience
    /// runs out), then leaves the best epoch's weights in `model`.
    pub(crate) fn run(
        &mut self,
        model: &mut CompiledModel,
        train: &[CompiledExample],
        dev: &[CompiledExample],
    ) -> TrainReport {
        assert_eq!(train.len(), self.order.len(), "training set changed between runs");
        let config = &self.config;
        let mut workspaces: Vec<Workspace> =
            (0..config.grad_workers.max(1)).map(|_| Workspace::default()).collect();
        model.params = std::mem::take(&mut self.params);
        while !self.stopped_early && self.history.len() < config.epochs {
            let order = &mut self.order;
            for i in (1..order.len()).rev() {
                order.swap(i, self.rng.gen_range(0..=i));
            }
            let mut epoch_loss = 0.0f64;
            let mut batch_count = 0usize;
            let mut in_batch = 0usize;
            let mut cursor = 0usize;
            while cursor < order.len() {
                // Step-aligned window: take exactly as many examples as the
                // current minibatch still needs. Some may contribute no loss,
                // in which case the next window tops the batch up — a step
                // can therefore only ever land on a window boundary, exactly
                // where the serial loop would have stepped.
                let needed = config.batch_size.saturating_sub(in_batch).max(1);
                let take = needed.min(order.len() - cursor);
                let window = &order[cursor..cursor + take];
                cursor += take;
                // Per-example dropout seeds come off the main RNG in shuffle
                // order, so the stream is identical for any worker count.
                let seeds: Vec<u64> = window.iter().map(|_| self.rng.gen()).collect();
                let used = window_gradients(model, train, window, &seeds, config, &mut workspaces);
                for partials in workspaces[..used].iter().map(|ws| &ws.partials) {
                    for &loss in partials.losses.iter().flatten() {
                        epoch_loss += f64::from(loss);
                        in_batch += 1;
                    }
                    partials.merge_into(&mut model.params);
                }
                if in_batch >= config.batch_size {
                    model.params.clip_grad_norm(config.clip_norm);
                    self.opt.step(&mut model.params);
                    model.params.zero_grads();
                    batch_count += in_batch;
                    in_batch = 0;
                }
            }
            if in_batch > 0 {
                model.params.clip_grad_norm(config.clip_norm);
                self.opt.step(&mut model.params);
                model.params.zero_grads();
                batch_count += in_batch;
            }
            let mean_loss = if batch_count == 0 { 0.0 } else { epoch_loss / batch_count as f64 };
            let dev_score = if dev.is_empty() { -mean_loss } else { dev_agreement(model, dev) };
            self.history.push((mean_loss, dev_score));
            if dev_score > self.best_dev {
                self.best_dev = dev_score;
                self.best_params = model.params.clone();
                self.since_best = 0;
            } else {
                self.since_best += 1;
                self.stopped_early =
                    patience_exhausted(config.early_stop_patience, self.since_best);
            }
        }
        self.params = std::mem::replace(&mut model.params, self.best_params.clone());
        TrainReport {
            epochs_run: self.history.len(),
            best_dev_score: self.best_dev,
            history: self.history.clone(),
        }
    }
}

/// Whether two configs drive the loop through the same epochs, bit for
/// bit, up to the shorter budget. The fields are named, not elided, so a
/// new `TrainConfig` field cannot slip past this without a decision.
fn same_trajectory(a: &TrainConfig, b: &TrainConfig) -> bool {
    let TrainConfig {
        epochs: _,
        batch_size,
        learning_rate,
        weight_decay,
        clip_norm,
        early_stop_patience: _,
        indicator_loss_weight,
        slice_loss_boost,
        seed,
        grad_workers: _,
    } = a;
    *batch_size == b.batch_size
        && learning_rate.to_bits() == b.learning_rate.to_bits()
        && weight_decay.to_bits() == b.weight_decay.to_bits()
        && clip_norm.to_bits() == b.clip_norm.to_bits()
        && indicator_loss_weight.to_bits() == b.indicator_loss_weight.to_bits()
        && slice_loss_boost.to_bits() == b.slice_loss_boost.to_bits()
        && *seed == b.seed
}

/// The early-stop rule: `since_best` epochs without a dev improvement
/// exhaust a nonzero `patience`.
fn patience_exhausted(patience: usize, since_best: usize) -> bool {
    patience > 0 && since_best >= patience
}

/// Computes a window's gradients into `workspaces`, returning how many it
/// used: one per contiguous sub-window of `config.grad_workers` (sizes
/// differ by at most one, larger first: 16 over 3 is 6/5/5), on scoped
/// threads. The caller merges them in order, so examples merge in window
/// order whichever worker ran them: the trajectory is bit-identical
/// across worker counts.
fn window_gradients(
    model: &CompiledModel,
    train: &[CompiledExample],
    window: &[usize],
    seeds: &[u64],
    config: &TrainConfig,
    workspaces: &mut [Workspace],
) -> usize {
    let parts = config.grad_workers.clamp(1, window.len().max(1));
    let (base, extra) = (window.len() / parts, window.len() % parts);
    let mut jobs = Vec::with_capacity(parts);
    let mut start = 0;
    for (part, ws) in workspaces[..parts].iter_mut().enumerate() {
        let end = start + base + usize::from(part < extra);
        jobs.push((start..end, ws));
        start = end;
    }
    par_map(config.grad_workers, jobs, |(rows, ws)| {
        let examples: Vec<&CompiledExample> =
            window[rows.clone()].iter().map(|&i| &train[i]).collect();
        backprop::gradients(&model.plan, &model.params, &examples, &seeds[rows], config, ws);
    });
    parts
}

/// Mean per-task agreement of model predictions with example targets
/// (used as the dev-selection score and by the hyperparameter search),
/// read from each example's logits in place.
pub fn dev_agreement(model: &CompiledModel, examples: &[CompiledExample]) -> f64 {
    use overton_supervision::ProbLabel;
    let mut total = 0.0f64;
    let mut n = 0usize;
    model.infer(examples, |b, logits| {
        // Heads come in task-name order, as the targets do, so the scores
        // add up in target order.
        for head in logits.heads() {
            let Some(target) = examples[b].targets.get(&head.head.task) else { continue };
            let score = match (head.head.decode, target) {
                (Decode::Single { bce: false } | Decode::Select, ProbLabel::Dist(d)) => {
                    f64::from(head.argmax() == argmax(d))
                }
                (Decode::PerElement { bce: false }, ProbLabel::SeqDist(rows)) => {
                    if head.rows().len() != rows.len() || rows.is_empty() {
                        continue;
                    }
                    let correct =
                        head.row_argmax().zip(rows).filter(|(c, row)| *c == argmax(row)).count();
                    correct as f64 / rows.len() as f64
                }
                (Decode::Single { bce: true }, ProbLabel::Bits(target)) => {
                    bit_agreement(std::iter::once(head.bits()), std::slice::from_ref(target))
                }
                (Decode::PerElement { bce: true }, ProbLabel::SeqBits(target_rows)) => {
                    bit_agreement(head.row_bits(), target_rows)
                }
                _ => continue,
            };
            total += score;
            n += 1;
        }
    });
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The share of predicted bits that match their target's (a probability
/// above one half), over the rows and columns both have.
fn bit_agreement(
    pred: impl Iterator<Item = impl Iterator<Item = bool>>,
    target: &[Vec<f32>],
) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (p, t) in pred.zip(target) {
        for (a, &b) in p.zip(t) {
            total += 1;
            if a == (b > 0.5) {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AggregationKind, ModelConfig};
    use crate::features::{gold_to_prob, FeatureSpace};
    use crate::oracle::{self, soft_training_set};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;

    fn workload() -> Dataset {
        generate_workload(&WorkloadConfig {
            n_train: 150,
            n_dev: 40,
            n_test: 40,
            seed: 23,
            gold_train_fraction: 1.0, // direct gold training for this test
            ..Default::default()
        })
    }

    fn gold_examples(
        ds: &Dataset,
        indices: &[usize],
        space: &FeatureSpace,
    ) -> Vec<CompiledExample> {
        indices
            .iter()
            .map(|&i| {
                let record = &ds.records()[i];
                let mut ex = CompiledExample::from_record(record, i, space, ds.schema());
                for task in ds.schema().tasks.keys() {
                    if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                        ex.targets.insert(task.clone(), p);
                    }
                }
                ex
            })
            .collect()
    }

    #[test]
    fn training_improves_dev_agreement() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let train = gold_examples(&ds, &ds.train_indices(), &space);
        let dev = gold_examples(&ds, &ds.dev_indices(), &space);
        let mut model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        let before = dev_agreement(&model, &dev);
        let report = train_model(
            &mut model,
            &train,
            &dev,
            &TrainConfig { epochs: 6, early_stop_patience: 0, ..Default::default() },
        );
        let after = dev_agreement(&model, &dev);
        assert!(
            after > before + 0.1,
            "dev agreement must improve: before {before:.3}, after {after:.3}"
        );
        assert_eq!(report.history.len(), report.epochs_run);
        assert!(report.best_dev_score >= after - 1e-9);
    }

    #[test]
    fn early_stopping_restores_best_params() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let train = gold_examples(&ds, &ds.train_indices()[..60], &space);
        let dev = gold_examples(&ds, &ds.dev_indices(), &space);
        let mut model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        let report = train_model(
            &mut model,
            &train,
            &dev,
            &TrainConfig { epochs: 12, early_stop_patience: 2, ..Default::default() },
        );
        // Restored params must reproduce the reported best dev score.
        let final_score = dev_agreement(&model, &dev);
        assert!(
            (final_score - report.best_dev_score).abs() < 1e-9,
            "restored {final_score} vs reported best {}",
            report.best_dev_score
        );
    }

    #[test]
    fn grad_workers_do_not_change_the_trajectory() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let train = gold_examples(&ds, &ds.train_indices()[..48], &space);
        let dev = gold_examples(&ds, &ds.dev_indices(), &space);
        // batch_size 7 does not divide 48, so windows hit both the
        // full-batch and trailing-partial step paths.
        let config = |workers: usize| TrainConfig {
            epochs: 2,
            batch_size: 7,
            early_stop_patience: 0,
            grad_workers: workers,
            ..Default::default()
        };
        let mut reference: Option<(CompiledModel, TrainReport)> = None;
        for workers in [1usize, 2, 4] {
            let mut model =
                CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
            let report = train_model(&mut model, &train, &dev, &config(workers));
            match &reference {
                None => reference = Some((model, report)),
                Some((ref_model, ref_report)) => {
                    assert_eq!(
                        report, *ref_report,
                        "training report diverged at {workers} workers"
                    );
                    for id in ref_model.params.ids() {
                        assert_eq!(
                            model.params.value(id),
                            ref_model.params.value(id),
                            "param {:?} diverged at {workers} workers",
                            ref_model.params.name(id)
                        );
                    }
                }
            }
        }
    }

    /// Trains `trial`, continues its state under `last` and checks the
    /// result against a fresh run of `last`, params and report bit for
    /// bit. Returns the continued report, or `None` when `continue_under`
    /// refused and the final train would start over.
    fn continue_against_fresh(
        compile: &dyn Fn() -> CompiledModel,
        train: &[CompiledExample],
        dev: &[CompiledExample],
        trial: &TrainConfig,
        last: &TrainConfig,
    ) -> Option<TrainReport> {
        let mut model = compile();
        let mut state = TrainState::new(&model, train.len(), trial);
        state.run(&mut model, train, dev);
        let mut state = state.continue_under(last)?;
        let mut continued = compile();
        let report = state.run(&mut continued, train, dev);
        let mut fresh = compile();
        let fresh_report = train_model(&mut fresh, train, dev, last);
        let case = format!("trial {trial:?}, last {last:?}");
        assert_eq!(report, fresh_report, "{case}: report diverged");
        for id in fresh.params.ids() {
            let bits = |m: &CompiledModel| -> Vec<u32> {
                m.params.value(id).as_slice().iter().map(|x| x.to_bits()).collect()
            };
            assert!(bits(&continued) == bits(&fresh), "{case}: {} diverged", fresh.params.name(id));
        }
        Some(report)
    }

    #[test]
    fn continued_training_is_bit_identical_to_a_fresh_run() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let train = gold_examples(&ds, &ds.train_indices()[..40], &space);
        let dev = gold_examples(&ds, &ds.dev_indices(), &space);
        let config =
            ModelConfig { token_dim: 8, entity_dim: 8, hidden_dim: 8, ..Default::default() };
        let compile = || CompiledModel::compile(ds.schema(), &space, &config, None);
        let run = |epochs, early_stop_patience| TrainConfig {
            epochs,
            early_stop_patience,
            batch_size: 7,
            ..Default::default()
        };
        let continues = |trial: &TrainConfig, last: &TrainConfig| {
            continue_against_fresh(&compile, &train, &dev, trial, last).is_some()
        };
        assert!(continues(&run(2, 0), &run(2, 0)), "equal budgets");
        assert!(continues(&run(2, 0), &run(4, 0)), "a longer final budget");
        assert!(!continues(&run(3, 0), &run(2, 0)), "a final budget below the trial's");
        assert!(continues(&run(2, 0), &run(5, 3)), "patience 0 -> 3");
        let workers = TrainConfig { grad_workers: 3, ..run(4, 0) };
        assert!(continues(&run(2, 0), &workers), "grad_workers never change the bits");
        let learning_rate = TrainConfig { learning_rate: 1e-3, ..run(4, 0) };
        assert!(!continues(&run(2, 0), &learning_rate), "a different learning rate");

        // With no dev targets every epoch scores 0.0, so only the first
        // improves and patience p stops a run at epoch p + 1.
        let mut flat_dev = dev.clone();
        flat_dev.iter_mut().for_each(|ex| ex.targets.clear());
        let continued = |trial: &TrainConfig, last: &TrainConfig| {
            continue_against_fresh(&compile, &train, &flat_dev, trial, last)
                .map(|report| report.epochs_run)
        };
        assert_eq!(continued(&run(4, 0), &run(8, 2)), None, "patience fires before the trial ends");
        assert_eq!(continued(&run(4, 0), &run(8, 3)), Some(4), "patience fires at its last epoch");
        assert_eq!(continued(&run(4, 0), &run(8, 4)), Some(5), "patience fires after it");
        assert_eq!(continued(&run(6, 2), &run(8, 4)), None, "the trial stopped early");
    }

    /// Stacking changes no bit: every window stacked on one arena, or split
    /// over two or three, trains the weights of the per-example oracle,
    /// which runs each example as a batch of one (one worker per example)
    /// and merges them in order. Wide enough that stacked products take
    /// the blocked GEMM while per-example ones stay on the row kernel.
    #[test]
    fn stacked_trainer_is_bit_identical_to_the_per_example_oracle() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let schema = oracle::every_branch_schema();
        let train = soft_training_set(&ds, &space);
        let mut dev = oracle::every_branch_examples(&ds, &ds.dev_indices()[..8], &space, &schema);
        for ex in &mut dev {
            let record = &ds.records()[ex.record_index];
            for task in ds.schema().tasks.keys() {
                if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                    ex.targets.insert(task.clone(), p);
                }
            }
        }
        for encoder in oracle::ENCODERS {
            for aggregation in [AggregationKind::Mean, AggregationKind::Max] {
                for slice_heads in [true, false] {
                    let (token_dim, entity_dim, hidden_dim) = (16, 8, 16);
                    let config = ModelConfig {
                        encoder,
                        aggregation,
                        slice_heads,
                        token_dim,
                        entity_dim,
                        hidden_dim,
                        ..Default::default()
                    };
                    for batch_size in [1, 7, 16] {
                        let train_config = |grad_workers| TrainConfig {
                            epochs: 2,
                            batch_size,
                            early_stop_patience: 0,
                            grad_workers,
                            ..Default::default()
                        };
                        let compile = || CompiledModel::compile(&schema, &space, &config, None);
                        let mut oracle_model = compile();
                        let oracle_config = train_config(batch_size);
                        let oracle_report =
                            train_model(&mut oracle_model, &train, &dev, &oracle_config);
                        for workers in [1, 2, 3] {
                            let case = format!("{config:?}, batch {batch_size}, {workers} workers");
                            let mut model = compile();
                            let report =
                                train_model(&mut model, &train, &dev, &train_config(workers));
                            assert_eq!(report, oracle_report, "{case}: report diverged");
                            for id in model.params.ids() {
                                let bits = |m: &CompiledModel| -> Vec<u32> {
                                    let value = m.params.value(id).as_slice();
                                    value.iter().map(|x| x.to_bits()).collect()
                                };
                                let name = model.params.name(id);
                                assert!(bits(&model) == bits(&oracle_model), "{case}: {name}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no training examples")]
    fn empty_training_set_rejected() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let mut model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        let _ = train_model(&mut model, &[], &[], &TrainConfig::default());
    }
}
