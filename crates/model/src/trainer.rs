//! Minibatch training with early stopping on a dev split.
//!
//! # Determinism contract
//!
//! Gradient computation is data-parallel ([`TrainConfig::grad_workers`])
//! but the trajectory is worker-count-invariant: final weights are
//! bit-identical whether a window's gradients were computed by 1 thread
//! or 8. Three properties make that hold:
//!
//! 1. Every example draws a private dropout seed from the main RNG *in
//!    shuffle order*, before dispatch — the main RNG stream never
//!    depends on scheduling.
//! 2. Windows are aligned to optimizer steps: forwards never mutate
//!    parameters, and a window never extends past the example that
//!    completes a minibatch, so every forward sees exactly the
//!    parameters the serial loop would have shown it.
//! 3. Per-example gradient partials are merged into the store in
//!    example order (and in tape order within an example), so the f32
//!    accumulation order — and thus every rounding — is fixed.

use crate::config::TrainConfig;
use crate::features::CompiledExample;
use crate::infer::argmax;
use crate::network::CompiledModel;
use overton_store::par_map;
use overton_tensor::optim::{Adam, Optimizer};
use overton_tensor::{Graph, Matrix, ParamId};
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
    assert!(!train.is_empty(), "no training examples");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.learning_rate).with_weight_decay(config.weight_decay);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut best_dev = f64::NEG_INFINITY;
    let mut best_params = model.params.clone();
    let mut since_best = 0usize;
    let mut history = Vec::with_capacity(config.epochs);
    let mut epochs_run = 0;

    for _epoch in 0..config.epochs {
        epochs_run += 1;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
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
            let seeds: Vec<u64> = window.iter().map(|_| rng.gen()).collect();
            for result in window_gradients(model, train, window, &seeds, config) {
                let Some(partial) = result else { continue };
                epoch_loss += f64::from(partial.loss);
                for (pid, grad) in &partial.grads {
                    model.params.grad_mut(*pid).add_assign(grad);
                }
                in_batch += 1;
            }
            if in_batch >= config.batch_size {
                model.params.clip_grad_norm(config.clip_norm);
                opt.step(&mut model.params);
                model.params.zero_grads();
                batch_count += in_batch;
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            model.params.clip_grad_norm(config.clip_norm);
            opt.step(&mut model.params);
            model.params.zero_grads();
            batch_count += in_batch;
        }
        let mean_loss = if batch_count == 0 { 0.0 } else { epoch_loss / batch_count as f64 };
        let dev_score = if dev.is_empty() { -mean_loss } else { dev_agreement(model, dev) };
        history.push((mean_loss, dev_score));
        if dev_score > best_dev {
            best_dev = dev_score;
            best_params = model.params.clone();
            since_best = 0;
        } else {
            since_best += 1;
            if config.early_stop_patience > 0 && since_best >= config.early_stop_patience {
                break;
            }
        }
    }
    model.params = best_params;
    TrainReport { epochs_run, best_dev_score: best_dev, history }
}

/// One example's contribution to the current minibatch: its scalar loss
/// and its parameter-gradient partials in tape order.
struct ExampleGrad {
    loss: f32,
    grads: Vec<(ParamId, Matrix)>,
}

/// Forward + backward for a single example on its own tape, using a
/// private RNG so dropout draws are independent of which worker runs it.
/// Returns `None` when the example contributes no loss (no usable
/// targets), mirroring the serial loop's `continue`.
fn example_gradient(
    model: &CompiledModel,
    example: &CompiledExample,
    seed: u64,
    config: &TrainConfig,
) -> Option<ExampleGrad> {
    let mut ex_rng = SmallRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let pass = model.forward(&mut g, example, true, &mut ex_rng);
    let mut loss = model.loss(&mut g, &pass, example, config.indicator_loss_weight)?;
    // Declared slices get extra training focus (the loss-side half of
    // slice-based learning).
    if model.has_slice_heads()
        && config.slice_loss_boost != 1.0
        && example.slice_membership.iter().any(|&m| m)
    {
        loss = g.scale(loss, config.slice_loss_boost);
    }
    let loss_value = g.value(loss).scalar_value();
    g.backward(loss);
    Some(ExampleGrad { loss: loss_value, grads: g.take_param_grads() })
}

/// Computes the window's per-example gradients, fanned out over
/// `config.grad_workers` scoped threads. Results come back indexed by
/// window position, so the caller merges them in example order no matter
/// which worker produced which — this is what keeps the trajectory
/// bit-identical across worker counts.
fn window_gradients(
    model: &CompiledModel,
    train: &[CompiledExample],
    window: &[usize],
    seeds: &[u64],
    config: &TrainConfig,
) -> Vec<Option<ExampleGrad>> {
    let work: Vec<(usize, u64)> = window.iter().copied().zip(seeds.iter().copied()).collect();
    par_map(config.grad_workers, work, |(idx, seed)| {
        example_gradient(model, &train[idx], seed, config)
    })
}

/// Mean per-task agreement of model predictions with example targets
/// (used as the dev-selection score and by the hyperparameter search).
pub fn dev_agreement(model: &CompiledModel, examples: &[CompiledExample]) -> f64 {
    use crate::network::TaskOutput;
    use overton_supervision::ProbLabel;
    let mut total = 0.0f64;
    let mut n = 0usize;
    for (example, prediction) in examples.iter().zip(model.predict_batch(examples)) {
        for (task, target) in &example.targets {
            let Some(output) = prediction.tasks.get(task) else { continue };
            let score = match (output, target) {
                (TaskOutput::Multiclass { class, .. }, ProbLabel::Dist(d))
                | (TaskOutput::Select { index: class, .. }, ProbLabel::Dist(d)) => {
                    let gold = argmax(d);
                    f64::from(*class == gold)
                }
                (TaskOutput::MulticlassSeq { classes }, ProbLabel::SeqDist(rows)) => {
                    if classes.len() != rows.len() || rows.is_empty() {
                        continue;
                    }
                    let correct =
                        classes.iter().zip(rows).filter(|(c, row)| **c == argmax(row)).count();
                    correct as f64 / rows.len() as f64
                }
                (TaskOutput::Bits { bits, .. }, ProbLabel::Bits(target_bits)) => {
                    let target: Vec<bool> = target_bits.iter().map(|&p| p > 0.5).collect();
                    bit_agreement(std::slice::from_ref(bits), std::slice::from_ref(&target))
                }
                (TaskOutput::BitsSeq { rows }, ProbLabel::SeqBits(target_rows)) => {
                    let target: Vec<Vec<bool>> =
                        target_rows.iter().map(|r| r.iter().map(|&p| p > 0.5).collect()).collect();
                    bit_agreement(rows, &target)
                }
                _ => continue,
            };
            total += score;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn bit_agreement<B: AsRef<[bool]>>(pred: &[B], gold: &[Vec<bool>]) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (p, g) in pred.iter().zip(gold) {
        for (a, b) in p.as_ref().iter().zip(g) {
            total += 1;
            if a == b {
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
    use crate::config::ModelConfig;
    use crate::features::{gold_to_prob, FeatureSpace};
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
        let space = FeatureSpace::build(&ds);
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
        let space = FeatureSpace::build(&ds);
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
        let space = FeatureSpace::build(&ds);
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

    #[test]
    #[should_panic(expected = "no training examples")]
    fn empty_training_set_rejected() {
        let ds = workload();
        let space = FeatureSpace::build(&ds);
        let mut model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        let _ = train_model(&mut model, &[], &[], &TrainConfig::default());
    }
}
