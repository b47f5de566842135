//! Minibatch training with early stopping on a dev split.
//!
//! # Determinism contract
//!
//! A window's examples are recorded on row-stacked tapes: the window is
//! split into [`TrainConfig::grad_workers`] contiguous sub-windows, one
//! tape each, on scoped threads. The trajectory is nonetheless
//! worker-count-invariant, and equal to recording one tape per example:
//! final weights are bit-identical whether a window ran on 1 tape or 8.
//! Four properties make that hold:
//!
//! 1. Every example draws a private dropout seed from the main RNG *in
//!    shuffle order*, before dispatch — the main RNG stream never
//!    depends on scheduling, and an example's masks never depend on
//!    which tape it shares.
//! 2. Windows are aligned to optimizer steps: forwards never mutate
//!    parameters, and a window never extends past the example that
//!    completes a minibatch, so every forward sees exactly the
//!    parameters the serial loop would have shown it.
//! 3. A stacked tape changes no example's bits. GEMM rows are
//!    independent; what mixes rows runs per example, in a
//!    single-example tape's op order; and each example gets its own
//!    parameter leaves, one wherever its own tape would make one, each
//!    summed from zero over that example's rows only. So each example's
//!    loss and gradient partials are the bits its own tape computes.
//! 4. Per-example gradient partials are merged into the store in
//!    example order (and, per parameter, in tape order within an
//!    example), so the f32 accumulation order — and thus every rounding
//!    — is fixed.

use crate::config::TrainConfig;
use crate::features::CompiledExample;
use crate::infer::argmax;
use crate::network::CompiledModel;
use overton_store::par_map;
use overton_tensor::optim::{Adam, Optimizer};
use overton_tensor::{Graph, Matrix, NodeId, ParamId};
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
    train_with(model, train, dev, config, stacked_gradients)
}

/// How a run of examples' gradients are computed: on one stacked tape, or
/// (in tests) on the per-example oracle tapes it must match bit for bit.
type Gradients =
    fn(&CompiledModel, &[&CompiledExample], &[u64], &TrainConfig) -> Vec<Option<ExampleGrad>>;

/// [`train_model`]'s loop, over a given gradient computation.
fn train_with(
    model: &mut CompiledModel,
    train: &[CompiledExample],
    dev: &[CompiledExample],
    config: &TrainConfig,
    gradients: Gradients,
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
            for result in window_gradients(model, train, window, &seeds, config, gradients) {
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
/// and its parameter-gradient partials, in the order its own tape would
/// create them per parameter.
pub(crate) struct ExampleGrad {
    pub(crate) loss: f32,
    pub(crate) grads: Vec<(ParamId, Matrix)>,
}

/// The window's per-example gradients, in window order. The window is
/// split into `config.grad_workers` contiguous sub-windows — sizes differ
/// by at most one, larger first: 16 over 3 is 6/5/5 — each recorded on
/// one stacked tape over scoped threads. Results are flattened in window
/// order, so the caller merges them in example order no matter which
/// worker produced which — this is what keeps the trajectory
/// bit-identical across worker counts.
fn window_gradients(
    model: &CompiledModel,
    train: &[CompiledExample],
    window: &[usize],
    seeds: &[u64],
    config: &TrainConfig,
    gradients: Gradients,
) -> Vec<Option<ExampleGrad>> {
    let parts = config.grad_workers.clamp(1, window.len().max(1));
    let (base, extra) = (window.len() / parts, window.len() % parts);
    let mut sub_windows = Vec::with_capacity(parts);
    let mut start = 0;
    for part in 0..parts {
        let end = start + base + usize::from(part < extra);
        sub_windows.push(start..end);
        start = end;
    }
    par_map(config.grad_workers, sub_windows, |rows| {
        let examples: Vec<&CompiledExample> =
            window[rows.clone()].iter().map(|&i| &train[i]).collect();
        gradients(model, &examples, &seeds[rows], config)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Forward + backward for a run of examples on one stacked tape, each
/// example with a private RNG seeded from `seeds` so its dropout draws do
/// not depend on which tape it lands on. An example's entry is `None` when
/// it contributes no loss (no usable targets), mirroring the serial
/// loop's `continue`.
fn stacked_gradients(
    model: &CompiledModel,
    examples: &[&CompiledExample],
    seeds: &[u64],
    config: &TrainConfig,
) -> Vec<Option<ExampleGrad>> {
    let mut rngs: Vec<SmallRng> = seeds.iter().map(|&seed| SmallRng::seed_from_u64(seed)).collect();
    let mut g = Graph::new();
    let pass = model.forward_window(&mut g, examples, &mut rngs);
    let losses: Vec<Option<NodeId>> = model
        .window_losses(&mut g, &pass, examples, config.indicator_loss_weight)
        .into_iter()
        .zip(examples)
        .map(|(loss, example)| {
            let loss = loss?;
            // Declared slices get extra training focus (the loss-side half
            // of slice-based learning).
            let boosted = model.has_slice_heads()
                && config.slice_loss_boost != 1.0
                && example.slice_membership.iter().any(|&m| m);
            Some(if boosted { g.scale(loss, config.slice_loss_boost) } else { loss })
        })
        .collect();
    // One backward for the whole tape: every example's loss receives
    // gradient exactly 1 through the sum, as its own tape would seed it.
    let Some(root) = losses.iter().flatten().copied().reduce(|acc, loss| g.add(acc, loss)) else {
        return examples.iter().map(|_| None).collect();
    };
    g.backward(root);
    let mut grads = g.take_param_grads();
    grads.resize_with(examples.len(), Vec::new);
    losses
        .into_iter()
        .zip(grads)
        .map(|(loss, grads)| {
            loss.map(|loss| ExampleGrad { loss: g.value(loss).scalar_value(), grads })
        })
        .collect()
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
    use crate::config::{AggregationKind, EncoderKind, ModelConfig};
    use crate::features::{gold_to_prob, FeatureSpace};
    use crate::oracle;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;
    use overton_supervision::ProbLabel;

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

    /// Soft targets, as the label model produces: gold mixed with uniform
    /// (bits pulled toward 1/2); unlabeled sequence rows stay all-zero.
    fn soften(label: ProbLabel) -> ProbLabel {
        let mix = |p: &[f32]| -> Vec<f32> {
            if p.iter().sum::<f32>() == 0.0 {
                return p.to_vec();
            }
            let uniform = 1.0 / p.len() as f32;
            p.iter().map(|&x| 0.8 * x + 0.2 * uniform).collect()
        };
        let pull = |b: &[f32]| -> Vec<f32> { b.iter().map(|&x| 0.8 * x + 0.1).collect() };
        match label {
            ProbLabel::Dist(d) => ProbLabel::Dist(mix(&d)),
            ProbLabel::SeqDist(rows) => ProbLabel::SeqDist(rows.iter().map(|r| mix(r)).collect()),
            ProbLabel::Bits(b) => ProbLabel::Bits(pull(&b)),
            ProbLabel::SeqBits(rows) => ProbLabel::SeqBits(rows.iter().map(|r| pull(r)).collect()),
        }
    }

    /// A soft distribution over `k` choices favouring `favourite`.
    fn leaning(k: usize, favourite: usize) -> ProbLabel {
        let mut d = vec![0.4 / k as f32; k];
        d[favourite % k] += 0.6;
        ProbLabel::Dist(d)
    }

    /// Training examples over the every-branch schema with soft targets on
    /// every task, plus the edge cases a stacked tape must line up around.
    fn soft_training_set(ds: &Dataset, space: &FeatureSpace) -> Vec<CompiledExample> {
        let schema = oracle::every_branch_schema();
        let indices = &ds.train_indices()[..14];
        let mut exs = oracle::every_branch_examples(ds, indices, space, &schema);
        for (n, ex) in exs.iter_mut().enumerate() {
            let record = &ds.records()[ex.record_index];
            for task in ds.schema().tasks.keys() {
                if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                    ex.targets.insert(task.clone(), soften(p));
                }
            }
            let flags = [0.9, 0.2, 0.6].iter().map(|&p: &f32| (p + 0.05 * n as f32).min(1.0));
            ex.targets.insert("Flags".into(), ProbLabel::Bits(flags.collect()));
            ex.targets.insert("Topic".into(), leaning(2, n));
            let mentions = ex.sets["mentions"].len();
            if mentions > 0 {
                ex.targets.insert("MentionArg".into(), leaning(mentions, n));
            }
            // Slice members (and so the loss boost) on every third example.
            ex.slice_membership.iter_mut().for_each(|m| *m = n % 3 == 0);
        }
        let base = exs[0].clone();
        let mut edge = Vec::new();
        // The PAD path: an absent and an empty sequence payload.
        let mut absent = base.clone();
        absent.sequences.remove("tokens");
        edge.push(absent);
        let mut empty = exs[1].clone();
        empty.sequences.get_mut("tokens").expect("tokens").clear();
        edge.push(empty);
        // Empty and single-element entity sets.
        let mut no_entities = exs[2].clone();
        no_entities.sets.get_mut("entities").expect("entities").clear();
        edge.push(no_entities);
        let mut one_entity = exs[3].clone();
        one_entity.sets.get_mut("entities").expect("entities").truncate(1);
        one_entity.targets.insert("IntentArg".into(), ProbLabel::Dist(vec![1.0]));
        edge.push(one_entity);
        // Overlapping spans: the span gradients must add in a fixed order.
        let mut overlapping = exs[4].clone();
        let entities = overlapping.sets.get_mut("entities").expect("entities");
        let (id, (lo, hi)) = entities[0];
        entities.push((id, (lo, hi + 1)));
        entities.push((id, (lo.saturating_sub(1), hi)));
        let k = entities.len();
        overlapping.targets.insert("IntentArg".into(), leaning(k, 1));
        edge.push(overlapping);
        // No targets at all: the window tops itself up past it.
        let mut unsupervised = exs[5].clone();
        unsupervised.targets.clear();
        edge.push(unsupervised);
        // Interleave the edge cases so they land in different windows.
        for (at, ex) in edge.into_iter().enumerate() {
            exs.insert(1 + 3 * at, ex);
        }
        exs
    }

    #[test]
    fn stacked_trainer_is_bit_identical_to_the_per_example_oracle() {
        let ds = workload();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let schema = oracle::every_branch_schema();
        let train = soft_training_set(&ds, &space);
        let dev = {
            let mut dev =
                oracle::every_branch_examples(&ds, &ds.dev_indices()[..8], &space, &schema);
            for ex in &mut dev {
                let record = &ds.records()[ex.record_index];
                for task in ds.schema().tasks.keys() {
                    if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                        ex.targets.insert(task.clone(), p);
                    }
                }
            }
            dev
        };
        let encoders = [
            EncoderKind::MeanBag,
            EncoderKind::Cnn,
            EncoderKind::Lstm,
            EncoderKind::BiLstm,
            EncoderKind::Attention,
        ];
        for encoder in encoders {
            for aggregation in [AggregationKind::Mean, AggregationKind::Max] {
                for slice_heads in [true, false] {
                    // Wide enough that stacked products take the blocked
                    // GEMM while per-example ones stay on the row kernel.
                    let config = ModelConfig {
                        encoder,
                        aggregation,
                        slice_heads,
                        token_dim: 16,
                        entity_dim: 8,
                        hidden_dim: 16,
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
                        let mut oracle_model =
                            CompiledModel::compile(&schema, &space, &config, None);
                        let oracle_report = train_with(
                            &mut oracle_model,
                            &train,
                            &dev,
                            &train_config(1),
                            oracle::example_gradients,
                        );
                        for workers in [1, 2, 3] {
                            let case = format!("{config:?}, batch {batch_size}, {workers} workers");
                            let mut model = CompiledModel::compile(&schema, &space, &config, None);
                            let report =
                                train_model(&mut model, &train, &dev, &train_config(workers));
                            assert_eq!(report, oracle_report, "{case}: report diverged");
                            for id in model.params.ids() {
                                let bits = |m: &CompiledModel| -> Vec<u32> {
                                    m.params
                                        .value(id)
                                        .as_slice()
                                        .iter()
                                        .map(|x| x.to_bits())
                                        .collect()
                                };
                                assert!(
                                    bits(&model) == bits(&oracle_model),
                                    "{case}: {} diverged",
                                    model.params.name(id)
                                );
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
