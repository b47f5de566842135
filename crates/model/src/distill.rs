//! Knowledge distillation: keeping a small SLA model synchronized with a
//! large analysis model.
//!
//! Paper §2.4: "Teams use multiple models to train a 'large' and a 'small'
//! model on the same data. The large model is often used to populate caches
//! and do error analysis, while the small model must meet SLA requirements.
//! Overton makes it easy to keep these two models synchronized." Beyond
//! training both on the same data, the strongest synchronization is
//! distillation: the small model trains on the large model's soft outputs,
//! which also transfers label-model-cleaned knowledge to unlabeled data.

use crate::config::TrainConfig;
use crate::features::CompiledExample;
use crate::infer::Decode;
use crate::network::CompiledModel;
use crate::trainer::{train_model, TrainReport};
use overton_supervision::ProbLabel;

/// Replaces each example's targets with the teacher's soft predictions,
/// read from its logits. Examples keep their original targets for tasks
/// the teacher cannot score (empty payloads) and for per-element tasks.
pub fn soften_targets(
    teacher: &CompiledModel,
    examples: &[CompiledExample],
) -> Vec<CompiledExample> {
    let mut out = examples.to_vec();
    teacher.infer(examples, |b, logits| {
        for head in logits.heads() {
            let soft = match head.head.decode {
                Decode::Single { bce: false } | Decode::Select => {
                    let mut dist = Vec::new();
                    head.softmax(&mut dist);
                    ProbLabel::Dist(dist)
                }
                Decode::Single { bce: true } => ProbLabel::Bits(head.probs().collect()),
                // Per-element heads keep their hard targets. Their rows'
                // logits are here too, but soft per-row targets would
                // change every distilled student's weights, which wants a
                // per-slice quality gate first.
                Decode::PerElement { .. } => continue,
            };
            out[b].targets.insert(head.head.task.clone(), soft);
        }
    });
    out
}

/// Trains `student` on the teacher's soft predictions over `examples`
/// (labeled or not), with dev-based early stopping.
pub fn distill(
    teacher: &CompiledModel,
    student: &mut CompiledModel,
    examples: &[CompiledExample],
    dev: &[CompiledExample],
    config: &TrainConfig,
) -> TrainReport {
    let softened = soften_targets(teacher, examples);
    train_model(student, &softened, dev, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::prepare_store;
    use crate::config::ModelConfig;
    use crate::trainer::dev_agreement;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_supervision::CombineMethod;

    #[test]
    fn distilled_student_approaches_teacher() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 400,
            n_dev: 80,
            n_test: 80,
            seed: 71,
            ..Default::default()
        });
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        // Teacher: default size, trained normally.
        let mut teacher =
            CompiledModel::compile(ds.schema(), &prepared.space, &ModelConfig::default(), None);
        train_model(
            &mut teacher,
            &prepared.train,
            &prepared.dev,
            &TrainConfig { epochs: 5, early_stop_patience: 0, ..Default::default() },
        );
        let teacher_score = dev_agreement(&teacher, &prepared.dev);

        // Student: much smaller, distilled from the teacher.
        let small = ModelConfig { token_dim: 16, hidden_dim: 16, ..Default::default() };
        let mut student = CompiledModel::compile(ds.schema(), &prepared.space, &small, None);
        distill(
            &teacher,
            &mut student,
            &prepared.train,
            &prepared.dev,
            &TrainConfig { epochs: 5, early_stop_patience: 0, ..Default::default() },
        );
        let student_score = dev_agreement(&student, &prepared.dev);
        assert!(
            student_score > teacher_score - 0.12,
            "student {student_score:.3} too far below teacher {teacher_score:.3}"
        );
        assert!(student.num_weights() < teacher.num_weights() / 2);
    }

    #[test]
    fn soften_targets_produces_valid_distributions() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 30,
            n_dev: 10,
            n_test: 10,
            seed: 72,
            ..Default::default()
        });
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        let teacher =
            CompiledModel::compile(ds.schema(), &prepared.space, &ModelConfig::default(), None);
        let softened = soften_targets(&teacher, &prepared.train);
        assert_eq!(softened.len(), prepared.train.len());
        for ex in &softened {
            if let Some(label) = ex.targets.get("Intent") {
                assert!(label.is_valid(), "{label:?}");
            }
            if let Some(label) = ex.targets.get("IntentArg") {
                assert!(label.is_valid(), "{label:?}");
            }
        }
    }
}
