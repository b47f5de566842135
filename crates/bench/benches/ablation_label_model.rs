//! **A1** — ablation of the supervision combiner: generative label model
//! (EM) vs. majority vote vs. trusting the single best source, plus how
//! closely EM recovers each source's true accuracy.
//!
//! This isolates the design decision of §2.2 ("Overton learns the accuracy
//! of these sources ... and uses these accuracies to compute a probability
//! that each training point is correct").
//!
//! Run with: `cargo bench -p overton-bench --bench ablation_label_model`

use overton::{OvertonOptions, Project};
use overton_bench::print_row;
use overton_model::TrainConfig;
use overton_nlp::{generate_workload, SourceSpec, WorkloadConfig};
use overton_supervision::{CombineMethod, LabelMatrix, LabelModel, LabelModelConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Part 1: label-quality comparison on a controlled matrix.
    println!("Part 1: posterior label accuracy on synthetic votes");
    println!("(true source accuracies 0.92 / 0.70 / 0.58 / 0.75, full coverage)\n");
    let true_accs = [0.92f32, 0.70, 0.58, 0.75];
    let mut rng = SmallRng::seed_from_u64(55);
    let mut matrix = LabelMatrix::new(true_accs.len());
    let mut truth = Vec::new();
    for _ in 0..6000 {
        let y = rng.gen_range(0..4u32);
        let votes: Vec<Option<u32>> = true_accs
            .iter()
            .map(|&a| {
                Some(if rng.gen::<f32>() < a {
                    y
                } else {
                    let mut w = rng.gen_range(0..3u32);
                    if w >= y {
                        w += 1;
                    }
                    w
                })
            })
            .collect();
        matrix.push_item(4, &votes);
        truth.push(y);
    }
    let acc_of = |preds: &[u32]| {
        preds.iter().zip(&truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    };
    let mv = overton_supervision::majority_vote_hard(&matrix);
    let lm = LabelModel::fit(&matrix, &LabelModelConfig::default());
    let lm_preds = lm.predict(&matrix);
    let best_single: Vec<u32> = (0..matrix.n_items()).map(|i| matrix.vote(i, 0).unwrap()).collect();

    let widths = [26usize, 12];
    print_row(&["combiner".into(), "label acc".into()], &widths);
    print_row(&["single best source".into(), format!("{:.3}", acc_of(&best_single))], &widths);
    print_row(&["majority vote".into(), format!("{:.3}", acc_of(&mv))], &widths);
    print_row(&["label model (EM)".into(), format!("{:.3}", acc_of(&lm_preds))], &widths);

    println!("\nestimated source accuracies:");
    print_row(&["source".into(), "true".into(), "EM".into()], &[10, 8, 8]);
    for (j, true_acc) in true_accs.iter().enumerate() {
        print_row(
            &[format!("source{j}"), format!("{true_acc:.2}"), format!("{:.3}", lm.accuracies()[j])],
            &[10, 8, 8],
        );
    }

    // Part 2: end-to-end impact on the product.
    println!("\nPart 2: end-to-end test accuracy by combiner (same model, same budget)\n");
    let dataset = generate_workload(&WorkloadConfig {
        n_train: 1200,
        n_dev: 200,
        n_test: 500,
        seed: 57,
        intent_sources: vec![
            SourceSpec::new("lf_keyword", 0.85, 0.95),
            SourceSpec::new("lf_pattern", 0.55, 0.9),
            SourceSpec::new("lf_noisy", 0.45, 0.9),
        ],
        ..Default::default()
    });
    let train = TrainConfig { epochs: 6, early_stop_patience: 0, ..Default::default() };
    let methods: Vec<(&str, CombineMethod)> = vec![
        ("majority vote", CombineMethod::MajorityVote),
        ("label model", CombineMethod::LabelModel(LabelModelConfig::default())),
        ("single source (lf_keyword)", CombineMethod::SingleSource("lf_keyword".into())),
    ];
    let widths2 = [28usize, 12, 12];
    print_row(&["combiner".into(), "Intent".into(), "IntentArg".into()], &widths2);
    for (name, method) in methods {
        let built = Project::from_dataset(&dataset)
            .with_options(OvertonOptions {
                combine: method,
                train: train.clone(),
                ..Default::default()
            })
            .run()
            .expect("run");
        print_row(
            &[
                name.into(),
                format!("{:.3}", built.test_accuracy("Intent")),
                format!("{:.3}", built.test_accuracy("IntentArg")),
            ],
            &widths2,
        );
    }
    println!("\n(expected: label model >= majority vote, both >= the noisier single sources)");
}
