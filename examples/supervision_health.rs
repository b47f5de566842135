//! Supervision health check: the data-side tooling an Overton engineer
//! runs before (and after) every build.
//!
//! Shows: dataset statistics, estimated source accuracies, source
//! dependency detection (a copycat LF sneaks into the data), confidence
//! calibration of the trained model, and data augmentation with lineage.
//!
//! Run with: `cargo run --release -p harness --example supervision_health`

use overton::{OvertonOptions, Project};
use overton_model::{TaskOutput, TrainConfig};
use overton_monitor::calibration_report;
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_store::{DatasetStats, TaskLabel};
use overton_supervision::{
    source_dependencies, AugmentPolicy, LabelMatrix, SynonymSwap, TokenDropout,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn main() {
    let mut dataset = generate_workload(&WorkloadConfig {
        n_train: 1200,
        n_dev: 200,
        n_test: 400,
        seed: 77,
        ..Default::default()
    });

    // A lazy engineer added "lf_copycat": it duplicates lf_keyword's votes.
    for i in dataset.train_indices() {
        let record = dataset.get_mut(i).expect("valid index");
        if let Some(label) = record.tasks.get("Intent").and_then(|m| m.get("lf_keyword")).cloned() {
            record
                .tasks
                .get_mut("Intent")
                .expect("intent labels exist")
                .insert("lf_copycat".to_string(), label);
        }
    }

    println!("== dataset statistics ==");
    println!("{}", DatasetStats::compute(&dataset));

    // Dependency detection over the Intent votes.
    println!("== source dependency check (Intent) ==");
    let sources = dataset.sources_for_task("Intent");
    let mut matrix = LabelMatrix::new(sources.len());
    let classes: Vec<String> = overton_nlp::INTENTS.iter().map(|s| s.to_string()).collect();
    for record in dataset.records() {
        let votes: Vec<Option<u32>> = sources
            .iter()
            .map(|s| {
                record.tasks.get("Intent").and_then(|m| m.get(s)).and_then(|l| match l {
                    TaskLabel::MulticlassOne(c) => {
                        classes.iter().position(|x| x == c).map(|i| i as u32)
                    }
                    _ => None,
                })
            })
            .collect();
        if votes.iter().any(Option::is_some) {
            matrix.push_item(classes.len() as u32, &votes);
        }
    }
    for dep in source_dependencies(&matrix).iter().take(3) {
        println!(
            "  {} <-> {}: co-error {:.3} (expected {:.3}, excess {:+.3})",
            sources[dep.source_a],
            sources[dep.source_b],
            dep.observed_co_error,
            dep.expected_co_error,
            dep.excess
        );
    }
    println!("  (the copycat pair should top this list)\n");

    // Augmentation with lineage.
    println!("== augmentation ==");
    let mut synonyms = BTreeMap::new();
    synonyms.insert("tall".to_string(), vec!["high".to_string()]);
    synonyms.insert("old".to_string(), vec!["aged".to_string()]);
    let policy = AugmentPolicy::new()
        .with(Box::new(SynonymSwap::new("tokens", synonyms, 0.9)), 2.0)
        .with(Box::new(TokenDropout::new("tokens")), 1.0);
    let mut rng = SmallRng::seed_from_u64(9);
    let train_records: Vec<_> =
        dataset.train_indices().iter().map(|&i| dataset.records()[i].clone()).collect();
    let augmented = policy.generate(&train_records, 200, &mut rng);
    println!("generated {} augmented records (tagged aug:*)\n", augmented.len());

    // Train and check calibration of the Intent head.
    println!("== build + calibration ==");
    let built = Project::from_dataset(&dataset)
        .with_options(OvertonOptions {
            train: TrainConfig { epochs: 6, ..Default::default() },
            ..Default::default()
        })
        .run()
        .expect("build");
    let mut confidences = Vec::new();
    for (record_idx, prediction) in &built.evaluation().expect("evaluated").predictions {
        let record = &dataset.records()[*record_idx];
        let (Some(TaskOutput::Multiclass { class, dist }), Some(TaskLabel::MulticlassOne(gold))) =
            (prediction.tasks.get("Intent"), record.gold("Intent"))
        else {
            continue;
        };
        let correct = overton_nlp::INTENTS.get(*class).is_some_and(|c| c == gold);
        confidences.push((f64::from(dist[*class]), correct));
    }
    let report = calibration_report(&confidences, 10);
    println!("Intent accuracy: {:.3}", built.test_accuracy("Intent"));
    println!("expected calibration error: {:.4}", report.ece);
    for bin in report.bins.iter().filter(|b| b.count > 0) {
        println!(
            "  conf [{:.1}, {:.1}): n={:<4} mean conf {:.3} accuracy {:.3}",
            bin.lo, bin.hi, bin.count, bin.mean_confidence, bin.accuracy
        );
    }
}
