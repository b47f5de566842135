//! Supervision health check: the data-side tooling an Overton engineer
//! runs before (and after) every build.
//!
//! Shows: dataset statistics and the confidence calibration of the
//! trained model.
//!
//! Run with: `cargo run --release -p harness --example supervision_health`

use overton::{OvertonOptions, Project};
use overton_model::{TaskOutput, TrainConfig};
use overton_monitor::calibration_report;
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_store::{DatasetStats, TaskLabel};

fn main() {
    let dataset = generate_workload(&WorkloadConfig {
        n_train: 1200,
        n_dev: 200,
        n_test: 400,
        seed: 77,
        ..Default::default()
    });

    println!("== dataset statistics ==");
    println!("{}", DatasetStats::compute(&dataset));

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
