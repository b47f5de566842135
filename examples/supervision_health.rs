//! Supervision health check: the data-side tooling an Overton engineer
//! runs before (and after) every build.
//!
//! Shows: dataset statistics and the confidence calibration of the
//! trained model.
//!
//! Run with: `cargo run --release -p harness --example supervision_health`

use overton::{OvertonOptions, Project};
use overton_model::{ServedOutput, Server, TrainConfig};
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
    // Calibration of what production answers: the packaged artifact's
    // responses over the build's test rows.
    let records: Vec<_> = (built.store().index().test_rows().iter())
        .map(|&row| dataset.records()[row as usize].clone())
        .collect();
    let server = Server::load(built.artifact().expect("packaged"));
    let mut confidences = Vec::new();
    for (record, response) in records.iter().zip(server.predict_batch(&records)) {
        let response = response.expect("a test record is served");
        let (Some(ServedOutput::Multiclass { class, dist }), Some(TaskLabel::MulticlassOne(gold))) =
            (response.tasks.get("Intent"), record.gold("Intent"))
        else {
            continue;
        };
        let (_, p) = dist.iter().find(|(name, _)| name == class).expect("class in dist");
        confidences.push((f64::from(*p), **class == **gold));
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
