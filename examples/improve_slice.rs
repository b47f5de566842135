//! "Improving an Existing Feature" (paper §2.3): the weekly loop of an
//! Overton engineer, end to end.
//!
//! 1. Build the current production model and read the per-slice reports.
//! 2. Find the worst slice (here: complex disambiguations, where heuristic
//!    supervision is systematically wrong).
//! 3. Add corrective supervision *to the data file only* — an annotation
//!    pass over the slice.
//! 4. Retrain and compare before/after on the slice, watching for
//!    regressions elsewhere.
//!
//! Run with: `cargo run --release -p harness --example improve_slice`

use overton::{add_slice_supervision, OvertonOptions, Project};
use overton_model::TrainConfig;
use overton_monitor::regressions;
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_store::TaskLabel;

fn main() {
    let mut dataset = generate_workload(&WorkloadConfig {
        n_train: 1500,
        n_dev: 200,
        n_test: 500,
        seed: 21,
        slice_rate: 0.10,
        ..Default::default()
    });
    let options = OvertonOptions {
        train: TrainConfig { epochs: 8, ..Default::default() },
        ..Default::default()
    };

    println!("== initial build ==");
    let first = Project::from_dataset(&dataset)
        .with_options(options.clone())
        .run()
        .expect("pipeline succeeds");
    println!("worst slices on test:");
    for diag in first.worst_slices(5).iter().take(5) {
        println!(
            "  task {:<10} slice {:<24} acc {:.3} (n = {})",
            diag.task, diag.slice, diag.metrics.accuracy, diag.metrics.count
        );
    }

    // The engineer decides the complex-disambiguation slice needs an
    // annotation pass for IntentArg. The annotators' answers are simulated
    // here by a high-quality corrective source derived from the crowd
    // source when it exists, otherwise skipping the record.
    println!("\n== adding corrective supervision on the slice ==");
    let added = add_slice_supervision(
        &mut dataset,
        "complex-disambiguation",
        "IntentArg",
        "annotator_pass",
        |record| match record.tasks.get("IntentArg").and_then(|m| m.get("crowd_arg")) {
            Some(TaskLabel::Select(v)) => Some(TaskLabel::Select(*v)),
            _ => None,
        },
    );
    println!("annotator_pass wrote {added} labels");

    println!("\n== retrain and compare ==");
    let report = Project::from_dataset(&dataset)
        .with_options(options)
        .retrain_and_compare(&first, "IntentArg", "complex-disambiguation")
        .expect("pipeline succeeds");
    println!(
        "IntentArg on slice:complex-disambiguation: {:.3} -> {:.3} (delta {:+.3})",
        report.before,
        report.after,
        report.delta()
    );

    // Regression check across all monitored groups.
    let mut regression_count = 0;
    let after = report.run.evaluation().expect("a complete run is evaluated");
    for (task, before_report) in &first.evaluation().expect("evaluated").reports {
        if let Some(after_report) = after.reports.get(task) {
            for r in regressions(before_report, after_report, 0.05) {
                println!("  regression in {task}/{}: {:.3} -> {:.3}", r.group, r.before, r.after);
                regression_count += 1;
            }
        }
    }
    if regression_count == 0 {
        println!("no regressions above 5 points on any monitored group");
    }
}
