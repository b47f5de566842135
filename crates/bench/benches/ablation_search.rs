//! **A3** — coarse architecture search on/off (paper §2.4: "first versions
//! of all Overton systems are tuned using standard approaches", and §4 on
//! coarse-grained search).
//!
//! Compares the fixed default architecture against the winner of a
//! random search over the tuning spec of Figure 2a (encoder family, sizes,
//! aggregation), with the winner retrained to the same final budget.
//!
//! Run with: `cargo bench -p overton-bench --bench ablation_search`

use overton::{OvertonOptions, Project};
use overton_bench::print_row;
use overton_model::{SearchConfig, TrainConfig, TuningSpec};
use overton_nlp::{generate_workload, WorkloadConfig};

fn main() {
    let dataset = generate_workload(&WorkloadConfig {
        n_train: 800,
        n_dev: 200,
        n_test: 500,
        seed: 2024,
        ..Default::default()
    });
    let train = TrainConfig { epochs: 6, early_stop_patience: 0, ..Default::default() };

    println!("building with the fixed default architecture...");
    let fixed = Project::from_dataset(&dataset)
        .with_options(OvertonOptions { train: train.clone(), ..Default::default() })
        .run()
        .expect("fixed build");

    println!("building with coarse architecture search (6 trials, short budget)...\n");
    let searched = Project::from_dataset(&dataset)
        .with_options(OvertonOptions {
            tuning: Some(TuningSpec::default()),
            search: SearchConfig {
                trials: 6,
                threads: 4,
                train: TrainConfig { epochs: 2, early_stop_patience: 0, ..Default::default() },
                ..Default::default()
            },
            train,
            ..Default::default()
        })
        .run()
        .expect("searched build");

    println!("search trials (dev score, best first):");
    for trial in searched.trials() {
        println!(
            "  {:?} token_dim={} hidden={} agg={:?}: dev {:.4}",
            trial.config.encoder,
            trial.config.token_dim,
            trial.config.hidden_dim,
            trial.config.aggregation,
            trial.dev_score
        );
    }
    println!(
        "\nchosen: {:?} (default was Cnn/32/48)\n",
        searched.chosen_config().expect("searched").encoder
    );

    let widths = [12usize, 12, 12];
    print_row(&["task".into(), "fixed".into(), "searched".into()], &widths);
    for task in dataset.schema().tasks.keys() {
        print_row(
            &[
                task.clone(),
                format!("{:.3}", fixed.test_accuracy(task)),
                format!("{:.3}", searched.test_accuracy(task)),
            ],
            &widths,
        );
    }
    print_row(
        &[
            "mean".into(),
            format!("{:.3}", fixed.mean_test_accuracy()),
            format!("{:.3}", searched.mean_test_accuracy()),
        ],
        &widths,
    );
    println!("\n(expected: search matches or improves the fixed default — the point is");
    println!(" that the ENGINEER never picks the architecture, not that search is magic)");
}
