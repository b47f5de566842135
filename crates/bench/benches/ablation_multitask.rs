//! **A2** — multitask vs. independent single-task models.
//!
//! The paper credits multitask learning with letting Overton "accept
//! supervision at whatever granularity is available" and with ancillary
//! tasks improving the shared representation. Here the same workload is
//! trained (a) as one multitask model and (b) as four independent
//! single-task models with the same per-model budget, both using the label
//! model for supervision.
//!
//! Run with: `cargo bench -p overton-bench --bench ablation_multitask`

use overton_bench::{build_overton, print_row, retarget, single_task_schema};
use overton_model::{
    evaluate_store, prepare_store, train_model, CompiledModel, ModelConfig, TrainConfig,
};
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_supervision::CombineMethod;

fn main() {
    // A smaller training pool accentuates the value of sharing.
    let dataset = generate_workload(&WorkloadConfig {
        n_train: 500,
        n_dev: 150,
        n_test: 500,
        seed: 31337,
        ..Default::default()
    });
    let epochs = 6;

    println!("training the multitask model...");
    let multitask = build_overton(&dataset, epochs);

    println!("training four independent single-task models...\n");
    let mut single = std::collections::BTreeMap::new();
    for task in dataset.schema().tasks.keys() {
        let sub_schema = single_task_schema(dataset.schema(), task);
        let sub_dataset = retarget(&dataset, &sub_schema);
        let store = sub_dataset.seal();
        let prepared = prepare_store(&store, &CombineMethod::default()).expect("prepare");
        let mut model =
            CompiledModel::compile(&sub_schema, &prepared.space, &ModelConfig::default(), None);
        train_model(
            &mut model,
            &prepared.train,
            &prepared.dev,
            &TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
        );
        let eval = evaluate_store(&model, &store, store.index().test_rows(), &prepared.space)
            .expect("evaluate");
        single.insert(task.clone(), eval.accuracy(task));
    }

    let widths = [12usize, 14, 14, 10];
    print_row(&["task".into(), "single-task".into(), "multitask".into(), "delta".into()], &widths);
    for (task, single_acc) in &single {
        let multi_acc = multitask.test_accuracy(task);
        print_row(
            &[
                task.clone(),
                format!("{single_acc:.3}"),
                format!("{multi_acc:.3}"),
                format!("{:+.1} pts", 100.0 * (multi_acc - single_acc)),
            ],
            &widths,
        );
    }
    println!("\n(expected: multitask matches or beats single-task on most tasks,");
    println!(" with one shared model instead of four to maintain)");
}
