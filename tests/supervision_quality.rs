//! Integration: the supervision subsystem's value, end to end (small-scale
//! versions of experiments E1/A1 asserting the qualitative shape).

use overton::{OvertonOptions, Project, Run};
use overton_model::TrainConfig;
use overton_nlp::{generate_workload, SourceSpec, WorkloadConfig};
use overton_supervision::{weak_supervision_fraction, CombineMethod, LabelModelConfig};

fn noisy_workload(seed: u64) -> overton_store::Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 600,
        n_dev: 120,
        n_test: 300,
        seed,
        intent_sources: vec![
            SourceSpec::new("lf_keyword", 0.85, 0.95),
            SourceSpec::new("lf_pattern", 0.55, 0.9),
            SourceSpec::new("lf_noisy", 0.45, 0.9),
        ],
        ..Default::default()
    })
}

fn run(dataset: &overton_store::Dataset, method: CombineMethod) -> Run {
    Project::from_dataset(dataset)
        .with_options(OvertonOptions {
            combine: method,
            train: TrainConfig { epochs: 5, early_stop_patience: 0, ..Default::default() },
            ..Default::default()
        })
        .run()
        .expect("run")
}

#[test]
fn label_model_beats_noisy_single_source_end_to_end() {
    let dataset = noisy_workload(81);
    let lm = run(&dataset, CombineMethod::LabelModel(LabelModelConfig::default()));
    let noisy = run(&dataset, CombineMethod::SingleSource("lf_noisy".into()));
    assert!(
        lm.test_accuracy("Intent") > noisy.test_accuracy("Intent") + 0.05,
        "label model {:.3} must clearly beat the 45%-accurate source {:.3}",
        lm.test_accuracy("Intent"),
        noisy.test_accuracy("Intent")
    );
}

#[test]
fn label_model_at_least_matches_majority_vote_end_to_end() {
    let dataset = noisy_workload(82);
    let lm = run(&dataset, CombineMethod::LabelModel(LabelModelConfig::default()));
    let mv = run(&dataset, CombineMethod::MajorityVote);
    assert!(
        lm.test_accuracy("Intent") >= mv.test_accuracy("Intent") - 0.03,
        "label model {:.3} vs majority vote {:.3}",
        lm.test_accuracy("Intent"),
        mv.test_accuracy("Intent")
    );
}

#[test]
fn estimated_accuracies_rank_sources_correctly() {
    let dataset = noisy_workload(84);
    let built = run(&dataset, CombineMethod::default());
    let diags = &built.diagnostics()["Intent"];
    let acc = |name: &str| {
        diags
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.estimated_accuracy)
            .expect("accuracy estimated")
    };
    assert!(acc("lf_keyword") > acc("lf_pattern"));
    assert!(acc("lf_pattern") > acc("lf_noisy") - 0.05);
}

#[test]
fn weak_supervision_fraction_reflects_annotator_budget() {
    let no_gold = generate_workload(&WorkloadConfig {
        n_train: 300,
        n_dev: 30,
        n_test: 30,
        seed: 84,
        gold_train_fraction: 0.0,
        ..Default::default()
    });
    assert!((weak_supervision_fraction(&no_gold, "Intent") - 1.0).abs() < 1e-6);

    let some_gold = generate_workload(&WorkloadConfig {
        n_train: 300,
        n_dev: 30,
        n_test: 30,
        seed: 84,
        gold_train_fraction: 0.2,
        ..Default::default()
    });
    let frac = weak_supervision_fraction(&some_gold, "Intent");
    assert!((0.7..0.9).contains(&(f64::from(frac))), "fraction {frac}");
}

#[test]
fn more_weak_data_does_not_hurt() {
    // Small-scale E2 shape check: 4x data >= 1x data (within noise).
    let small = generate_workload(&WorkloadConfig {
        n_train: 150,
        n_dev: 100,
        n_test: 300,
        seed: 85,
        ..Default::default()
    });
    let large = generate_workload(&WorkloadConfig {
        n_train: 600,
        n_dev: 100,
        n_test: 300,
        seed: 85,
        ..Default::default()
    });
    let a = run(&small, CombineMethod::default());
    let b = run(&large, CombineMethod::default());
    assert!(
        b.mean_test_accuracy() >= a.mean_test_accuracy() - 0.02,
        "4x data {:.3} should not be worse than 1x {:.3}",
        b.mean_test_accuracy(),
        a.mean_test_accuracy()
    );
}
