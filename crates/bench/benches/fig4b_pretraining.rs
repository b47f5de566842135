//! **Figure 4b (E3)** — with-BERT vs. without-BERT relative quality across
//! weak-training-set scales.
//!
//! "with-BERT" here is a genuinely pretrained contextual encoder: a masked-
//! token model trained on an in-domain corpus whose embedding table
//! initializes the production model (see `overton-model::pretrained`).
//! The paper's finding: pretraining helps at small scale (notably the Set
//! task), but the advantage collapses into a ±2% band once weak supervision
//! is plentiful.
//!
//! Run with: `cargo bench -p overton-bench --bench fig4b_pretraining`

use overton::{OvertonOptions, Project};
use overton_bench::print_row;
use overton_model::{EmbeddingKind, ModelConfig, PretrainConfig, TrainConfig};
use overton_nlp::{generate_workload, pretraining_corpus, KnowledgeBase, WorkloadConfig};

fn main() {
    let base_train = 300usize;
    let scales = [1usize, 2, 4, 8, 16, 32];
    let epochs = 6;

    // Pretrain once on a large in-domain corpus.
    println!("pretraining the masked-token encoder (\"BERT-sim\")...");
    let corpus = pretraining_corpus(&KnowledgeBase::standard(), 6000, 11);
    let artifact = overton_model::pretrain(
        &corpus,
        &PretrainConfig { dim: 32, epochs: 4, ..Default::default() },
    );
    println!("pretraining done (final masked-token loss {:.3})\n", artifact.final_loss);

    let max_scale = *scales.last().unwrap();
    let full = generate_workload(&WorkloadConfig {
        n_train: base_train * max_scale,
        n_dev: 250,
        n_test: 600,
        seed: 888,
        ..Default::default()
    });

    let widths = [8usize, 10, 16, 16, 16, 16];
    println!("Figure 4b: with-BERT vs without-BERT (relative quality, percent)\n");
    print_row(
        &[
            "Scale".into(),
            "Train".into(),
            "Singleton".into(),
            "Sequence".into(),
            "Set".into(),
            "Mean".into(),
        ],
        &widths,
    );

    for &scale in &scales {
        let n = base_train * scale;
        let train_subset: Vec<usize> = full.train_indices().into_iter().take(n).collect();
        let keep: Vec<usize> =
            train_subset.into_iter().chain(full.dev_indices()).chain(full.test_indices()).collect();
        let dataset = full.subset(&keep);

        let without = Project::from_dataset(&dataset)
            .with_options(OvertonOptions {
                train: TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
                ..Default::default()
            })
            .run()
            .expect("without-BERT build");

        let with = Project::from_dataset(&dataset)
            .with_options(OvertonOptions {
                base_model: ModelConfig {
                    embedding: EmbeddingKind::Pretrained,
                    token_dim: artifact.dim(),
                    ..Default::default()
                },
                pretrained: Some(artifact.clone()),
                train: TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
                ..Default::default()
            })
            .run()
            .expect("with-BERT build");

        let rel = |task: &str| 100.0 * with.test_accuracy(task) / without.test_accuracy(task);
        let (ri, rp, ra) = (rel("Intent"), rel("POS"), rel("IntentArg"));
        print_row(
            &[
                format!("{scale}x"),
                n.to_string(),
                format!("{ri:.1}%"),
                format!("{rp:.1}%"),
                format!("{ra:.1}%"),
                format!("{:.1}%", (ri + rp + ra) / 3.0),
            ],
            &widths,
        );
    }
    println!("\n(100% = no change; paper: gains at small scale, then a ±2% band at 32x)");
}
