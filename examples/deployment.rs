//! The deployment path (paper §2.4): model pairs, the registry, the row
//! store and Pandas-compatible tag export.
//!
//! Trains a "large" and a "small" model on the same data, publishes both to
//! a content-addressed registry, fetches the latest back, verifies the
//! serving signature is identical (model independence), and writes the
//! data file into the binary row store + tag CSV.
//!
//! Run with: `cargo run --release -p harness --example deployment`

use overton::{OvertonOptions, Project};
use overton_model::{ModelConfig, ModelPair, ModelRegistry, Server, TrainConfig};
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_store::rowstore::RowStore;

fn main() {
    let dataset = generate_workload(&WorkloadConfig {
        n_train: 800,
        n_dev: 150,
        n_test: 250,
        seed: 5,
        ..Default::default()
    });
    let train_cfg = TrainConfig { epochs: 6, ..Default::default() };

    // Large model: quality/analysis tier.
    println!("== training large model ==");
    let large = Project::from_dataset(&dataset)
        .with_options(OvertonOptions {
            base_model: ModelConfig { token_dim: 48, hidden_dim: 64, ..Default::default() },
            train: train_cfg.clone(),
            ..Default::default()
        })
        .run()
        .expect("large build");

    // Small model: the SLA tier, same schema and data.
    println!("== training small model ==");
    let small = Project::from_dataset(&dataset)
        .with_options(OvertonOptions {
            base_model: ModelConfig { token_dim: 16, hidden_dim: 24, ..Default::default() },
            train: train_cfg,
            ..Default::default()
        })
        .run()
        .expect("small build");

    let artifact = |run: &overton::Run| run.artifact().expect("packaged").clone();
    let pair = ModelPair { large: artifact(&large), small: artifact(&small) };
    println!(
        "pair synchronized: {} (large {} weights / small {} weights)",
        pair.synchronized(),
        pair.large.params.num_weights(),
        pair.small.params.num_weights()
    );
    println!(
        "test accuracy (Intent): large {:.3} vs small {:.3}",
        large.test_accuracy("Intent"),
        small.test_accuracy("Intent")
    );

    // Publish to the registry and fetch back.
    let dir = std::env::temp_dir().join("overton-example-registry");
    let registry = ModelRegistry::open(&dir).expect("registry opens");
    let id_large = registry.publish(&pair.large, "factoid-large").expect("publish");
    let id_small = registry.publish(&pair.small, "factoid-small").expect("publish");
    println!("\n== registry ==");
    for entry in registry.list().expect("list") {
        println!("  {:<14} v{} {} ({} bytes)", entry.name, entry.version, entry.id.0, entry.size);
    }
    let fetched = registry
        .fetch(&registry.latest("factoid-small").expect("latest").expect("exists"))
        .expect("fetch");
    assert_eq!(fetched.signature, pair.large.signature, "signatures must match");
    println!("fetched factoid-small; signature matches factoid-large: model independence holds");
    let _ = (id_large, id_small);

    // Serving smoke check through the fetched artifact.
    let server = Server::load(&fetched);
    let some_test = &dataset.records()[dataset.test_indices()[0]];
    let response = server.predict(some_test).expect("predict");
    println!("\nserved one test record; outputs: {:?}", response.tasks.keys().collect::<Vec<_>>());

    // The data layer: binary row store + Pandas-compatible tags.
    println!("\n== row store + tag export ==");
    let store = RowStore::build(dataset.records());
    let path = std::env::temp_dir().join("overton-example.rows");
    store.write_file(&path).expect("write row store");
    let loaded = RowStore::read_file(&path).expect("read row store");
    println!(
        "row store: {} rows, {} KiB on disk, record 0 roundtrips: {}",
        loaded.len(),
        loaded.blob_len() / 1024,
        loaded.get(0).expect("decode") == dataset.records()[0]
    );
    let csv_path = std::env::temp_dir().join("overton-example-tags.csv");
    let mut csv = Vec::new();
    dataset.index().write_csv(&mut csv).expect("csv");
    std::fs::write(&csv_path, csv).expect("write csv");
    println!("tag CSV written to {} (load with pandas.read_csv)", csv_path.display());
}
