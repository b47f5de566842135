//! The cold-start use case (paper §2.3): launching a new product feature
//! with no organic training data at all.
//!
//! A "nutrition facts" feature is launched: the only training data is
//! synthetic, produced by templates over the knowledge base and labeled by
//! launch-time labeling functions. Lineage tags make the synthetic cohort
//! monitorable like any other source.
//!
//! Run with: `cargo run --release -p harness --example cold_start`

use overton::{cold_start, OvertonOptions};
use overton_model::TrainConfig;
use overton_nlp::{generate_workload, KnowledgeBase, QueryGenerator, WorkloadConfig};
use overton_store::{PayloadValue, Record, SetElement, TaskLabel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // Start from a dataset holding ONLY curated dev/test gold (the launch
    // review set) — no training data.
    let full = generate_workload(&WorkloadConfig {
        n_train: 0,
        n_dev: 200,
        n_test: 400,
        seed: 99,
        slice_rate: 0.1,
        ..Default::default()
    });
    let mut dataset = full.clone();
    assert!(dataset.train_indices().is_empty());
    println!(
        "launch review set: {} dev / {} test records, no training data",
        dataset.dev_indices().len(),
        dataset.test_indices().len()
    );

    // Synthesize launch data: template queries labeled by launch LFs. The
    // generator plays the role of the engineers' synthetic-data tooling.
    let kb = KnowledgeBase::standard();
    let generator = QueryGenerator::new(&kb);
    let mut rng = SmallRng::seed_from_u64(1234);

    println!("\n== cold start: synthesizing training data + first build ==");
    let options = OvertonOptions {
        train: TrainConfig { epochs: 8, ..Default::default() },
        ..Default::default()
    };
    let built = cold_start(
        &mut dataset,
        2000,
        "aug:launch-templates",
        |_i| {
            let q = generator.generate(&mut rng, false);
            let mut record = Record::new()
                .with_payload("tokens", PayloadValue::Sequence(q.tokens.clone()))
                .with_payload("query", PayloadValue::Singleton(q.text()))
                .with_payload(
                    "entities",
                    PayloadValue::Set(
                        q.candidates
                            .iter()
                            .map(|c| SetElement {
                                id: kb.entity(c.entity).id.clone(),
                                span: c.span,
                            })
                            .collect(),
                    ),
                );
            // Launch LFs: template-derived intent and argument labels
            // (templates know their own intent, so these are high quality —
            // the usual situation for synthetic launch data).
            record = record
                .with_label("Intent", "launch_lf", TaskLabel::MulticlassOne(q.intent.into()))
                .with_label("IntentArg", "launch_lf", TaskLabel::Select(q.gold_arg))
                .with_label(
                    "POS",
                    "launch_lf",
                    TaskLabel::MulticlassSeq(q.pos.iter().map(|s| s.to_string()).collect()),
                );
            for slice in &q.slices {
                record = record.with_slice(slice);
            }
            record
        },
        &options,
    )
    .expect("cold start succeeds");

    println!("synthetic training records: {}", dataset.tagged("aug:launch-templates").len());
    println!("\nlaunch-quality report (test split):");
    for (task, report) in &built.evaluation().expect("a complete run is evaluated").reports {
        if let Some(overall) = report.overall() {
            println!("  {:<12} accuracy {:.3} (n = {})", task, overall.accuracy, overall.count);
        }
    }
    println!("\nweak-supervision share of training data: 100% (cold start has no annotators)");
}
