//! **Ingest** — the front-door benchmark: streaming the two-file contract
//! into shard builders versus the eager `Dataset` path, on a 50k-record
//! workload.
//!
//! The streamed path ([`ShardedStore::from_files`]) parses each JSONL
//! line, validates it, and encodes it straight into the current shard
//! blob — no `Vec<Record>` is ever materialized, so peak memory stays one
//! record deep. The eager path ([`Dataset::from_jsonl_file`]) collects
//! every record into the editable vector first and seals afterwards —
//! what `Project::from_dataset` callers pay on top of the seal.
//! Both produce row-for-row identical stores (asserted before timing).
//!
//! Run with: `cargo bench -p overton-bench --bench ingest`

use criterion::{criterion_group, criterion_main, Criterion};
use overton_nlp::{write_two_file_workload, WorkloadConfig};
use overton_store::{Dataset, Schema, ShardedStore};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The tentpole scale: 50k records through the front door.
const N_RECORDS: usize = 50_000;

fn config() -> WorkloadConfig {
    WorkloadConfig {
        n_train: N_RECORDS - 3_000,
        n_dev: 1_000,
        n_test: 2_000,
        seed: 17,
        ..Default::default()
    }
}

/// The eager baseline: parse + validate every line into a `Vec<Record>`,
/// then push-and-seal.
fn eager_ingest(schema_path: &Path, data_path: &Path) -> ShardedStore {
    let schema = Schema::from_json_file(schema_path).expect("schema parses");
    let dataset = Dataset::from_jsonl_file(schema, data_path).expect("data parses");
    dataset.seal()
}

/// The streamed path: lines go straight into shard blobs.
fn streamed_ingest(schema_path: &Path, data_path: &Path) -> ShardedStore {
    ShardedStore::from_files(schema_path, data_path).expect("two-file ingest")
}

fn bench_ingest(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("overton-bench-ingest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    println!("writing {N_RECORDS}-record two-file workload ...");
    let t = Instant::now();
    let (schema_path, data_path) =
        write_two_file_workload(&config(), &dir).expect("write workload");
    let bytes = std::fs::metadata(&data_path).expect("data file").len();
    println!(
        "  {} in {:.1?} ({:.1} MiB)",
        data_path.display(),
        t.elapsed(),
        bytes as f64 / (1024.0 * 1024.0)
    );

    // Both paths must agree row for row before any timing claims.
    let eager = eager_ingest(&schema_path, &data_path);
    let streamed = streamed_ingest(&schema_path, &data_path);
    assert_eq!(eager.len(), N_RECORDS);
    assert_eq!(streamed.len(), N_RECORDS);
    assert_eq!(
        eager.index().train_rows(),
        streamed.index().train_rows(),
        "index disagrees between ingest paths"
    );
    for row in [0usize, N_RECORDS / 2, N_RECORDS - 1] {
        assert_eq!(eager.get(row).unwrap(), streamed.get(row).unwrap(), "row {row} disagrees");
    }

    // Headline best-of-3 comparison (the criterion medians below repeat
    // it with more samples).
    let best_of = |f: &dyn Fn() -> ShardedStore| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(f().len());
                t.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let eager_time = best_of(&|| eager_ingest(&schema_path, &data_path));
    let streamed_time = best_of(&|| streamed_ingest(&schema_path, &data_path));
    println!(
        "two-file ingest of {N_RECORDS} records: eager Dataset push+seal {:.2?} vs \
         file-streamed shard builders {:.2?} ({:.2}x)",
        eager_time,
        streamed_time,
        eager_time.as_secs_f64() / streamed_time.as_secs_f64().max(1e-9),
    );

    let mut group = c.benchmark_group("ingest");
    group.sample_size(5);
    group.bench_function("eager_dataset_push_seal_50k", |b| {
        b.iter(|| black_box(eager_ingest(&schema_path, &data_path)).len());
    });
    group.bench_function("streamed_shard_builders_50k", |b| {
        b.iter(|| black_box(streamed_ingest(&schema_path, &data_path)).len());
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
