//! The front door end to end: `Project::from_files` → staged `Run` →
//! `deploy` → `monitor`, resume from every completed stage, precise
//! errors on malformed two-file input, and bit-identical runs whatever
//! the shard count of the sealed store or the constructor that sealed it.

use overton::serving::{CanaryConfig, CanaryOutcome};
use overton::store::StoreError;
use overton::{Error, OvertonOptions, Project, Run, Stage};
use overton_model::{
    evaluate_store, prepare_store, pretrain, train_model, AggregationKind, CompiledModel,
    EmbeddingKind, EncoderKind, ModelConfig, PretrainConfig, SearchConfig, Server, ServingResponse,
    TrainConfig, TuningSpec,
};
use overton_nlp::{
    generate_workload, generate_workload_sealed, write_two_file_workload, WorkloadConfig,
};
use overton_store::Dataset;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("overton-project-api-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn quick_options(epochs: usize) -> OvertonOptions {
    OvertonOptions {
        train: TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn two_file_project_end_to_end_deploy_and_monitor() {
    let root = temp_root("e2e");
    let (schema_path, data_path) = write_two_file_workload(
        &WorkloadConfig { n_train: 250, n_dev: 50, n_test: 80, seed: 9, ..Default::default() },
        &root,
    )
    .unwrap();

    // Build purely from the two files, persisting the run.
    let project = Project::from_files(&schema_path, &data_path)
        .named("e2e")
        .with_options(quick_options(3))
        .at(&root);
    let run = project.run().expect("staged run succeeds");
    assert!(run.is_complete());
    assert_eq!(run.id(), "run-0001");
    assert_eq!(project.latest_run_id().unwrap().as_deref(), Some("run-0001"));

    // Per-stage telemetry: all six stages, with sensible record counts.
    let report = run.report();
    let stages: Vec<Stage> = report.stages.iter().map(|s| s.stage).collect();
    assert_eq!(stages, Stage::ALL.to_vec());
    assert_eq!(report.stage(Stage::Ingest).unwrap().records, 380);
    assert_eq!(report.stage(Stage::Combine).unwrap().records, 300);
    assert_eq!(report.stage(Stage::Evaluate).unwrap().records, 80);
    assert!(report.mean_test_accuracy > 0.4, "{}", report.mean_test_accuracy);
    assert_eq!(report.task_accuracy.len(), 4);

    // Every stage artifact landed in the run directory.
    let run_dir = run.dir().unwrap();
    for file in [
        "store/manifest.json",
        "combine.json",
        "search.json",
        "train.json",
        "train.model.json",
        "artifact.model.json",
        "evaluation.json",
        "report.json",
    ] {
        assert!(run_dir.join(file).exists(), "missing {file}");
    }

    // Deploy: registry + worker pool, then a canary of the same artifact
    // over gold-labeled live traffic resolves to a promotion.
    let mut deployment = project.deploy(&run).expect("deploy succeeds");
    let dataset = run.store().dataset_view().unwrap();
    let gold_records: Vec<_> =
        dataset.test_indices().into_iter().map(|i| dataset.records()[i].clone()).collect();

    let replies = deployment.observe(&gold_records);
    assert_eq!(replies.len(), 80);
    assert!(replies.iter().all(|r| r.is_ok()));
    assert_eq!(deployment.pool().snapshot().served, 80);

    let id = deployment.manager().publish(run.artifact().unwrap()).unwrap();
    deployment.manager().start_canary(&id).unwrap();
    deployment.observe(&gold_records);
    let (_, candidate_reports) = deployment.manager().canary_reports().unwrap();
    let outcome =
        deployment.manager().resolve_canary(&CanaryConfig::default()).expect("canary resolves");
    assert!(matches!(outcome, CanaryOutcome::Promoted { .. }));

    // Monitor: live-scored reports (and the test evaluation) feed the
    // slice worklist, ranked worst-first.
    let live_worklist = project.monitor(&candidate_reports, 5);
    assert!(!live_worklist.is_empty(), "live traffic covered no slices");
    let eval_worklist = project.monitor(&run.evaluation().unwrap().reports, 5);
    assert!(!eval_worklist.is_empty());
    for pair in eval_worklist.windows(2) {
        assert!(pair[0].metrics.accuracy <= pair[1].metrics.accuracy);
    }
    let from_run = run.worst_slices(5);
    assert_eq!(eval_worklist.len(), from_run.len());

    // A second run gets the next id.
    let run2 = project.start().unwrap();
    assert_eq!(run2.id(), "run-0002");

    drop(deployment);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn run_resumes_from_every_completed_stage() {
    let root = temp_root("resume");
    let store = generate_workload_sealed(&WorkloadConfig {
        n_train: 150,
        n_dev: 30,
        n_test: 60,
        seed: 21,
        ..Default::default()
    });
    let project =
        Project::from_store(store).named("resume").with_options(quick_options(2)).at(&root);
    let baseline = project.run().expect("baseline run");
    let baseline_eval = baseline.evaluation().unwrap();
    let baseline_responses = test_responses(&baseline);

    for from in Stage::ALL {
        let mut resumed = project.resume(baseline.id(), from).expect("resume loads");
        assert_eq!(
            resumed.next_stage(),
            Some(if from == Stage::Ingest { Stage::Combine } else { from })
        );
        resumed.complete().expect("resumed run completes");
        let eval = resumed.evaluation().unwrap();
        assert_eq!(eval.reports, baseline_eval.reports, "resume from {from}");
        assert_eq!(test_responses(&resumed), baseline_responses, "resume from {from}");
        // Telemetry for skipped stages is preserved; the report is whole.
        let stages: Vec<Stage> = resumed.report().stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, Stage::ALL.to_vec(), "resume from {from}");
        assert_eq!(resumed.report().mean_test_accuracy, baseline.report().mean_test_accuracy);
    }

    // A resumed run re-executes under the options it was *started* with
    // (persisted as options.json), not the project's current options — a
    // differently-configured project must not silently retrain the run
    // with a new configuration.
    let store = generate_workload_sealed(&WorkloadConfig {
        n_train: 150,
        n_dev: 30,
        n_test: 60,
        seed: 21,
        ..Default::default()
    });
    let reconfigured =
        Project::from_store(store).named("resume").with_options(quick_options(5)).at(&root);
    let mut resumed = reconfigured.resume(baseline.id(), Stage::Train).expect("resume loads");
    resumed.complete().expect("resumed run completes");
    assert_eq!(
        resumed.train_report().unwrap().epochs_run,
        2,
        "resume must keep the run's original training budget"
    );
    assert_eq!(resumed.evaluation().unwrap().reports, baseline_eval.reports);

    // Loading a resume immediately clears the artifacts of the stages
    // being re-run, so an abandoned resume can never leave fresh
    // early-stage state paired with a stale packaged model.
    let run_dir = root.join("runs").join(baseline.id());
    let abandoned = reconfigured.resume(baseline.id(), Stage::Package).expect("resume loads");
    assert!(!run_dir.join("artifact.model.json").exists(), "stale artifact kept");
    assert!(!run_dir.join("evaluation.json").exists(), "stale evaluation kept");
    assert!(run_dir.join("train.model.json").exists(), "earlier artifacts must be kept");
    drop(abandoned);
    // A fresh resume completes and restores them.
    let mut restored = reconfigured.resume(baseline.id(), Stage::Package).expect("resume loads");
    restored.complete().expect("resumed run completes");
    assert!(run_dir.join("artifact.model.json").exists());
    assert_eq!(restored.evaluation().unwrap().reports, baseline_eval.reports);

    std::fs::remove_dir_all(&root).ok();
}

fn seed9_workload() -> Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 250,
        n_dev: 50,
        n_test: 80,
        seed: 9,
        ..Default::default()
    })
}

fn quick_run(project: Project) -> Run {
    project.with_options(quick_options(3)).run().unwrap()
}

/// The responses a run's packaged artifact serves over its test rows.
fn test_responses(run: &Run) -> Vec<ServingResponse> {
    let store = run.store();
    let records: Vec<_> = (store.index().test_rows().iter())
        .map(|&row| store.get(row as usize).expect("a test row decodes"))
        .collect();
    let server = Server::load(run.artifact().expect("the run packaged an artifact"));
    (server.predict_batch(&records).into_iter())
        .map(|response| response.expect("a test row is served"))
        .collect()
}

/// Two runs must agree bit for bit: artifact bytes, evaluation reports,
/// the responses served over the test rows, and the training report.
fn assert_runs_identical(a: &Run, b: &Run, name: &str) {
    assert_eq!(
        a.artifact().unwrap().to_bytes(),
        b.artifact().unwrap().to_bytes(),
        "{name}: artifacts diverge"
    );
    let (ea, eb) = (a.evaluation().unwrap(), b.evaluation().unwrap());
    assert_eq!(ea.reports, eb.reports, "{name}");
    assert_eq!(test_responses(a), test_responses(b), "{name}");
    assert_eq!(a.train_report(), b.train_report(), "{name}");
}

#[test]
fn end_to_end_run_beats_chance() {
    let run = quick_run(Project::from_dataset(&seed9_workload()));
    // Intent has 7 classes; chance is ~0.14.
    assert!(run.test_accuracy("Intent") > 0.5, "intent accuracy {}", run.test_accuracy("Intent"));
    assert!(run.mean_test_accuracy() > 0.4);
    assert!(!run.diagnostics().is_empty());
    assert!(run.trials().is_empty(), "no tuning spec => no trials");
}

#[test]
fn run_is_shard_count_invariant() {
    // Shards are scanned in parallel and merged in shard order, so how a
    // dataset is sealed must not change one bit of what the run produces.
    let ds = seed9_workload();
    let one = quick_run(Project::from_store(ds.seal_shards(1)));
    let three_shards = ds.seal_shards(3);
    assert!(three_shards.num_shards() > 1);
    let three = quick_run(Project::from_store(three_shards));
    assert_runs_identical(&one, &three, "1 vs 3 shards");
}

#[test]
fn from_store_matches_from_dataset() {
    // `from_dataset` seals the rows itself; training consumes the same
    // examples in the same order as a run over an explicitly sealed store.
    let ds = seed9_workload();
    let store = quick_run(Project::from_store(ds.seal_shards(3)));
    let dataset = quick_run(Project::from_dataset(&ds));
    assert_runs_identical(&store, &dataset, "from_store vs from_dataset");
}

/// A searched build: two one-epoch trials, then a three-epoch final train
/// that continues the winning trial.
fn searched_options() -> OvertonOptions {
    OvertonOptions {
        tuning: Some(TuningSpec {
            sizes: vec![(24, 32)],
            encoders: vec![EncoderKind::MeanBag, EncoderKind::Cnn],
            embeddings: vec![EmbeddingKind::Learned],
            aggregations: vec![AggregationKind::Mean],
        }),
        search: SearchConfig {
            trials: 2,
            threads: 2,
            seed: 0,
            train: TrainConfig { epochs: 1, early_stop_patience: 0, ..Default::default() },
        },
        ..quick_options(3)
    }
}

#[test]
fn searched_run_is_shard_count_invariant_and_matches_a_fresh_train() {
    let ds = seed9_workload();
    let options = searched_options();
    let root = temp_root("searched");
    let searched = |shards: usize| {
        Project::from_store(ds.seal_shards(shards))
            .at(root.join(format!("{shards}-shards")))
            .with_options(options.clone())
            .run()
            .unwrap()
    };
    let (one, three) = (searched(1), searched(3));
    assert_eq!(one.trials().len(), 2);
    let search_json = |run: &Run| std::fs::read(run.dir().unwrap().join("search.json")).unwrap();
    assert_eq!(search_json(&one), search_json(&three), "search.json diverges");
    assert_runs_identical(&one, &three, "searched, 1 vs 3 shards");

    // The final train continued the winning trial; a fresh compile and
    // train of the chosen config on the same prepared data must land on
    // the same weights and report.
    let prepared = prepare_store(&ds.seal_shards(1), &options.combine).unwrap();
    let chosen = one.chosen_config().unwrap();
    let mut fresh = CompiledModel::compile(ds.schema(), &prepared.space, chosen, None);
    let report = train_model(&mut fresh, &prepared.train, &prepared.dev, &options.train);
    assert_eq!(one.train_report(), Some(&report));
    let trained = one.artifact().unwrap().instantiate();
    for id in fresh.params.ids() {
        let bits = |m: &CompiledModel| -> Vec<u32> {
            m.params.value(id).as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert!(bits(&trained) == bits(&fresh), "{} diverges", fresh.params.name(id));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn searched_learned_winner_ignores_a_supplied_pretrained_artifact() {
    // The artifact only initializes `Pretrained` candidates; a run whose
    // spec has none must still train the `Learned` winner it picked.
    let corpus = overton_nlp::pretraining_corpus(&overton_nlp::KnowledgeBase::standard(), 150, 3);
    let options = OvertonOptions {
        pretrained: Some(pretrain(&corpus, &PretrainConfig { epochs: 1, ..Default::default() })),
        ..searched_options()
    };
    let run = Project::from_dataset(&seed9_workload()).with_options(options).run().unwrap();
    assert_eq!(run.chosen_config().unwrap().embedding, EmbeddingKind::Learned);
    assert!(run.is_complete());
}

/// Figure 4b's "with-BERT" model through the product API: a `Pretrained`
/// run builds, its artifact serves what the run evaluated in process, and
/// it resumes and warm-starts. The pretrained table is registered once, so
/// the trained model and the serving skeleton declare the same parameters.
#[test]
fn pretrained_run_serves_resumes_and_warm_starts() {
    let corpus = overton_nlp::pretraining_corpus(&overton_nlp::KnowledgeBase::standard(), 150, 3);
    let artifact = pretrain(&corpus, &PretrainConfig { epochs: 1, ..Default::default() });
    let options = OvertonOptions {
        base_model: ModelConfig { embedding: EmbeddingKind::Pretrained, ..Default::default() },
        pretrained: Some(artifact),
        ..quick_options(2)
    };
    let (ds, root) = (seed9_workload(), temp_root("pretrained"));
    let project = Project::from_dataset(&ds).with_options(options.clone()).at(&root);
    let run = project.run().expect("a pretrained run completes");
    let packaged = run.artifact().expect("the run packaged an artifact");
    let names: Vec<&str> = packaged.params.ids().map(|id| packaged.params.name(id)).collect();
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a parameter registered twice: {names:?}");

    // The served model answers as the run's in-process model evaluated.
    let test_rows = run.store().index().test_rows();
    let served = evaluate_store(&packaged.instantiate(), run.store(), test_rows, &packaged.space);
    assert_eq!(served.unwrap().reports, run.evaluation().unwrap().reports);
    let responses = test_responses(&run);
    assert_eq!(responses.len(), test_rows.len());

    let mut resumed = project.resume(run.id(), Stage::Evaluate).expect("resume loads");
    resumed.complete().expect("resumed run completes");
    assert_eq!(resumed.evaluation().unwrap().reports, run.evaluation().unwrap().reports);
    assert_eq!(test_responses(&resumed), responses);

    let retrained = Project::from_dataset(&ds)
        .with_options(options)
        .warm_started(packaged.clone())
        .run()
        .expect("a warm-started pretrained retrain completes");
    assert!(retrained.is_complete());
    assert_eq!(retrained.chosen_config(), run.chosen_config());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_two_file_input_surfaces_precise_errors() {
    let root = temp_root("malformed");
    std::fs::create_dir_all(&root).unwrap();
    let schema_path = root.join("schema.json");
    std::fs::write(&schema_path, overton::nlp::workload_schema().to_json()).unwrap();
    let data_path = root.join("data.jsonl");
    let valid = r#"{"payloads": {"query": "how tall is it"}, "tasks": {"Intent": {"w": "Height"}}, "tags": ["train"]}"#;

    let build_err = |data: &str| -> Error {
        std::fs::write(&data_path, data).unwrap();
        Project::from_files(&schema_path, &data_path)
            .run()
            .expect_err("malformed input must error, not panic")
    };

    // A truncated JSONL line (e.g. an interrupted log writer).
    let truncated = format!("{valid}\n{}\n", &valid[..valid.len() / 2]);
    let err = build_err(&truncated);
    assert!(matches!(&err, Error::Store(StoreError::Validation(_))), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("data.jsonl") && msg.contains("line 2"), "{msg}");

    // A record supervising a task the schema does not declare.
    let err = build_err(
        r#"{"payloads": {"query": "q"}, "tasks": {"Sentiment": {"w": "pos"}}, "tags": ["train"]}"#,
    );
    let msg = err.to_string();
    assert!(msg.contains("line 1") && msg.contains("unknown task"), "{msg}");

    // A payload value whose shape disagrees with its declared kind
    // (`query` is a singleton, the record supplies a sequence).
    let err =
        build_err(r#"{"payloads": {"query": ["how", "tall"]}, "tasks": {}, "tags": ["train"]}"#);
    let msg = err.to_string();
    assert!(msg.contains("does not match its declared kind"), "{msg}");

    // A missing schema file is an I/O error naming the file, not a panic.
    std::fs::write(&data_path, format!("{valid}\n")).unwrap();
    let err =
        Project::from_files(root.join("nope.json"), &data_path).run().expect_err("missing schema");
    assert!(matches!(&err, Error::Store(StoreError::Io(_))), "{err:?}");
    assert!(err.to_string().contains("nope.json"), "{err}");

    // A missing data file likewise names the file.
    let err = Project::from_files(&schema_path, root.join("absent.jsonl"))
        .run()
        .expect_err("missing data");
    assert!(err.to_string().contains("absent.jsonl"), "{err}");

    // A failed ingest on a *persisted* project must not leave an empty
    // run directory behind — a stale "latest" run would hijack the
    // default run selection of report/evaluate/serve.
    let rooted = Project::from_files(&schema_path, &data_path).at(&root);
    std::fs::write(&data_path, "{not json}\n").unwrap();
    rooted.run().expect_err("malformed data");
    assert_eq!(rooted.latest_run_id().unwrap(), None);
    let leftover = std::fs::read_dir(root.join("runs")).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "failed ingest left a run directory behind");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn failed_resume_load_preserves_run_artifacts() {
    let root = temp_root("resume-corrupt");
    let store = generate_workload_sealed(&WorkloadConfig {
        n_train: 60,
        n_dev: 15,
        n_test: 15,
        seed: 8,
        ..Default::default()
    });
    let project = Project::from_store(store).with_options(quick_options(1)).at(&root);
    let run = project.run().expect("baseline run");
    let run_dir = root.join("runs").join(run.id());

    // Corrupt an earlier-stage artifact the resume needs: loading must
    // fail WITHOUT destroying the still-good packaged model/evaluation —
    // the run stays serveable after a failed resume.
    let good_search = std::fs::read_to_string(run_dir.join("search.json")).unwrap();
    std::fs::write(run_dir.join("search.json"), "{broken").unwrap();
    let err = project.resume(run.id(), Stage::Package).unwrap_err();
    assert!(err.to_string().contains("search.json"), "{err}");
    assert!(run_dir.join("artifact.model.json").exists(), "failed resume destroyed the artifact");
    assert!(run_dir.join("evaluation.json").exists(), "failed resume destroyed the evaluation");

    // Restoring the artifact makes the same resume succeed.
    std::fs::write(run_dir.join("search.json"), good_search).unwrap();
    let mut resumed = project.resume(run.id(), Stage::Package).expect("resume loads");
    resumed.complete().expect("resumed run completes");
    assert_eq!(resumed.evaluation().unwrap().reports, run.evaluation().unwrap().reports);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn in_place_reingest_replaces_the_store_wholesale() {
    // Resume-from-ingest with a shrunken dataset: the old store had more
    // shard files than the new one writes; stale shards must not survive
    // (read_dir rejects unexpected extra shard files as corruption).
    let root = temp_root("reingest");
    let config =
        WorkloadConfig { n_train: 150, n_dev: 30, n_test: 40, seed: 6, ..Default::default() };
    let wide = overton::nlp::generate_workload(&config).seal_shards(6);
    assert!(wide.num_shards() > 1);
    let project = Project::from_store(wide).with_options(quick_options(1)).at(&root);
    let run = project.run().expect("baseline run");

    let narrow = overton::nlp::generate_workload(&WorkloadConfig {
        n_train: 60,
        n_dev: 15,
        n_test: 15,
        ..config
    })
    .seal_shards(1);
    let edited = Project::from_store(narrow).with_options(quick_options(1)).at(&root);
    let mut rerun = edited.resume(run.id(), Stage::Ingest).expect("re-ingest in place");
    rerun.complete().expect("re-run completes");

    // The persisted store reloads cleanly — no stale shard files left.
    let mut again = edited.resume(run.id(), Stage::Evaluate).expect("store reloads");
    again.complete().expect("evaluate");
    assert_eq!(again.evaluation().unwrap().reports, rerun.evaluation().unwrap().reports);
    assert_eq!(again.store().len(), 90);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn resume_errors_are_precise() {
    // No root: nothing to resume.
    let store = generate_workload_sealed(&WorkloadConfig {
        n_train: 40,
        n_dev: 10,
        n_test: 10,
        seed: 3,
        ..Default::default()
    });
    let in_memory = Project::from_store(store.clone()).with_options(quick_options(1));
    let err = in_memory.resume("run-0001", Stage::Train).unwrap_err();
    assert!(matches!(err, Error::Run { .. }), "{err:?}");

    let root = temp_root("resume-errors");
    let project = Project::from_store(store).with_options(quick_options(1)).at(&root);

    // Unknown run id.
    let err = project.resume("run-9999", Stage::Train).unwrap_err();
    assert!(err.to_string().contains("no persisted run"), "{err}");

    // Resuming past a stage that never completed: only ingest ran here.
    let ingested = project.start().unwrap();
    let err = project.resume(ingested.id(), Stage::Train).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("combine") && msg.contains("never completed"), "{msg}");

    std::fs::remove_dir_all(&root).ok();
}
