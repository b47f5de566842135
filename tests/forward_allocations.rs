//! Allocation budgets for the two executors of the model plan, on a fixed
//! workload: a warm 32-example `dev_agreement` (the inference forward,
//! with each example's score read from its logits in place), a warm
//! 32-record `Server::predict_batch` (validate, encode, forward and build
//! the responses), and a warm one-epoch `train_model` over 32 examples
//! with one gradient worker (the training forward and backward). All run
//! on the calling thread and make a fixed number of heap allocations, and
//! the budgets below pin those numbers: a change that brings back
//! per-example copies or decoded outputs into the forward, per-response
//! name copies into serving, or per-node matrices into the backward, fails
//! here. Only the calling thread's allocations are counted, so tests
//! running alongside cannot move them.

use overton_model::{
    dev_agreement, gold_to_prob, train_model, CompiledExample, CompiledModel, DeployableModel,
    FeatureSpace, ModelConfig, Server, ServingResponse, TrainConfig,
};
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_store::Dataset;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Allocations of one warm 32-example forward over the fixture below,
/// each example scored against its gold targets where its logits lie:
/// the batch's bounds and gathered ids, its arena and its step scratch,
/// and none per example or per decoded output.
const BUDGET: usize = 41;

/// The system allocator, counting the calling thread's allocations while
/// [`allocations_of`] is armed.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`, returning how many allocations this thread made meanwhile.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let out = f();
    (out, ALLOCATIONS.with(|count| count.replace(None)).expect("armed above"))
}

/// The workload the budgets run on: the fixed sizes and seed, with the
/// rest of `config`.
fn workload(config: WorkloadConfig) -> (Dataset, FeatureSpace) {
    let ds = generate_workload(&WorkloadConfig {
        n_train: 60,
        n_dev: 10,
        n_test: 40,
        seed: 17,
        ..config
    });
    let space = FeatureSpace::build_from_store(&ds.seal()).expect("feature space");
    (ds, space)
}

/// The workload the forward and serving budgets run on.
fn fixture() -> (Dataset, FeatureSpace) {
    workload(WorkloadConfig::default())
}

/// `records` of the fixture compiled into examples, each carrying a
/// target for every task it has gold for.
fn gold_examples(ds: &Dataset, space: &FeatureSpace, records: &[usize]) -> Vec<CompiledExample> {
    records
        .iter()
        .map(|&i| {
            let record = &ds.records()[i];
            let mut ex = CompiledExample::from_record(record, i, space, ds.schema());
            for task in ds.schema().tasks.keys() {
                if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                    ex.targets.insert(task.clone(), p);
                }
            }
            ex
        })
        .collect()
}

#[test]
fn warm_forward_stays_within_its_allocation_budget() {
    let (ds, space) = fixture();
    let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let examples = gold_examples(&ds, &space, &ds.test_indices()[..32]);
    for ex in &examples {
        assert!(
            ds.schema().tasks.keys().all(|task| ex.targets.contains_key(task)),
            "every fixture example carries a target for every task"
        );
    }
    let warm = dev_agreement(&model, &examples);
    let (score, allocations) = allocations_of(|| dev_agreement(&model, &examples));
    assert_eq!(score.to_bits(), warm.to_bits(), "a warm forward scores as the first one did");
    println!("{allocations} allocations for 32 records");
    assert!(
        allocations <= BUDGET,
        "a warm 32-record forward made {allocations} allocations, over its budget of {BUDGET}"
    );
}

/// Allocations of one warm 32-record `Server::predict_batch` over the
/// fixture's untrained default model, packaged and loaded: validating
/// and encoding each record, one forward, and per response its task map,
/// its output vectors and its selected id. Names are the server's,
/// shared and not copied.
const SERVE_BUDGET: usize = 663;

#[test]
fn warm_serve_batch_stays_within_its_allocation_budget() {
    let (ds, space) = fixture();
    let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let server = Server::load(&DeployableModel::package(&model, &space, BTreeMap::new()));
    let records: Vec<_> =
        ds.test_indices()[..32].iter().map(|&i| ds.records()[i].clone()).collect();
    let answers = |results: Vec<Result<_, _>>| -> Vec<ServingResponse> {
        results.into_iter().map(|r| r.expect("every fixture record is served")).collect()
    };
    let warm = answers(server.predict_batch(&records));
    let (responses, allocations) = allocations_of(|| server.predict_batch(&records));
    assert_eq!(answers(responses), warm, "a warm batch answers as the first one did");
    println!("{allocations} allocations for 32 served records");
    assert!(
        allocations <= SERVE_BUDGET,
        "a warm 32-record serve made {allocations} allocations, over its budget of {SERVE_BUDGET}"
    );
}

/// Allocations of one warm training epoch over the fixture's first 32
/// training records with gold targets: default model, no dev split, one
/// gradient worker. About a dozen per window for its bounds and queue, one
/// per gradient on its first touch (an optimizer step zeroes them in
/// place), plus the run's own state (two copies of the weights, the
/// optimizer's moments) and the growth of its one workspace.
const TRAIN_BUDGET: usize = 464;

#[test]
fn warm_training_epoch_stays_within_its_allocation_budget() {
    // Every training record carries gold, so every task head trains.
    let (ds, space) = workload(WorkloadConfig { gold_train_fraction: 1.0, ..Default::default() });
    let train = gold_examples(&ds, &space, &ds.train_indices()[..32]);
    for ex in &train {
        assert!(
            ds.schema().tasks.keys().all(|task| ex.targets.contains_key(task)),
            "every training record carries a target for every task"
        );
    }
    let config = TrainConfig { epochs: 1, grad_workers: 1, ..Default::default() };
    let compile = || CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let warm = train_model(&mut compile(), &train, &[], &config);
    let mut model = compile();
    let (report, allocations) = allocations_of(|| train_model(&mut model, &train, &[], &config));
    assert_eq!(report, warm, "a warm epoch trains as the first one did");
    println!("{allocations} allocations for one 32-example epoch");
    assert!(
        allocations <= TRAIN_BUDGET,
        "a warm training epoch made {allocations} allocations, over its budget of {TRAIN_BUDGET}"
    );
}
