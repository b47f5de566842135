//! The multi-threaded serving front end: a shared request queue drained by
//! worker threads in dynamic micro-batches.
//!
//! Requests are enqueued individually (or as a burst) and each worker
//! drains *up to* `max_batch` of whatever is queued the moment it wakes —
//! under light load a request rides alone for minimal latency, under heavy
//! load batches fill up and the batched forward path
//! ([`overton_model::Server::predict_batch`]) stacks the batch's rows so
//! each layer runs one GEMM for the whole micro-batch. A full batch
//! ([`WorkerPool::process`] of exactly `max_batch` records) that finds the
//! queue empty and a forward slot free runs on the caller's thread instead;
//! inline and worker forwards share one slot count, at most `workers`.
//! Engines are hot-swappable behind an `RwLock`, so a canary is promoted
//! under live traffic without dropping a request.

use crate::cascade::{CascadeEngine, Route};
use crate::telemetry::{Telemetry, TelemetrySnapshot, TrafficBaseline};
use crate::trace::{RequestTrace, SpanName};
use overton_model::ServingResponse;
use overton_store::{Record, StoreError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker pool sizing and batching knobs.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Worker threads.
    pub workers: usize,
    /// Maximum records a worker drains into one batch.
    pub max_batch: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self { workers: 4, max_batch: 32 }
    }
}

/// The answer to one submitted request.
#[derive(Debug)]
pub struct ServeReply {
    /// Submission sequence number (per pool, starting at 0).
    pub seq: u64,
    /// The response, or the per-record failure.
    pub result: Result<ServingResponse, StoreError>,
    /// Which cascade route answered.
    pub route: Route,
    /// Queue + inference time, as observed by the worker.
    pub latency: Duration,
    /// Size of the micro-batch this request was served in.
    pub batch_size: usize,
}

/// A handle to one in-flight request.
pub struct Ticket {
    seq: u64,
    rx: mpsc::Receiver<ServeReply>,
}

impl Ticket {
    /// The request's submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the reply arrives.
    ///
    /// # Panics
    /// Panics if the pool was torn down without serving the request (a bug
    /// — shutdown drains the queue first).
    pub fn wait(self) -> ServeReply {
        self.rx.recv().expect("worker pool dropped an in-flight request")
    }
}

struct Job {
    seq: u64,
    record: Record,
    enqueued: Instant,
    tx: mpsc::Sender<ServeReply>,
    /// The request trace this job belongs to, when the request is being
    /// traced. Workers only stamp its lock-free atomics — a traced batch
    /// costs a few atomic stores, never a lock.
    trace: Option<Arc<RequestTrace>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Forwards in flight, inline ones included; at most `workers`.
    running: usize,
    #[cfg(test)]
    peak_running: usize,
}

/// A held forward slot; dropping it, on unwind too, frees it and wakes a worker if jobs wait.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(test)]
        {
            queue.peak_running = queue.peak_running.max(queue.running);
        }
        queue.running -= 1;
        if !queue.jobs.is_empty() {
            self.0.available.notify_one();
        }
    }
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    engine: RwLock<Arc<CascadeEngine>>,
    telemetry: Telemetry,
    next_seq: AtomicU64,
}

/// A running serving pool. Dropping it shuts the workers down after the
/// queue drains.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    config: ServingConfig,
}

impl WorkerPool {
    /// Starts `config.workers` threads serving from `engine`; `baseline`
    /// enables drift telemetry.
    pub fn start(
        engine: Arc<CascadeEngine>,
        config: ServingConfig,
        baseline: Option<TrafficBaseline>,
    ) -> Self {
        assert!(config.workers > 0, "worker pool needs at least one worker");
        assert!(config.max_batch > 0, "max_batch must be positive");
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            telemetry: Telemetry::new(engine.slice_names().to_vec(), baseline),
            engine: RwLock::new(engine),
            next_seq: AtomicU64::new(0),
        });
        let handles = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let (workers, max_batch) = (config.workers, config.max_batch);
                std::thread::Builder::new()
                    .name(format!("overton-serve-{i}"))
                    .spawn(move || worker_loop(&shared, workers, max_batch))
                    .expect("spawn serving worker")
            })
            .collect();
        Self { shared, handles, config }
    }

    /// The pool configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Enqueues one record; the reply arrives on the returned ticket.
    pub fn submit(&self, record: Record) -> Ticket {
        let mut tickets = self.submit_burst(vec![record]);
        tickets.pop().expect("one ticket per record")
    }

    /// Enqueues a burst of records under one queue lock, so an arriving
    /// burst is visible to workers all at once and actually batches.
    pub fn submit_burst(&self, records: Vec<Record>) -> Vec<Ticket> {
        self.submit_burst_traced(records, None)
    }

    /// [`submit_burst`](Self::submit_burst), stamping queue/batch/forward
    /// span boundaries onto `trace` as the burst moves through the pool.
    pub fn submit_burst_traced(
        &self,
        records: Vec<Record>,
        trace: Option<Arc<RequestTrace>>,
    ) -> Vec<Ticket> {
        if let Some(t) = &trace {
            t.begin(SpanName::QueueWait);
        }
        let mut tickets = Vec::with_capacity(records.len());
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            let first = self.shared.next_seq.fetch_add(records.len() as u64, Ordering::Relaxed);
            for (seq, record) in (first..).zip(records) {
                let (tx, rx) = mpsc::channel();
                let trace = trace.clone();
                queue.jobs.push_back(Job { seq, record, enqueued: Instant::now(), tx, trace });
                tickets.push(Ticket { seq, rx });
            }
        }
        self.shared.available.notify_all();
        tickets
    }

    /// Serves a burst and blocks for every reply, in submission order. A
    /// full batch may run on this thread (see the module doc).
    pub fn process(&self, records: Vec<Record>) -> Vec<ServeReply> {
        self.process_traced(records, None)
    }

    /// [`process`](Self::process) with span stamping onto `trace`; an inline
    /// batch's queue and batch waits are zero-length.
    pub fn process_traced(
        &self,
        records: Vec<Record>,
        trace: Option<Arc<RequestTrace>>,
    ) -> Vec<ServeReply> {
        if let Some(slot) = self.inline_slot(records.len()) {
            let (at, (tx, rx)) = (Instant::now(), mpsc::channel());
            let first = self.shared.next_seq.fetch_add(records.len() as u64, Ordering::Relaxed);
            let batch = (first..).zip(records).map(|(seq, record)| {
                let (tx, trace) = (tx.clone(), trace.clone());
                Job { seq, record, enqueued: at, tx, trace }
            });
            run_batch(&self.shared, batch.collect(), slot, at, true);
            return rx.try_iter().collect();
        }
        self.submit_burst_traced(records, trace).into_iter().map(Ticket::wait).collect()
    }

    /// A forward slot for an inline batch: a full one, with nothing queued
    /// to overtake, a slot free, and the pool neither paused nor stopping.
    fn inline_slot(&self, len: usize) -> Option<Slot<'_>> {
        if len != self.config.max_batch {
            return None;
        }
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        let free = queue.jobs.is_empty()
            && queue.running < self.config.workers
            && !self.shared.paused.load(Ordering::SeqCst)
            && !self.shared.shutdown.load(Ordering::SeqCst);
        free.then(|| {
            queue.running += 1;
            Slot(&self.shared)
        })
    }

    /// Requests currently waiting in the queue (not yet drained into a
    /// worker's batch) — the admission-control signal the socket tier's
    /// shed policy reads.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").jobs.len()
    }

    /// Pauses the workers: submissions still enqueue, but nothing is
    /// drained until [`resume`](Self::resume). Deterministic backpressure
    /// for overload and drain tests — fill the queue to a known depth,
    /// assert shedding, then release. Shutdown overrides a pause, so a
    /// paused pool still drains on drop.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes draining after [`pause`](Self::pause).
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
        self.shared.available.notify_all();
    }

    /// The currently-serving engine.
    pub fn engine(&self) -> Arc<CascadeEngine> {
        Arc::clone(&self.shared.engine.read().expect("engine lock poisoned"))
    }

    /// Hot-swaps the serving engine (deployment promotion/rollback). The
    /// swap must preserve the serving signature — that is the §2.1/§2.4
    /// model-independence contract — and the slice space, which telemetry
    /// indexes positionally but the signature does not cover. In-flight
    /// batches finish on the old engine; returns it.
    pub fn swap_engine(
        &self,
        engine: Arc<CascadeEngine>,
    ) -> Result<Arc<CascadeEngine>, StoreError> {
        let mut slot = self.shared.engine.write().expect("engine lock poisoned");
        if slot.signature() != engine.signature() {
            return Err(StoreError::Validation(
                "engine swap would change the serving signature".into(),
            ));
        }
        if slot.slice_names() != engine.slice_names() {
            return Err(StoreError::Validation(
                "engine swap would change the slice space telemetry reports over".into(),
            ));
        }
        Ok(std::mem::replace(&mut *slot, engine))
    }

    /// Live telemetry snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.shared.telemetry.snapshot()
    }

    /// The pool's telemetry sink — the attach point for the observability
    /// hook ([`Telemetry::attach_observer`]) and the baseline accessor.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Signals shutdown, drains the queue, and joins the workers.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(shared: &Shared, workers: usize, max_batch: usize) {
    loop {
        let (batch, slot) = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                // Shutdown overrides pause: a paused pool still drains its
                // queue on the way down, so no ticket is ever dropped.
                let shutdown = shared.shutdown.load(Ordering::SeqCst);
                let draining = shutdown || !shared.paused.load(Ordering::SeqCst);
                if !queue.jobs.is_empty() && queue.running < workers && draining {
                    break;
                }
                if shutdown && queue.jobs.is_empty() {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue poisoned");
            }
            let n = queue.jobs.len().min(max_batch);
            let batch: Vec<Job> = queue.jobs.drain(..n).collect();
            // More work remains for another worker.
            if !queue.jobs.is_empty() {
                shared.available.notify_one();
            }
            queue.running += 1;
            (batch, Slot(shared))
        };
        run_batch(shared, batch, slot, Instant::now(), false);
    }
}

/// Every batch's forward, worker-drained or inline: span stamps, one
/// `answer_batch` on the engine current at its start (which frees `slot`),
/// then per record the telemetry, the observability hook and the reply. An
/// `inline` batch enters at `drained`: its queue and batch waits are empty.
fn run_batch(shared: &Shared, mut batch: Vec<Job>, slot: Slot, drained: Instant, inline: bool) {
    // Dequeue boundary: queue-wait ends, batch formation begins. One
    // request's records can split across batches and workers; the
    // fetch_min/fetch_max merge in RequestTrace folds every stamp
    // into a single envelope per span.
    for job in &batch {
        if let Some(t) = &job.trace {
            if inline {
                t.begin_at(SpanName::QueueWait, drained);
            }
            t.end_at(SpanName::QueueWait, drained);
            t.begin_at(SpanName::BatchWait, drained);
        }
    }
    let engine = Arc::clone(&shared.engine.read().expect("engine lock poisoned"));
    let batch_size = batch.len();
    let records: Vec<Record> = batch.iter_mut().map(|j| std::mem::take(&mut j.record)).collect();
    let forward_start = if inline { drained } else { Instant::now() };
    for job in &batch {
        if let Some(t) = &job.trace {
            t.end_at(SpanName::BatchWait, forward_start);
            t.begin_at(SpanName::EngineForward, forward_start);
        }
    }
    let results = engine.answer_batch(&records);
    let finished = Instant::now();
    drop(slot);
    for job in &batch {
        if let Some(t) = &job.trace {
            t.end_at(SpanName::EngineForward, finished);
        }
    }
    let observed = shared.telemetry.observer_attached();
    for ((job, record), (result, route)) in batch.into_iter().zip(&records).zip(results) {
        let latency = finished.duration_since(job.enqueued);
        shared.telemetry.observe(&result, latency);
        if observed {
            // The observability hook: build the flattened sample and
            // try_send it — bounded channel, never blocks a forward.
            shared.telemetry.forward(crate::telemetry::ServeSample::collect(
                engine.schema(),
                shared.telemetry.slice_names(),
                record,
                &result,
                latency,
            ));
        }
        // A dropped ticket just means the caller stopped waiting.
        let _ = job.tx.send(ServeReply { seq: job.seq, result, route, latency, batch_size });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_model::{CompiledModel, DeployableModel, FeatureSpace, ModelConfig, Server};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use std::collections::BTreeMap;

    fn engine_and_records(seed: u64) -> (Arc<CascadeEngine>, Vec<Record>) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 40,
            n_dev: 10,
            n_test: 60,
            seed,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let records = ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
        (Arc::new(CascadeEngine::single(Server::load(&artifact))), records)
    }

    #[test]
    fn burst_is_served_in_order_with_batching() {
        let (engine, records) = engine_and_records(71);
        let pool = WorkerPool::start(
            Arc::clone(&engine),
            ServingConfig { workers: 3, max_batch: 8 },
            None,
        );
        let reference: Vec<ServingResponse> = {
            let server = engine.answer_batch(&records);
            server.into_iter().map(|(r, _)| r.unwrap()).collect()
        };
        let replies = pool.process(records);
        assert_eq!(replies.len(), reference.len());
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.seq, i as u64, "replies out of submission order");
            assert_eq!(*reply.result.as_ref().unwrap(), reference[i]);
            assert!(reply.batch_size >= 1 && reply.batch_size <= 8);
        }
        let snap = pool.snapshot();
        assert_eq!(snap.served, reference.len() as u64);
        assert_eq!(snap.errors, 0);
        pool.shutdown();
    }

    #[test]
    fn invalid_records_fail_individually_and_count_as_errors() {
        let (engine, mut records) = engine_and_records(72);
        records.truncate(5);
        records.push(Record::new().with_label(
            "Intent",
            "w",
            overton_store::TaskLabel::MulticlassOne("NotAClass".into()),
        ));
        let pool = WorkerPool::start(engine, ServingConfig::default(), None);
        let replies = pool.process(records);
        assert_eq!(replies.iter().filter(|r| r.result.is_err()).count(), 1);
        assert!(replies.last().unwrap().result.is_err());
        assert_eq!(pool.snapshot().errors, 1);
    }

    #[test]
    fn pause_holds_the_queue_and_resume_releases_it() {
        let (engine, mut records) = engine_and_records(75);
        records.truncate(6);
        let pool = WorkerPool::start(engine, ServingConfig { workers: 2, max_batch: 4 }, None);
        pool.pause();
        let tickets = pool.submit_burst(records);
        // Paused workers drain nothing; the queue holds the whole burst.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.queue_depth(), tickets.len());
        pool.resume();
        let replies: Vec<ServeReply> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(replies.iter().all(|r| r.result.is_ok()));
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn shutdown_overrides_pause_and_still_drains() {
        let (engine, mut records) = engine_and_records(76);
        records.truncate(3);
        let pool = WorkerPool::start(engine, ServingConfig { workers: 1, max_batch: 8 }, None);
        pool.pause();
        let tickets = pool.submit_burst(records);
        pool.shutdown();
        // Every queued request was still answered on the way down.
        for ticket in tickets {
            assert!(ticket.wait().result.is_ok());
        }
    }

    #[test]
    fn swap_engine_rejects_signature_changes_and_allows_retrains() {
        let (engine, records) = engine_and_records(73);
        let pool = WorkerPool::start(Arc::clone(&engine), ServingConfig::default(), None);
        // A retrained model over the same schema swaps in fine.
        let (retrained, _) = engine_and_records(73);
        assert!(pool.swap_engine(retrained).is_ok());
        let _ = pool.process(records[..4].to_vec());
        // A different schema (different signature) is rejected.
        let other = generate_workload(&WorkloadConfig {
            n_train: 30,
            n_dev: 5,
            n_test: 5,
            seed: 74,
            ..Default::default()
        });
        let mut schema = other.schema().clone();
        schema.tasks.remove("Intent");
        let space = FeatureSpace::build_from_store(&other.seal()).unwrap();
        let model = CompiledModel::compile(&schema, &space, &ModelConfig::default(), None);
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let incompatible = Arc::new(CascadeEngine::single(Server::load(&artifact)));
        assert!(pool.swap_engine(incompatible).is_err());
        // Same signature but a different slice space is also rejected:
        // telemetry indexes slice probabilities positionally.
        let mut resliced_space = FeatureSpace::build_from_store(&other.seal()).unwrap();
        resliced_space.slice_names.push("brand-new-slice".into());
        let resliced =
            CompiledModel::compile(other.schema(), &resliced_space, &ModelConfig::default(), None);
        let artifact = DeployableModel::package(&resliced, &resliced_space, BTreeMap::new());
        let resliced_engine = Arc::new(CascadeEngine::single(Server::load(&artifact)));
        assert_eq!(*resliced_engine.signature(), *pool.engine().signature());
        assert!(pool.swap_engine(resliced_engine).is_err());
    }

    /// Two engines over one workload that differ only in their parameter
    /// seed: same signature and slice space, different answers.
    fn two_engines_and_records(seed: u64) -> (Arc<CascadeEngine>, Arc<CascadeEngine>, Vec<Record>) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 40,
            n_dev: 10,
            n_test: 60,
            seed,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let engine = |model_seed| {
            let config = ModelConfig { seed: model_seed, ..ModelConfig::default() };
            let model = CompiledModel::compile(ds.schema(), &space, &config, None);
            let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
            Arc::new(CascadeEngine::single(Server::load(&artifact)))
        };
        let records = ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
        (engine(1), engine(2), records)
    }

    fn answers(replies: &[ServeReply]) -> Vec<&ServingResponse> {
        replies.iter().map(|r| r.result.as_ref().unwrap()).collect()
    }

    fn reference(engine: &CascadeEngine, records: &[Record]) -> Vec<ServingResponse> {
        engine.answer_batch(records).into_iter().map(|(r, _)| r.unwrap()).collect()
    }

    /// A pool whose worker threads have been joined but which still takes
    /// requests: only an inline batch can be answered, and anything queued
    /// waits for [`drain_with_workers`].
    fn pool_without_workers(engine: Arc<CascadeEngine>, config: ServingConfig) -> Arc<WorkerPool> {
        let mut pool = WorkerPool::start(engine, config, None);
        pool.stop_and_join();
        pool.shared.shutdown.store(false, Ordering::SeqCst);
        Arc::new(pool)
    }

    /// `process(records)` on its own thread, so a test can watch the queue
    /// while the call waits.
    fn process_in_background(
        pool: &Arc<WorkerPool>,
        records: Vec<Record>,
    ) -> std::thread::JoinHandle<Vec<ServeReply>> {
        let pool = Arc::clone(pool);
        std::thread::spawn(move || pool.process(records))
    }

    /// Joins a [`process_in_background`] call, failing (instead of hanging)
    /// if it has not answered within [`PATIENCE`].
    fn replies_of(call: std::thread::JoinHandle<Vec<ServeReply>>) -> Vec<ServeReply> {
        let deadline = Instant::now() + PATIENCE;
        while !call.is_finished() {
            assert!(Instant::now() < deadline, "the process call never answered");
            std::thread::sleep(Duration::from_millis(1));
        }
        call.join().expect("process call panicked")
    }

    const PATIENCE: Duration = Duration::from_secs(30);

    fn await_queue_depth(pool: &WorkerPool, depth: usize) {
        let deadline = Instant::now() + PATIENCE;
        while pool.queue_depth() != depth {
            assert!(
                Instant::now() < deadline,
                "queue depth {} never reached {depth}",
                pool.queue_depth()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Resumes a [`pool_without_workers`] and runs fresh workers until its
    /// queue is empty.
    fn drain_with_workers(pool: &WorkerPool) {
        pool.resume();
        let ServingConfig { workers, max_batch } = *pool.config();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| worker_loop(&pool.shared, workers, max_batch));
            }
            pool.shared.shutdown.store(true, Ordering::SeqCst);
            pool.shared.available.notify_all();
        });
    }

    #[test]
    fn a_full_batch_on_an_idle_pool_runs_inline() {
        let (engine, records) = engine_and_records(77);
        // No worker threads: the batch is answered only if it never queues.
        let pool =
            pool_without_workers(Arc::clone(&engine), ServingConfig { workers: 2, max_batch: 8 });
        for (round, batch) in records.chunks(8).take(3).enumerate() {
            // Without workers, a queued batch would never be answered.
            let replies = replies_of(process_in_background(&pool, batch.to_vec()));
            assert_eq!(answers(&replies), reference(&engine, batch).iter().collect::<Vec<_>>());
            let seqs: Vec<u64> = replies.iter().map(|r| r.seq).collect();
            let first = 8 * round as u64;
            assert_eq!(seqs, (first..first + 8).collect::<Vec<_>>());
            assert!(replies.iter().all(|r| r.batch_size == 8));
        }
        assert_eq!(pool.snapshot().served, 24);
        assert_eq!(pool.shared.queue.lock().unwrap().running, 0);
    }

    #[test]
    fn a_full_batch_queues_while_the_pool_is_paused() {
        let (engine, records) = engine_and_records(78);
        let pool =
            pool_without_workers(Arc::clone(&engine), ServingConfig { workers: 2, max_batch: 8 });
        pool.pause();
        let call = process_in_background(&pool, records[..8].to_vec());
        await_queue_depth(&pool, 8);
        drain_with_workers(&pool);
        let replies = replies_of(call);
        assert_eq!(answers(&replies), reference(&engine, &records[..8]).iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_full_batch_queues_behind_a_waiting_request() {
        let (engine, records) = engine_and_records(79);
        let pool =
            pool_without_workers(Arc::clone(&engine), ServingConfig { workers: 2, max_batch: 8 });
        let waiting = pool.submit(records[8].clone());
        let call = process_in_background(&pool, records[..8].to_vec());
        // Queued behind the waiting record, not run past it.
        await_queue_depth(&pool, 9);
        drain_with_workers(&pool);
        let replies = replies_of(call);
        assert_eq!(answers(&replies), reference(&engine, &records[..8]).iter().collect::<Vec<_>>());
        assert!(replies.iter().all(|r| r.seq > waiting.seq()));
        assert!(waiting.wait().result.is_ok());
    }

    #[test]
    fn a_batch_over_max_batch_spreads_over_the_workers() {
        let (engine, records) = engine_and_records(80);
        let config = ServingConfig { workers: 2, max_batch: 8 };
        let pool = pool_without_workers(Arc::clone(&engine), config.clone());
        let call = process_in_background(&pool, records[..9].to_vec());
        await_queue_depth(&pool, 9);
        drain_with_workers(&pool);
        let replies = replies_of(call);
        assert_eq!(answers(&replies), reference(&engine, &records[..9]).iter().collect::<Vec<_>>());
        assert!(replies.iter().all(|r| r.batch_size <= 8));
        // On a live pool it is answered the same way.
        let live = WorkerPool::start(Arc::clone(&engine), config, None);
        let replies = live.process(records[..9].to_vec());
        assert_eq!(answers(&replies), reference(&engine, &records[..9]).iter().collect::<Vec<_>>());
        assert!(replies.iter().all(|r| r.batch_size <= 8));
    }

    #[test]
    fn forwards_never_exceed_workers() {
        let (engine, records) = engine_and_records(81);
        let want = reference(&engine, &records);
        let pool = WorkerPool::start(engine, ServingConfig { workers: 2, max_batch: 8 }, None);
        std::thread::scope(|s| {
            for t in 0..6 {
                let (pool, records, want) = (&pool, &records, &want);
                s.spawn(move || {
                    for i in 0..20 {
                        let at = (t * 3 + i) % (records.len() - 8);
                        let replies = pool.process(records[at..at + 8].to_vec());
                        assert_eq!(answers(&replies), want[at..at + 8].iter().collect::<Vec<_>>());
                    }
                });
            }
            s.spawn(|| {
                for i in 0..40 {
                    let at = i % (records.len() - 3);
                    let tickets = pool.submit_burst(records[at..at + 3].to_vec());
                    let replies: Vec<ServeReply> = tickets.into_iter().map(Ticket::wait).collect();
                    assert_eq!(answers(&replies), want[at..at + 3].iter().collect::<Vec<_>>());
                }
            });
        });
        let queue = pool.shared.queue.lock().unwrap();
        assert!(queue.peak_running <= 2, "{} forwards ran at once", queue.peak_running);
        assert_eq!(queue.running, 0);
    }

    #[test]
    fn a_traced_inline_request_has_every_span_with_zero_waits() {
        let (engine, records) = engine_and_records(82);
        let pool = WorkerPool::start(engine, ServingConfig { workers: 1, max_batch: 4 }, None);
        let trace = RequestTrace::start("inline".into(), Instant::now());
        for span in [SpanName::Accept, SpanName::Parse, SpanName::Admission] {
            trace.begin(span);
            trace.end(span);
        }
        let replies = pool.process_traced(records[..4].to_vec(), Some(Arc::clone(&trace)));
        assert!(replies.iter().all(|r| r.result.is_ok() && r.batch_size == 4));
        for span in [SpanName::Encode, SpanName::Write] {
            trace.begin(span);
            trace.end(span);
        }
        let report = trace.report();
        let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, SpanName::ALL.iter().map(|s| s.name()).collect::<Vec<_>>());
        assert!(report.spans.windows(2).all(|w| w[0].start_micros <= w[1].start_micros));
        for span in [SpanName::QueueWait, SpanName::BatchWait] {
            let (start, end) = trace.span_micros(span).unwrap();
            assert_eq!(start, end, "{} is not zero-length", span.name());
        }
    }

    #[test]
    fn an_inline_batch_finishes_on_the_engine_it_started_on() {
        let (a, b, records) = two_engines_and_records(83);
        let batch = &records[..8];
        let (want_a, want_b) = (reference(&a, batch), reference(&b, batch));
        assert_ne!(want_a, want_b, "the two engines must answer differently");
        let pool =
            WorkerPool::start(Arc::clone(&a), ServingConfig { workers: 2, max_batch: 8 }, None);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..400 {
                    let next = if i % 2 == 0 { &b } else { &a };
                    pool.swap_engine(Arc::clone(next)).unwrap();
                    std::thread::yield_now();
                }
            });
            for _ in 0..200 {
                let replies = pool.process(batch.to_vec());
                assert!(replies.iter().all(|r| r.batch_size == 8));
                let got: Vec<ServingResponse> =
                    replies.into_iter().map(|r| r.result.unwrap()).collect();
                assert!(got == want_a || got == want_b, "a batch mixed two engines' answers");
            }
        });
        // The swaps ended on `a`; the next batch sees it.
        let replies = pool.process(batch.to_vec());
        assert_eq!(answers(&replies), want_a.iter().collect::<Vec<_>>());
    }
}
