//! The multi-threaded serving front end: a shared request queue drained by
//! worker threads in dynamic micro-batches.
//!
//! Requests are enqueued individually (or as a burst) and each worker
//! drains *up to* `max_batch` of whatever is queued the moment it wakes —
//! under light load a request rides alone for minimal latency, under heavy
//! load batches fill up and the batched forward path
//! ([`overton_model::Server::predict_batch`]) stacks the batch's rows so
//! each layer runs one GEMM for the whole micro-batch. Engines are hot-swappable behind an `RwLock`, which is what
//! lets the deployment manager promote a canary under live traffic without
//! dropping a request.

use crate::cascade::{CascadeEngine, Route};
use crate::telemetry::{Telemetry, TelemetrySnapshot, TrafficBaseline};
use crate::trace::{RequestTrace, SpanName};
use overton_model::ServingResponse;
use overton_store::{Record, StoreError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
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

struct Shared {
    queue: Mutex<VecDeque<Job>>,
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
            queue: Mutex::new(VecDeque::new()),
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
                let max_batch = config.max_batch;
                std::thread::Builder::new()
                    .name(format!("overton-serve-{i}"))
                    .spawn(move || worker_loop(&shared, max_batch))
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
            for record in records {
                let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
                let (tx, rx) = mpsc::channel();
                queue.push_back(Job {
                    seq,
                    record,
                    enqueued: Instant::now(),
                    tx,
                    trace: trace.clone(),
                });
                tickets.push(Ticket { seq, rx });
            }
        }
        self.shared.available.notify_all();
        tickets
    }

    /// Submits a burst and blocks for every reply, returned in submission
    /// order.
    pub fn process(&self, records: Vec<Record>) -> Vec<ServeReply> {
        self.submit_burst(records).into_iter().map(Ticket::wait).collect()
    }

    /// [`process`](Self::process) with span stamping onto `trace`.
    pub fn process_traced(
        &self,
        records: Vec<Record>,
        trace: Option<Arc<RequestTrace>>,
    ) -> Vec<ServeReply> {
        self.submit_burst_traced(records, trace).into_iter().map(Ticket::wait).collect()
    }

    /// Requests currently waiting in the queue (not yet drained into a
    /// worker's batch) — the admission-control signal the socket tier's
    /// shed policy reads.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").len()
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

fn worker_loop(shared: &Shared, max_batch: usize) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                // Shutdown overrides pause: a paused pool still drains its
                // queue on the way down, so no ticket is ever dropped.
                let shutdown = shared.shutdown.load(Ordering::SeqCst);
                if !queue.is_empty() && (shutdown || !shared.paused.load(Ordering::SeqCst)) {
                    break;
                }
                if shutdown && queue.is_empty() {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue poisoned");
            }
            let n = queue.len().min(max_batch);
            queue.drain(..n).collect()
        };
        // More work may remain for the other workers.
        shared.available.notify_all();

        // Dequeue boundary: queue-wait ends, batch formation begins. One
        // request's records can split across batches and workers; the
        // fetch_min/fetch_max merge in RequestTrace folds every stamp
        // into a single envelope per span.
        let drained = Instant::now();
        for job in &batch {
            if let Some(t) = &job.trace {
                t.end_at(SpanName::QueueWait, drained);
                t.begin_at(SpanName::BatchWait, drained);
            }
        }
        let engine = Arc::clone(&shared.engine.read().expect("engine lock poisoned"));
        let batch_size = batch.len();
        struct Pending {
            seq: u64,
            enqueued: Instant,
            tx: mpsc::Sender<ServeReply>,
            trace: Option<Arc<RequestTrace>>,
        }
        let (pending, records): (Vec<Pending>, Vec<Record>) = batch
            .into_iter()
            .map(|j| {
                (Pending { seq: j.seq, enqueued: j.enqueued, tx: j.tx, trace: j.trace }, j.record)
            })
            .unzip();
        let forward_start = Instant::now();
        for p in &pending {
            if let Some(t) = &p.trace {
                t.end_at(SpanName::BatchWait, forward_start);
                t.begin_at(SpanName::EngineForward, forward_start);
            }
        }
        let results = engine.answer_batch(&records);
        let finished = Instant::now();
        for p in &pending {
            if let Some(t) = &p.trace {
                t.end_at(SpanName::EngineForward, finished);
            }
        }
        let observed = shared.telemetry.observer_attached();
        for ((p, record), (result, route)) in pending.into_iter().zip(&records).zip(results) {
            let latency = finished.duration_since(p.enqueued);
            shared.telemetry.observe(&result, latency);
            if observed {
                // The observability hook: build the flattened sample and
                // try_send it — bounded channel, never blocks a worker.
                shared.telemetry.forward(crate::telemetry::ServeSample::collect(
                    engine.schema(),
                    shared.telemetry.slice_names(),
                    record,
                    &result,
                    latency,
                ));
            }
            // A dropped ticket just means the caller stopped waiting.
            let _ = p.tx.send(ServeReply { seq: p.seq, result, route, latency, batch_size });
        }
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
        let space = FeatureSpace::build(&ds);
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
        let space = FeatureSpace::build(&other);
        let model = CompiledModel::compile(&schema, &space, &ModelConfig::default(), None);
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let incompatible = Arc::new(CascadeEngine::single(Server::load(&artifact)));
        assert!(pool.swap_engine(incompatible).is_err());
        // Same signature but a different slice space is also rejected:
        // telemetry indexes slice probabilities positionally.
        let mut resliced_space = FeatureSpace::build(&other);
        resliced_space.slice_names.push("brand-new-slice".into());
        let resliced =
            CompiledModel::compile(other.schema(), &resliced_space, &ModelConfig::default(), None);
        let artifact = DeployableModel::package(&resliced, &resliced_space, BTreeMap::new());
        let resliced_engine = Arc::new(CascadeEngine::single(Server::load(&artifact)));
        assert_eq!(*resliced_engine.signature(), *pool.engine().signature());
        assert!(pool.swap_engine(resliced_engine).is_err());
    }
}
