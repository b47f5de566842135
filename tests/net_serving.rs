//! Integration: Overton on a socket. A real `NetServer` on an ephemeral
//! loopback port, driven by the `NetClient` loopback client — wire
//! parity with the in-process pool (bit for bit), load shedding past the
//! queue high-water mark, connection caps, graceful drain (shutdown and
//! engine hot-swap), and the hostile-wire corpus over live TCP.

use overton_model::{
    CompiledModel, DeployableModel, FeatureSpace, ModelConfig, Server, ServingResponse,
};
use overton_nlp::{generate_workload, hostile_corpus, WorkloadConfig};
use overton_serving::net::{NetClient, NetConfig, NetServer, PredictOutcome, ShedPolicy};
use overton_serving::{CascadeEngine, ServingConfig, WorkerPool};
use overton_store::{Dataset, Record};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn workload(seed: u64) -> Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 60,
        n_dev: 15,
        n_test: 40,
        seed,
        ..Default::default()
    })
}

/// A compiled (untrained — predictions are still deterministic) engine
/// plus the workload's test split.
fn engine_and_records(seed: u64) -> (Arc<CascadeEngine>, Vec<Record>) {
    let ds = workload(seed);
    let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
    let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
    let records = ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
    (Arc::new(CascadeEngine::single(Server::load(&artifact))), records)
}

fn loopback() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port")
}

fn start(pool: &Arc<WorkerPool>, config: NetConfig) -> NetServer {
    NetServer::start(loopback(), Arc::clone(pool), config).expect("start net server")
}

/// The acceptance path: batched JSON requests over a real socket come
/// back identical — `assert_eq!`, which on `ServingResponse` means every
/// f32 bit — to the same records through the in-process pool.
#[test]
fn socket_round_trip_matches_in_process_bit_for_bit() {
    let (engine, records) = engine_and_records(301);
    let pool = Arc::new(WorkerPool::start(
        Arc::clone(&engine),
        ServingConfig { workers: 2, max_batch: 16 },
        None,
    ));
    let reference: Vec<ServingResponse> = pool
        .process(records.clone())
        .into_iter()
        .map(|r| r.result.expect("in-process reference record failed"))
        .collect();

    let server = start(&pool, NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).expect("connect loopback client");
    assert!(client.health().unwrap(), "fresh server must be healthy");

    // Several batches over one keep-alive connection.
    let mut answered = Vec::new();
    for chunk in records.chunks(7) {
        match client.predict(chunk).expect("predict over the wire") {
            PredictOutcome::Answered(results) => {
                for result in results {
                    answered.push(result.expect("wire record failed"));
                }
            }
            PredictOutcome::Shed { .. } => panic!("idle server shed a request"),
        }
    }
    assert_eq!(answered.len(), reference.len());
    for (i, (wire, local)) in answered.iter().zip(&reference).enumerate() {
        assert_eq!(wire, local, "record {i}: wire response differs from in-process");
    }

    // Telemetry over the wire is the pool's own snapshot type: both the
    // in-process reference pass and the socket pass are in it.
    let snap = client.telemetry().expect("GET /telemetry");
    assert_eq!(snap.served, 2 * records.len() as u64);
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.shed, 0);

    // Unknown routes and wrong methods answer cleanly on the same
    // connection.
    let not_found = client.request("GET", "/nope", None).unwrap();
    assert_eq!(not_found.status, 404);
    let wrong_method = client.request("GET", "/predict", None).unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));

    let addr = server.local_addr();
    server.drain();
    // The listener is gone: new connections are refused by the kernel.
    assert!(
        NetClient::connect_with_timeout(addr, Duration::from_millis(500)).is_err(),
        "post-drain connect must be refused"
    );
    // The pool outlives the socket tier.
    assert_eq!(pool.process(records[..3].to_vec()).len(), 3);
}

/// Overload: with the pool paused and the queue filled to the high-water
/// mark, the next wire request is shed with `503` + `Retry-After`, the
/// shed surfaces in the telemetry snapshot, the already-admitted
/// requests still complete correctly, and the tier recovers.
#[test]
fn overload_sheds_with_retry_after_then_recovers() {
    let (engine, records) = engine_and_records(302);
    let pool = Arc::new(WorkerPool::start(
        Arc::clone(&engine),
        ServingConfig { workers: 1, max_batch: 4 },
        None,
    ));
    let reference: Vec<ServingResponse> =
        pool.process(records[..4].to_vec()).into_iter().map(|r| r.result.unwrap()).collect();

    let high_water = 4;
    let config = NetConfig {
        shed: ShedPolicy { queue_high_water: high_water, retry_after: Duration::from_secs(2) },
        ..NetConfig::default()
    };
    let server = start(&pool, config);
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Deterministic overload: pause the workers and fill the queue to
    // exactly the high-water mark in-process.
    pool.pause();
    let tickets = pool.submit_burst(records[..high_water].to_vec());
    assert_eq!(pool.queue_depth(), high_water);

    // The wire request hits admission control and is turned away without
    // touching the queue.
    match client.predict(&records[..2]).unwrap() {
        PredictOutcome::Shed { retry_after_secs } => {
            assert_eq!(retry_after_secs, Some(2), "Retry-After must carry the policy's hint");
        }
        PredictOutcome::Answered(_) => panic!("request past high-water must be shed"),
    }
    assert_eq!(pool.queue_depth(), high_water, "shed request must not enqueue");

    // The shed shows up in the snapshot — over the wire, on the same
    // connection that was just shed (shedding closes nothing).
    let snap = client.telemetry().unwrap();
    assert_eq!(snap.shed, 1);

    // The admitted requests were not harmed: release the workers and
    // every queued ticket completes with the right answer.
    pool.resume();
    for (ticket, expected) in tickets.into_iter().zip(&reference) {
        assert_eq!(&ticket.wait().result.unwrap(), expected);
    }

    // Recovered: the queue is empty again and the wire admits requests.
    match client.predict(&records[..4]).unwrap() {
        PredictOutcome::Answered(results) => {
            for (result, expected) in results.into_iter().zip(&reference) {
                assert_eq!(&result.unwrap(), expected);
            }
        }
        PredictOutcome::Shed { .. } => panic!("empty queue must admit"),
    }
    assert_eq!(pool.snapshot().shed, 1, "recovery sheds nothing further");
    server.drain();
}

/// Graceful drain with a request in flight: the in-flight request gets
/// its complete, correct response; a connection that was open when drain
/// began gets `503 draining` and a clean close; new connections are
/// refused at the kernel.
#[test]
fn drain_completes_in_flight_requests_and_refuses_new_work() {
    let (engine, records) = engine_and_records(303);
    let pool = Arc::new(WorkerPool::start(
        Arc::clone(&engine),
        ServingConfig { workers: 1, max_batch: 8 },
        None,
    ));
    let reference: Vec<ServingResponse> =
        pool.process(records[..3].to_vec()).into_iter().map(|r| r.result.unwrap()).collect();

    let server = start(&pool, NetConfig::default());
    let addr = server.local_addr();

    // A bystander connection, accepted before drain.
    let mut bystander = NetClient::connect(addr).unwrap();
    assert!(bystander.health().unwrap());

    // Park the workers so the in-flight request is provably mid-pool when
    // drain begins.
    pool.pause();
    let in_flight = std::thread::spawn({
        let records = records[..3].to_vec();
        move || {
            let mut client = NetClient::connect(addr).unwrap();
            client.predict(&records).expect("in-flight request must complete")
        }
    });
    // Wait until the request's records are actually queued.
    while pool.queue_depth() < 3 {
        std::thread::sleep(Duration::from_millis(2));
    }

    let handle = server.drain_handle();
    handle.request_drain();
    assert!(server.is_draining());

    // The bystander sees the drain state and gets closed cleanly after.
    assert!(!bystander.health().unwrap(), "healthz must report draining");
    assert!(bystander.server_closed(), "draining responses close the connection");

    // Release the workers and complete the drain: it blocks until the
    // in-flight response has been written.
    pool.resume();
    server.drain();

    match in_flight.join().expect("in-flight client thread") {
        PredictOutcome::Answered(results) => {
            assert_eq!(results.len(), reference.len());
            for (result, expected) in results.into_iter().zip(&reference) {
                assert_eq!(&result.unwrap(), expected, "drain corrupted an in-flight response");
            }
        }
        PredictOutcome::Shed { .. } => panic!("a request admitted before drain must be answered"),
    }
    assert!(
        NetClient::connect_with_timeout(addr, Duration::from_millis(500)).is_err(),
        "post-drain connect must be refused"
    );
}

/// Engine hot-swap under the socket: predictions flow over one keep-alive
/// connection across a `swap_engine`, and afterwards the wire serves the
/// new engine's answers — same drill the deployment manager runs on
/// promotion.
#[test]
fn engine_hot_swap_under_live_socket_traffic() {
    let ds = workload(304);
    let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
    let small = CompiledModel::compile(
        ds.schema(),
        &space,
        &ModelConfig { token_dim: 8, hidden_dim: 8, ..Default::default() },
        None,
    );
    let big = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let small_artifact = DeployableModel::package(&small, &space, BTreeMap::new());
    let big_artifact = DeployableModel::package(&big, &space, BTreeMap::new());
    let records: Vec<Record> = ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();

    let engine_a = Arc::new(CascadeEngine::single(Server::load(&small_artifact)));
    let engine_b = Arc::new(CascadeEngine::single(Server::load(&big_artifact)));
    let expected_b: Vec<ServingResponse> = Server::load(&big_artifact)
        .predict_batch(&records)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();

    let pool = Arc::new(WorkerPool::start(engine_a, ServingConfig::default(), None));
    let server = start(&pool, NetConfig::default());
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let before = match client.predict(&records).unwrap() {
        PredictOutcome::Answered(results) => results,
        PredictOutcome::Shed { .. } => panic!("idle server shed"),
    };
    // Same schema + slice space: the swap is accepted under traffic.
    pool.swap_engine(engine_b).expect("same-signature swap");
    let after = match client.predict(&records).unwrap() {
        PredictOutcome::Answered(results) => results,
        PredictOutcome::Shed { .. } => panic!("idle server shed"),
    };
    for (result, expected) in after.into_iter().zip(&expected_b) {
        assert_eq!(&result.unwrap(), expected, "post-swap wire answers must be the new engine's");
    }
    // And the swap was observable: the two engines disagree somewhere.
    assert_ne!(
        before.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
        expected_b,
        "swap test needs engines that actually differ"
    );
    server.drain();
}

/// The hostile corpus over live TCP: every payload gets a client-error
/// response or a clean close — the server never dies, and still answers
/// a healthy request afterwards.
#[test]
fn hostile_corpus_over_tcp_never_kills_the_server() {
    let (engine, records) = engine_and_records(305);
    let pool = Arc::new(WorkerPool::start(engine, ServingConfig::default(), None));
    // Short timeouts so truncated-body payloads resolve quickly.
    let config = NetConfig {
        read_timeout: Duration::from_millis(150),
        request_deadline: Duration::from_millis(400),
        ..NetConfig::default()
    };
    let server = start(&pool, config);
    let addr = server.local_addr();

    for payload in hostile_corpus(0xBEEF, 48) {
        let mut client = NetClient::connect_with_timeout(addr, Duration::from_secs(2))
            .unwrap_or_else(|e| {
                panic!(
                    "{}: connect failed — did an earlier payload kill the server? {e}",
                    payload.family
                )
            });
        // A quiet close (or timeout-then-close) — the Err arm — is also
        // acceptable; what is not acceptable is a hang, and the client's
        // own read timeout would turn a hang into a test failure here.
        if let Ok(response) = client.send_raw(&payload.bytes) {
            assert!(
                (400..=505).contains(&response.status) && response.status != 500,
                "{}: expected a client error, got {}",
                payload.family,
                response.status
            );
        }
    }

    // Still alive and still correct.
    let mut client = NetClient::connect(addr).unwrap();
    assert!(client.health().unwrap());
    match client.predict(&records[..2]).unwrap() {
        PredictOutcome::Answered(results) => assert!(results.iter().all(Result::is_ok)),
        PredictOutcome::Shed { .. } => panic!("idle server shed"),
    }
    server.drain();
}

/// The connection cap: with one slot and a keep-alive occupant, the next
/// connection is answered `503` at the door (with `Retry-After`) and
/// counted as shed; freeing the slot readmits.
#[test]
fn connection_cap_refuses_at_the_door() {
    let (engine, records) = engine_and_records(306);
    let pool = Arc::new(WorkerPool::start(engine, ServingConfig::default(), None));
    let config = NetConfig { max_connections: 1, ..NetConfig::default() };
    let server = start(&pool, config);
    let addr = server.local_addr();

    let mut occupant = NetClient::connect(addr).unwrap();
    assert!(occupant.health().unwrap(), "the occupant holds the only slot");

    let mut excess = NetClient::connect(addr).unwrap();
    let response = excess.read_response().expect("refusal is a real HTTP response");
    assert_eq!(response.status, 503);
    assert!(response.header("retry-after").is_some());
    assert!(excess.server_closed(), "refused connections are closed");
    assert_eq!(server.refused_connections(), 1);
    assert_eq!(pool.snapshot().shed, 1, "door refusals count as shed");

    // The occupant's slot frees on close; a new connection gets in.
    assert!(occupant.health().unwrap(), "occupant unaffected by the refusal");
    drop(occupant);
    let mut next = loop {
        // The occupant's handler notices the close within its read
        // timeout; retry until the slot frees.
        let mut candidate = NetClient::connect(addr).unwrap();
        match candidate.health() {
            Ok(true) => break candidate,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    match next.predict(&records[..1]).unwrap() {
        PredictOutcome::Answered(results) => assert!(results[0].is_ok()),
        PredictOutcome::Shed { .. } => panic!("freed slot must admit"),
    }
    // Exactly two connections were ever admitted past the door (the
    // occupant and the replacement); every other attempt was refused.
    assert_eq!(server.accepted_connections(), 2);
    assert!(server.refused_connections() >= 1);
    server.drain();
}
