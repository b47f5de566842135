//! Integration: end-to-end request tracing over a real socket. A trace
//! id supplied in `x-overton-trace` must echo back and round-trip into
//! `GET /trace/<id>` with all eight request-path spans in causal order;
//! generated and invalid ids take the same path; `GET /metrics` must
//! emit grammatically valid Prometheus text whose counters (including
//! shed) agree with the telemetry snapshot; slowest-trace retention
//! orders by duration; and tracing off means the trace routes 404 while
//! `/metrics` still answers.

use overton_model::{CompiledModel, DeployableModel, FeatureSpace, ModelConfig, Server};
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_serving::net::{NetClient, NetConfig, NetServer, PredictOutcome, ShedPolicy};
use overton_serving::{
    validate_exposition, CascadeEngine, ServingConfig, SpanName, WorkerPool, REQUEST_SPANS,
};
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

fn engine_and_records(seed: u64) -> (Arc<CascadeEngine>, Vec<Record>) {
    let ds = workload(seed);
    let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
    let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
    let records = ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
    (Arc::new(CascadeEngine::single(Server::load(&artifact))), records)
}

fn start_traced(seed: u64) -> (NetServer, Arc<WorkerPool>, Vec<Record>) {
    let (engine, records) = engine_and_records(seed);
    let pool =
        Arc::new(WorkerPool::start(engine, ServingConfig { workers: 2, max_batch: 8 }, None));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let server = NetServer::start(listener, Arc::clone(&pool), NetConfig::default())
        .expect("start net server");
    (server, pool, records)
}

/// The acceptance path: a client-supplied trace id echoes back in the
/// response header and `GET /trace/<id>` returns all eight request-path
/// spans — present, named, and with starts in causal order.
#[test]
fn supplied_trace_id_round_trips_with_all_spans_ordered() {
    let (server, _pool, records) = start_traced(601);
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let id = "itest-trace.A-1";
    let (outcome, echoed) = client.predict_traced(&records[..3], Some(id)).unwrap();
    assert!(matches!(outcome, PredictOutcome::Answered(_)), "idle server must answer");
    assert_eq!(echoed.as_deref(), Some(id), "supplied id must echo back");

    let report = client.trace(id).unwrap();
    assert_eq!(report.id, id);
    assert_eq!(report.outcome, "ok");
    assert_eq!(report.records, 3);
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    let expected: Vec<&str> = SpanName::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, expected, "all {REQUEST_SPANS} spans, in request-path order");
    let mut prev_start = 0;
    for span in &report.spans {
        assert!(
            span.start_micros >= prev_start,
            "span starts must be causally ordered: {:?}",
            report.spans
        );
        assert!(span.end_micros >= span.start_micros, "span cannot end before it starts");
        prev_start = span.start_micros;
    }
    assert!(report.total_micros >= report.spans.last().unwrap().start_micros);
    server.drain();
}

/// No header → the server generates an id (and echoes it); an id that
/// breaks the charset/length contract is replaced, not trusted.
#[test]
fn generated_and_invalid_ids_still_trace() {
    let (server, _pool, records) = start_traced(602);
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let (_, echoed) = client.predict_traced(&records[..1], None).unwrap();
    let generated = echoed.expect("sampled request gets a generated id");
    assert!(
        generated.len() == 16 && generated.chars().all(|c| c.is_ascii_hexdigit()),
        "generated ids are 16 hex chars, got {generated:?}"
    );
    assert_eq!(client.trace(&generated).unwrap().outcome, "ok");

    let hostile = "spaces and \"quotes\" are not a trace id";
    let (_, echoed) = client.predict_traced(&records[..1], Some(hostile)).unwrap();
    let replaced = echoed.expect("invalid ids fall back to a generated one");
    assert_ne!(replaced, hostile, "an invalid supplied id must not be echoed verbatim");
    assert!(client.trace(&replaced).is_ok());
    server.drain();
}

/// `GET /metrics` answers valid exposition whose counters agree with
/// the snapshot — including the shed counter after a deterministic
/// overload (satellite: shed appears both in text and in write_csv's
/// source snapshot).
#[test]
fn metrics_exposition_parses_and_counts_shed() {
    let (engine, records) = engine_and_records(603);
    let pool =
        Arc::new(WorkerPool::start(engine, ServingConfig { workers: 1, max_batch: 4 }, None));
    let high_water = 2;
    let config = NetConfig {
        shed: ShedPolicy { queue_high_water: high_water, retry_after: Duration::from_secs(1) },
        ..NetConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::start(listener, Arc::clone(&pool), config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // One answered batch, then a deterministic shed: pause the workers,
    // fill the queue to the high-water mark, send one more over the wire.
    assert!(matches!(client.predict(&records[..2]).unwrap(), PredictOutcome::Answered(_)));
    pool.pause();
    let tickets = pool.submit_burst(records[..high_water].to_vec());
    assert!(matches!(client.predict(&records[..1]).unwrap(), PredictOutcome::Shed { .. }));
    pool.resume();
    for ticket in tickets {
        ticket.wait();
    }

    let text = client.metrics().unwrap();
    validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    let snap = pool.snapshot();
    assert!(snap.shed >= 1);
    for needle in [
        format!("overton_requests_shed_total {}", snap.shed),
        format!("overton_requests_served_total {}", snap.served),
        "overton_request_latency_seconds_bucket".to_string(),
        "overton_stage_duration_seconds_bucket{stage=\"engine-forward\"".to_string(),
        "overton_traces_recorded_total".to_string(),
        "overton_connections_active 1".to_string(),
    ] {
        assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
    }
    server.drain();
}

/// Unknown ids 404 through the typed client, and the slowest-trace list
/// is ordered by total duration, slowest first.
#[test]
fn unknown_trace_404s_and_slowest_retention_orders_by_duration() {
    let (server, _pool, records) = start_traced(604);
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let err = client.trace("never-recorded").unwrap_err();
    assert!(err.to_string().contains("404"), "unknown id must be a 404: {err}");

    for (i, chunk) in records.chunks(5).take(4).enumerate() {
        let id = format!("slow-{i}");
        client.predict_traced(chunk, Some(&id)).unwrap();
    }
    let slowest = client.traces().unwrap();
    assert!(!slowest.is_empty(), "retention must keep finished traces");
    for pair in slowest.windows(2) {
        assert!(
            pair[0].total_micros >= pair[1].total_micros,
            "slowest-first ordering violated: {slowest:?}"
        );
    }
    for t in &slowest {
        assert_eq!(t.outcome, "ok");
        assert!(!t.spans.is_empty());
    }
    server.drain();
}

/// Tracing disabled: predicts carry no echo header, the trace routes
/// answer 404, and `/metrics` still serves (without trace families).
#[test]
fn tracing_disabled_is_404_but_metrics_still_serve() {
    let (engine, records) = engine_and_records(605);
    let pool =
        Arc::new(WorkerPool::start(engine, ServingConfig { workers: 1, max_batch: 8 }, None));
    let config = NetConfig { trace: None, ..NetConfig::default() };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::start(listener, Arc::clone(&pool), config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let (outcome, echoed) = client.predict_traced(&records[..1], Some("ignored")).unwrap();
    assert!(matches!(outcome, PredictOutcome::Answered(_)));
    assert_eq!(echoed, None, "tracing off: nothing to echo");
    assert!(client.trace("ignored").is_err());
    assert!(client.traces().is_err());

    let text = client.metrics().unwrap();
    validate_exposition(&text).unwrap();
    assert!(text.contains("overton_requests_served_total 1"), "{text}");
    assert!(!text.contains("overton_traces_recorded_total"), "{text}");
    server.drain();
}
