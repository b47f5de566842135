//! What the two serving workloads share: the timed set-up (build a small
//! model through the front door, generate the requests, precompute the
//! in-process answers every served answer is checked against) and the
//! pool shape.

use crate::meter::{describe, quiet_median, Clocks};
use crate::{fixture, Res};
use overton::model::{Server, ServingResponse};
use overton::serving::{CascadeEngine, ServingConfig, TrafficBaseline, WorkerPool};
use overton::store::Record;
use std::path::Path;
use std::sync::Arc;

/// Request records generated per run: 64 socket requests of 32, or 8
/// offline bursts of 256.
pub const RECORDS: usize = 2048;
/// Two workers on the 2-core box; micro-batches of at most 32.
pub const POOL: ServingConfig = ServingConfig { workers: 2, max_batch: 32 };
/// Length of a time slice. A phase's figure is the median over the
/// quieter half of its slices (see `meter.rs`): short slices, so that
/// some of them fall wholly between the hypervisor's intrusions, yet long
/// enough for the 10 ms CPU and steal clocks to resolve a few percent.
pub const SLICE_S: f64 = 0.5;
/// Times the set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;

pub struct Prepared {
    pub model: fixture::Model,
    /// An in-process server over the artifact: the reference the served
    /// answers are compared with, and the traced pass's staged replay.
    pub server: Server,
    pub records: Vec<Record>,
    /// `expected[i]` answers `records[i]`.
    pub expected: Vec<ServingResponse>,
    pub setup_s: f64,
}

impl Prepared {
    pub fn pool(&self, baseline: Option<TrafficBaseline>) -> WorkerPool {
        let engine = Arc::new(CascadeEngine::single(Server::load(&self.model.artifact)));
        WorkerPool::start(engine, POOL, baseline)
    }
}

pub fn sizes() -> String {
    let (train, dev, test) = fixture::MODEL_ROWS;
    format!(
        "model built on {train}/{dev}/{test} rows, 1 epoch; {RECORDS} request records; pool {} workers, max_batch {}",
        POOL.workers, POOL.max_batch
    )
}

fn set_up_once(dir: &Path, seed: u64) -> Res<Prepared> {
    let model = fixture::train_model(dir, seed)?;
    let server = Server::load(&model.artifact);
    let records = fixture::traffic(seed, RECORDS);
    // In batches of the size the pool serves, so that the reference costs
    // the memory of one batch and not of one 2048-example tape.
    let expected = records
        .chunks(POOL.max_batch)
        .flat_map(|batch| server.predict_batch(batch))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared { model, server, records, expected, setup_s: 0.0 })
}

/// Runs the whole set-up `SETUPS` times from scratch and keeps the last
/// result, with the granted time of the quieter runs (see `meter.rs`).
pub fn set_up(scratch: &Path, seed: u64) -> Res<Prepared> {
    let mut units = Vec::new();
    let mut prepared = None;
    for k in 0..SETUPS {
        let dir = scratch.join(format!("setup-{k}"));
        drop(prepared.take()); // one set-up's memory at a time
        let from = Clocks::read();
        prepared = Some(set_up_once(&dir, seed)?);
        units.push((from.elapsed(), ()));
        std::fs::remove_dir_all(&dir)?;
    }
    let mut prepared = prepared.expect("SETUPS is at least 1");
    prepared.setup_s = quiet_median(&units, |unit, ()| unit.granted_s());
    println!("{}", describe("set-up", &units));
    Ok(prepared)
}
