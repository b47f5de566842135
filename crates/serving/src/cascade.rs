//! Model-pair cascade routing (paper §2.4).
//!
//! Overton trains synchronized large/small model pairs: "the large model is
//! often used to populate caches and do error analysis, while the small
//! model must meet SLA requirements". At serving time that becomes a
//! *cascade*: the small model answers every request, and responses whose
//! confidence falls below a threshold are escalated to the large model.
//! Per-route counters feed the monitoring loop — a rising escalation rate
//! is an early drift signal before any gold label exists.

use overton_model::{ModelPair, Server, ServingResponse};
use overton_store::{Record, ServingSignature, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which half of the model pair produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Answered by the small (SLA) model.
    Small,
    /// Escalated to the large (quality) model.
    Large,
}

/// Per-route request counters since engine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CascadeCounters {
    /// Responses answered by the small model alone.
    pub small: u64,
    /// Requests escalated to the large model.
    pub escalated: u64,
}

impl CascadeCounters {
    /// Fraction of routed requests that escalated (0 when none routed).
    pub fn escalation_rate(&self) -> f64 {
        let total = self.small + self.escalated;
        if total == 0 {
            0.0
        } else {
            self.escalated as f64 / total as f64
        }
    }
}

/// The inference engine behind the worker pool: a small serving model,
/// optionally backed by a large model for low-confidence escalation.
pub struct CascadeEngine {
    small: Server,
    large: Option<Server>,
    threshold: f32,
    answered_small: AtomicU64,
    escalated: AtomicU64,
}

impl CascadeEngine {
    /// An engine with no large model: every request is answered by the one
    /// server, nothing escalates.
    pub fn single(server: Server) -> Self {
        Self {
            small: server,
            large: None,
            threshold: 0.0,
            answered_small: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
        }
    }

    /// Builds a cascade from a synchronized model pair: responses from the
    /// small model with confidence strictly below `threshold` are re-run
    /// through the large model.
    pub fn from_pair(pair: &ModelPair, threshold: f32) -> Result<Self, StoreError> {
        if !pair.synchronized() {
            return Err(StoreError::Validation(
                "cascade requires a synchronized model pair (same schema, signature and \
                 slice space)"
                    .into(),
            ));
        }
        Ok(Self {
            small: Server::load(&pair.small),
            large: Some(Server::load(&pair.large)),
            threshold,
            answered_small: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
        })
    }

    /// The serving signature (stable across hot-swaps of either half).
    pub fn signature(&self) -> &ServingSignature {
        self.small.signature()
    }

    /// The schema the engine serves (shared by both halves of a pair).
    pub fn schema(&self) -> &overton_store::Schema {
        self.small.schema()
    }

    /// Slice names of the serving model's feature space, in indicator
    /// order.
    pub fn slice_names(&self) -> &[String] {
        &self.small.feature_space().slice_names
    }

    /// The escalation threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Whether a large model is attached.
    pub fn has_large(&self) -> bool {
        self.large.is_some()
    }

    /// Current per-route counters.
    pub fn counters(&self) -> CascadeCounters {
        CascadeCounters {
            small: self.answered_small.load(Ordering::Relaxed),
            escalated: self.escalated.load(Ordering::Relaxed),
        }
    }

    /// Answers one batch: the small model predicts everything through the
    /// batched forward path, then the low-confidence subset is re-answered
    /// by the large model (also batched). Returns one `(result, route)` per
    /// record, in input order.
    pub fn answer_batch(
        &self,
        records: &[Record],
    ) -> Vec<(Result<ServingResponse, StoreError>, Route)> {
        let mut results: Vec<(Result<ServingResponse, StoreError>, Route)> =
            self.small.predict_batch(records).into_iter().map(|r| (r, Route::Small)).collect();
        let mut escalated = 0;
        if let Some(large) = &self.large {
            let escalate: Vec<usize> = results
                .iter()
                .enumerate()
                .filter(|(_, (r, _))| matches!(r, Ok(resp) if resp.confidence < self.threshold))
                .map(|(i, _)| i)
                .collect();
            if !escalate.is_empty() {
                let subset: Vec<Record> = escalate.iter().map(|&i| records[i].clone()).collect();
                for (&i, upgraded) in escalate.iter().zip(large.predict_batch(&subset)) {
                    results[i] = (upgraded, Route::Large);
                }
            }
            escalated = escalate.len() as u64;
        }
        let answered = results.iter().filter(|(r, _)| r.is_ok()).count() as u64;
        self.escalated.fetch_add(escalated, Ordering::Relaxed);
        self.answered_small.fetch_add(answered.saturating_sub(escalated), Ordering::Relaxed);
        results
    }

    /// Answers a single record (a batch of one).
    pub fn answer(&self, record: &Record) -> (Result<ServingResponse, StoreError>, Route) {
        self.answer_batch(std::slice::from_ref(record)).pop().expect("one result per record")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_model::{CompiledModel, DeployableModel, FeatureSpace, ModelConfig};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use std::collections::BTreeMap;

    fn pair() -> (overton_store::Dataset, ModelPair) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 40,
            n_dev: 10,
            n_test: 30,
            seed: 61,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let large = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        let small_cfg = ModelConfig { hidden_dim: 16, token_dim: 16, ..Default::default() };
        let small = CompiledModel::compile(ds.schema(), &space, &small_cfg, None);
        let pair = ModelPair {
            large: DeployableModel::package(&large, &space, BTreeMap::new()),
            small: DeployableModel::package(&small, &space, BTreeMap::new()),
        };
        (ds, pair)
    }

    fn test_records(ds: &overton_store::Dataset) -> Vec<Record> {
        ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect()
    }

    #[test]
    fn threshold_zero_never_escalates() {
        let (ds, pair) = pair();
        let engine = CascadeEngine::from_pair(&pair, 0.0).unwrap();
        let results = engine.answer_batch(&test_records(&ds));
        assert!(results.iter().all(|(r, route)| r.is_ok() && *route == Route::Small));
        let counters = engine.counters();
        assert_eq!(counters.escalated, 0);
        assert_eq!(counters.small, results.len() as u64);
        assert_eq!(counters.escalation_rate(), 0.0);
    }

    #[test]
    fn threshold_above_one_always_escalates_and_matches_large() {
        let (ds, pair) = pair();
        let records = test_records(&ds);
        let engine = CascadeEngine::from_pair(&pair, 1.5).unwrap();
        let results = engine.answer_batch(&records);
        assert!(results.iter().all(|(_, route)| *route == Route::Large));
        assert_eq!(engine.counters().escalated, records.len() as u64);
        // Escalated answers are exactly what the large model alone returns.
        let large = Server::load(&pair.large);
        for (record, (result, _)) in records.iter().zip(&results) {
            assert_eq!(*result.as_ref().unwrap(), large.predict(record).unwrap());
        }
    }

    #[test]
    fn single_engine_has_no_large_route() {
        let (ds, pair) = pair();
        let engine = CascadeEngine::single(Server::load(&pair.small));
        assert!(!engine.has_large());
        let (result, route) = engine.answer(&test_records(&ds)[0]);
        assert!(result.is_ok());
        assert_eq!(route, Route::Small);
    }

    #[test]
    fn desynchronized_pair_rejected() {
        let (ds, pair) = pair();
        // A large model compiled from an evolved schema (a task removed) is
        // not a drop-in for the small one.
        let mut schema = ds.schema().clone();
        schema.tasks.remove("POS");
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let model = CompiledModel::compile(&schema, &space, &ModelConfig::default(), None);
        let bad = ModelPair {
            large: DeployableModel::package(&model, &space, BTreeMap::new()),
            small: pair.small.clone(),
        };
        assert!(CascadeEngine::from_pair(&bad, 0.5).is_err());
    }
}
