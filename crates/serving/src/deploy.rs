//! Canary deployment on top of the model registry.
//!
//! The paper's deployment loop (§2.4) retrains continuously and ships
//! "nearly automatically" — which is only safe because monitoring gates
//! the swap. [`DeploymentManager`] implements that gate: a candidate
//! artifact is fetched from the [`ModelRegistry`], run in *shadow mode*
//! against live traffic (the incumbent keeps answering), scored per
//! tag/slice with [`QualityReport`]s on the after-the-fact-labeled sample,
//! and compared with [`regressions`]. A clean canary is promoted (the
//! worker pool hot-swaps engines behind the stable serving signature); any
//! per-group regression — including a vanished slice — rolls it back
//! automatically.

use crate::cascade::CascadeEngine;
use crate::pool::WorkerPool;
use crate::score::score_output;
use overton_model::{
    ArtifactId, DeployableModel, ModelPair, ModelRegistry, Server, ServingResponse,
};
use overton_monitor::{regressions, Metrics, QualityReport, Regression};
use overton_store::{Record, Schema, StoreError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Accumulates per-task, per-group accuracy over gold-labeled traffic.
#[derive(Debug, Default, Clone)]
struct ScoreBook {
    /// task -> group -> (score sum, count).
    tasks: BTreeMap<String, BTreeMap<String, (f64, usize)>>,
}

impl ScoreBook {
    /// Scores one response against a record's gold labels; returns how many
    /// tasks were scored.
    fn observe(&mut self, schema: &Schema, record: &Record, response: &ServingResponse) -> usize {
        let mut scored = 0;
        for task in schema.tasks.keys() {
            let Some(gold) = record.gold(task) else { continue };
            let Some(served) = response.tasks.get(task.as_str()) else { continue };
            let Some(score) = score_output(served, gold) else { continue };
            scored += 1;
            let per_task = self.tasks.entry(task.clone()).or_default();
            for group in record.tags.iter().cloned().chain(std::iter::once("overall".into())) {
                let slot = per_task.entry(group).or_insert((0.0, 0));
                slot.0 += score;
                slot.1 += 1;
            }
        }
        scored
    }

    /// Renders one [`QualityReport`] per task (`overall` row first).
    fn reports(&self) -> BTreeMap<String, QualityReport> {
        self.tasks
            .iter()
            .map(|(task, groups)| {
                let mut report = QualityReport::new(task);
                let mut push = |name: &str, (sum, n): (f64, usize)| {
                    let accuracy = if n == 0 { 0.0 } else { sum / n as f64 };
                    report.push(
                        name,
                        Metrics { count: n, accuracy, macro_f1: accuracy, micro_f1: accuracy },
                    );
                };
                if let Some(&overall) = groups.get("overall") {
                    push("overall", overall);
                }
                for (group, &acc) in groups {
                    if group != "overall" {
                        push(group, acc);
                    }
                }
                (task.clone(), report)
            })
            .collect()
    }
}

/// Canary acceptance gate.
#[derive(Debug, Clone)]
pub struct CanaryConfig {
    /// Per-group accuracy drop beyond which the canary is rolled back.
    pub regression_threshold: f64,
    /// Minimum gold-scored records before the canary may resolve.
    pub min_scored: usize,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        Self { regression_threshold: 0.05, min_scored: 50 }
    }
}

/// How a canary resolved.
#[derive(Debug)]
pub enum CanaryOutcome {
    /// No regression: the candidate is the new incumbent.
    Promoted {
        /// The promoted artifact.
        id: ArtifactId,
    },
    /// Regressions detected: the incumbent stays, the candidate is dropped.
    RolledBack {
        /// The rejected artifact.
        id: ArtifactId,
        /// Per-task regressions that triggered the rollback.
        regressions: BTreeMap<String, Vec<Regression>>,
    },
}

/// A deployment-log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployEvent {
    /// A canary started shadowing live traffic.
    CanaryStarted(ArtifactId),
    /// A canary was promoted to incumbent.
    Promoted(ArtifactId),
    /// A canary was rolled back; the payload is the number of regressed
    /// `(task, group)` pairs.
    RolledBack(ArtifactId, usize),
}

struct CanaryState {
    id: ArtifactId,
    artifact: DeployableModel,
    server: Server,
    incumbent_scores: ScoreBook,
    candidate_scores: ScoreBook,
    scored: usize,
}

/// Manages which artifact serves a named model, with shadow/canary
/// evaluation against live traffic and automatic rollback.
pub struct DeploymentManager {
    registry: ModelRegistry,
    name: String,
    threshold: f32,
    incumbent_id: ArtifactId,
    incumbent_artifact: DeployableModel,
    incumbent_server: Server,
    large: Option<DeployableModel>,
    pool: Option<Arc<WorkerPool>>,
    canary: Option<CanaryState>,
    events: Vec<DeployEvent>,
}

impl DeploymentManager {
    /// Opens the deployment for `name`: the latest registry version becomes
    /// the incumbent. `threshold` is the cascade escalation threshold used
    /// when building engines.
    pub fn open(registry: ModelRegistry, name: &str, threshold: f32) -> Result<Self, StoreError> {
        let incumbent_id = registry.latest(name)?.ok_or_else(|| {
            StoreError::Validation(format!("no artifact published under '{name}'"))
        })?;
        let incumbent_artifact = registry.fetch(&incumbent_id)?;
        let incumbent_server = Server::load(&incumbent_artifact);
        Ok(Self {
            registry,
            name: name.to_string(),
            threshold,
            incumbent_id,
            incumbent_artifact,
            incumbent_server,
            large: None,
            pool: None,
            canary: None,
            events: Vec::new(),
        })
    }

    /// Attaches the large half of the model pair, enabling the cascade in
    /// engines built by [`DeploymentManager::build_engine`].
    pub fn with_large(mut self, large: DeployableModel) -> Result<Self, StoreError> {
        if large.signature != self.incumbent_artifact.signature {
            return Err(StoreError::Validation(
                "large model's serving signature differs from the incumbent's".into(),
            ));
        }
        self.large = Some(large);
        Ok(self)
    }

    /// Attaches a worker pool; promotions hot-swap its engine.
    pub fn attach_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Builds a serving engine for the current incumbent (a cascade when a
    /// large model is attached).
    pub fn build_engine(&self) -> Result<Arc<CascadeEngine>, StoreError> {
        self.engine_for(&self.incumbent_artifact).map(Arc::new)
    }

    /// An engine serving `small`: a cascade with the attached large model,
    /// which must share its whole schema, or `small` alone.
    fn engine_for(&self, small: &DeployableModel) -> Result<CascadeEngine, StoreError> {
        match &self.large {
            Some(large) => CascadeEngine::from_pair(
                &ModelPair { large: large.clone(), small: small.clone() },
                self.threshold,
            ),
            None => Ok(CascadeEngine::single(Server::load(small))),
        }
    }

    /// The registry backing this deployment.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The artifact currently serving.
    pub fn incumbent_id(&self) -> &ArtifactId {
        &self.incumbent_id
    }

    /// Whether a canary is currently shadowing traffic.
    pub fn canary_active(&self) -> bool {
        self.canary.is_some()
    }

    /// The deployment log.
    pub fn events(&self) -> &[DeployEvent] {
        &self.events
    }

    /// Publishes a candidate artifact under this deployment's name.
    pub fn publish(&self, artifact: &DeployableModel) -> Result<ArtifactId, StoreError> {
        self.registry.publish(artifact, &self.name)
    }

    /// Starts shadowing `id` against live traffic. Fails if a canary is
    /// already active, the artifact is missing/corrupt, or its serving
    /// signature differs from the incumbent's (schema evolution needs a
    /// new deployment, not a hot-swap).
    pub fn start_canary(&mut self, id: &ArtifactId) -> Result<(), StoreError> {
        if self.canary.is_some() {
            return Err(StoreError::Validation("a canary is already active".into()));
        }
        let artifact = self.registry.fetch(id)?;
        if artifact.signature != self.incumbent_artifact.signature {
            return Err(StoreError::Validation(
                "canary's serving signature differs from the incumbent's".into(),
            ));
        }
        // The slice space must match too: telemetry and the cascade index
        // slice probabilities positionally, and the signature (payloads +
        // task outputs only) does not cover it.
        if artifact.space.slice_names != self.incumbent_artifact.space.slice_names {
            return Err(StoreError::Validation(
                "canary's slice space differs from the incumbent's".into(),
            ));
        }
        let server = Server::load(&artifact);
        self.canary = Some(CanaryState {
            id: id.clone(),
            artifact,
            server,
            incumbent_scores: ScoreBook::default(),
            candidate_scores: ScoreBook::default(),
            scored: 0,
        });
        self.events.push(DeployEvent::CanaryStarted(id.clone()));
        Ok(())
    }

    /// Serves a burst of live traffic. The incumbent answers (through the
    /// attached pool when present, so real routing/telemetry applies);
    /// an active canary shadow-predicts the same records, and every
    /// gold-labeled record scores both sides. Returns the *live* responses
    /// in input order.
    pub fn observe(&mut self, records: &[Record]) -> Vec<Result<ServingResponse, StoreError>> {
        let live: Vec<Result<ServingResponse, StoreError>> = match &self.pool {
            Some(pool) => {
                pool.process(records.to_vec()).into_iter().map(|reply| reply.result).collect()
            }
            None => self.incumbent_server.predict_batch(records),
        };
        if let Some(canary) = &mut self.canary {
            let shadow = canary.server.predict_batch(records);
            let schema = self.incumbent_server.schema();
            for ((record, live_result), shadow_result) in records.iter().zip(&live).zip(&shadow) {
                if let (Ok(live_response), Ok(shadow_response)) = (live_result, shadow_result) {
                    let n = canary.incumbent_scores.observe(schema, record, live_response);
                    canary.candidate_scores.observe(schema, record, shadow_response);
                    if n > 0 {
                        canary.scored += 1;
                    }
                }
            }
        }
        live
    }

    /// Quality reports over the canary window so far:
    /// `(incumbent, candidate)` per task.
    pub fn canary_reports(
        &self,
    ) -> Option<(BTreeMap<String, QualityReport>, BTreeMap<String, QualityReport>)> {
        let canary = self.canary.as_ref()?;
        Some((canary.incumbent_scores.reports(), canary.candidate_scores.reports()))
    }

    /// Resolves the active canary: promote when no per-group regression
    /// exceeds the gate (vanished groups always fail it), roll back
    /// otherwise. Promotion republishes the artifact under the deployment
    /// name (so `latest` tracks it) and hot-swaps the attached pool's
    /// engine.
    pub fn resolve_canary(&mut self, config: &CanaryConfig) -> Result<CanaryOutcome, StoreError> {
        let canary = self
            .canary
            .as_ref()
            .ok_or_else(|| StoreError::Validation("no canary is active".into()))?;
        if canary.scored < config.min_scored {
            return Err(StoreError::Validation(format!(
                "canary has scored {} records, needs {}",
                canary.scored, config.min_scored
            )));
        }
        let before = canary.incumbent_scores.reports();
        let after = canary.candidate_scores.reports();
        let mut found: BTreeMap<String, Vec<Regression>> = BTreeMap::new();
        for (task, before_report) in &before {
            let empty = QualityReport::new(task);
            let after_report = after.get(task).unwrap_or(&empty);
            let regs = regressions(before_report, after_report, config.regression_threshold);
            if !regs.is_empty() {
                found.insert(task.clone(), regs);
            }
        }
        if found.is_empty() {
            // Run every fallible step *before* touching incumbent state, so
            // a failure leaves the deployment exactly as it was (canary still
            // active, incumbent still serving) and the registry untouched.
            // The engine goes first: `start_canary` checks the signature and
            // slice space, not the whole schema a cascade pair must share.
            // Publishing makes `latest` follow the promotion.
            let engine = self.engine_for(&canary.artifact)?;
            self.registry.publish(&canary.artifact, &self.name)?;
            if let Some(pool) = &self.pool {
                pool.swap_engine(Arc::new(engine))?;
            }
            let canary = self.canary.take().expect("checked above");
            self.incumbent_id = canary.id.clone();
            self.incumbent_artifact = canary.artifact;
            self.incumbent_server = canary.server;
            self.events.push(DeployEvent::Promoted(canary.id.clone()));
            Ok(CanaryOutcome::Promoted { id: canary.id })
        } else {
            let canary = self.canary.take().expect("checked above");
            let count = found.values().map(Vec::len).sum();
            self.events.push(DeployEvent::RolledBack(canary.id.clone(), count));
            Ok(CanaryOutcome::RolledBack { id: canary.id, regressions: found })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_model::ServedOutput;
    use overton_store::TaskLabel;

    #[test]
    fn scorebook_groups_by_tag_with_overall_first() {
        let schema = overton_nlp::workload_schema();
        let record = Record::new().with_tag("live").with_slice("hard").with_label(
            "Intent",
            overton_store::GOLD_SOURCE,
            TaskLabel::MulticlassOne("Age".into()),
        );
        let response = ServingResponse {
            tasks: BTreeMap::from([(
                "Intent".into(),
                ServedOutput::Multiclass { class: "Age".into(), dist: vec![] },
            )]),
            slices: vec![],
            confidence: 1.0,
        };
        let mut book = ScoreBook::default();
        assert_eq!(book.observe(&schema, &record, &response), 1);
        let reports = book.reports();
        let report = &reports["Intent"];
        assert_eq!(report.rows[0].group, "overall");
        assert_eq!(report.overall().unwrap().accuracy, 1.0);
        assert!(report.group("slice:hard").is_some());
        assert!(report.group("live").is_some());
    }
}
