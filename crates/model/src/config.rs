//! Model and training configuration, and the tuning spec.
//!
//! The paper's key contract: none of this appears in the schema. The
//! engineer never chooses an encoder or a hidden size — Overton searches the
//! coarse-grained space described by a [`TuningSpec`] (Figure 2a, "Model
//! Tuning"; §4 "the search used in Overton is a coarser-grained search than
//! what is typically done in NAS ... limited large blocks, e.g., should we
//! use an LSTM or CNN").

use serde::{Deserialize, Serialize};

/// Sequence encoder families the compiler can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderKind {
    /// No mixing across positions (bag of embeddings through an MLP).
    MeanBag,
    /// Same-length 1-D convolution (kernel 3).
    Cnn,
    /// Unidirectional LSTM.
    Lstm,
    /// Bidirectional LSTM.
    BiLstm,
    /// Single-layer multi-head self-attention.
    Attention,
}

/// Where token embeddings come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmbeddingKind {
    /// Learned from scratch with the task.
    Learned,
    /// Initialized from a pretrained masked-LM artifact and fine-tuned
    /// (the "with-BERT" configuration of Figure 4b).
    Pretrained,
}

/// How a singleton payload aggregates its base sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationKind {
    /// Column-wise mean over positions.
    Mean,
    /// Column-wise max over positions.
    Max,
}

/// A fully-specified model architecture (the output of search).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Token embedding width.
    pub token_dim: usize,
    /// Entity embedding width.
    pub entity_dim: usize,
    /// Shared hidden width all payload representations project into.
    pub hidden_dim: usize,
    /// Sequence encoder family.
    pub encoder: EncoderKind,
    /// Token embedding source.
    pub embedding: EmbeddingKind,
    /// Singleton aggregation.
    pub aggregation: AggregationKind,
    /// Dropout probability on payload representations.
    pub dropout: f32,
    /// Whether slice-based learning heads are attached.
    pub slice_heads: bool,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            token_dim: 32,
            entity_dim: 24,
            hidden_dim: 48,
            encoder: EncoderKind::Cnn,
            embedding: EmbeddingKind::Learned,
            aggregation: AggregationKind::Mean,
            dropout: 0.1,
            slice_heads: true,
            seed: 0,
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Passes over the training data.
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// Stop after this many epochs without dev improvement (0 = never).
    pub early_stop_patience: usize,
    /// Weight of slice-indicator losses relative to task losses.
    pub indicator_loss_weight: f32,
    /// Task-loss multiplier for examples inside any declared slice (only
    /// applied when the model was compiled with slice heads). This is the
    /// loss-side half of slice-based learning: declared slices get both
    /// extra capacity and extra training focus.
    pub slice_loss_boost: f32,
    /// Shuffling/dropout seed.
    pub seed: u64,
    /// Threads sharing each optimizer window's gradient computation
    /// (`0` or `1` = single-threaded): the window splits into this many
    /// contiguous sub-windows, one slot arena each. Any value produces
    /// bit-identical weights: per-example gradients are merged in example
    /// order, so workers change wall-time only, never the trajectory.
    /// Defaults low because training often runs alongside serving.
    #[serde(default)]
    pub grad_workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 16,
            learning_rate: 5e-3,
            weight_decay: 1e-5,
            clip_norm: 5.0,
            early_stop_patience: 3,
            indicator_loss_weight: 0.3,
            slice_loss_boost: 2.0,
            seed: 0,
            grad_workers: 1,
        }
    }
}

/// The coarse search space (one axis per architectural choice).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningSpec {
    /// Candidate token/hidden size pairs.
    pub sizes: Vec<(usize, usize)>,
    /// Candidate encoders.
    pub encoders: Vec<EncoderKind>,
    /// Candidate embedding sources.
    pub embeddings: Vec<EmbeddingKind>,
    /// Candidate aggregations.
    pub aggregations: Vec<AggregationKind>,
}

impl Default for TuningSpec {
    fn default() -> Self {
        Self {
            sizes: vec![(24, 32), (32, 48), (48, 64)],
            encoders: vec![
                EncoderKind::MeanBag,
                EncoderKind::Cnn,
                EncoderKind::Lstm,
                EncoderKind::Attention,
            ],
            embeddings: vec![EmbeddingKind::Learned],
            aggregations: vec![AggregationKind::Mean, AggregationKind::Max],
        }
    }
}

impl TuningSpec {
    /// Total number of configurations in the cross-product.
    pub fn cardinality(&self) -> usize {
        self.sizes.len() * self.encoders.len() * self.embeddings.len() * self.aggregations.len()
    }

    /// Materializes every configuration (base settings from `base`).
    pub fn enumerate(&self, base: &ModelConfig) -> Vec<ModelConfig> {
        let mut out = Vec::with_capacity(self.cardinality());
        for &(token_dim, hidden_dim) in &self.sizes {
            for &encoder in &self.encoders {
                for &embedding in &self.embeddings {
                    for &aggregation in &self.aggregations {
                        out.push(ModelConfig {
                            token_dim,
                            hidden_dim,
                            encoder,
                            embedding,
                            aggregation,
                            ..base.clone()
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ModelConfig::default();
        assert!(c.hidden_dim > 0 && c.token_dim > 0);
        assert!((0.0..1.0).contains(&c.dropout));
    }

    #[test]
    fn spec_cardinality_matches_enumeration() {
        let spec = TuningSpec::default();
        let configs = spec.enumerate(&ModelConfig::default());
        assert_eq!(configs.len(), spec.cardinality());
        assert_eq!(configs.len(), 3 * 4 * 2);
    }

    #[test]
    fn enumeration_preserves_base_fields() {
        let base = ModelConfig { dropout: 0.25, slice_heads: false, ..Default::default() };
        let configs = TuningSpec::default().enumerate(&base);
        assert!(configs.iter().all(|c| c.dropout == 0.25 && !c.slice_heads));
    }

    #[test]
    fn serde_roundtrip() {
        let c = ModelConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
