//! # overton-model
//!
//! The model side of Overton: a **compiler** from schemas to multitask deep
//! models (payload encoders + task heads, Figure 2b), **slice-based
//! learning** capacity (Chen et al. NeurIPS'19), a **trainer** consuming
//! probabilistic labels, coarse **architecture search** over the tuning
//! spec, masked-LM **pretraining** ("BERT-sim", Figure 4b), and the
//! **deployment** path: packaged artifacts, a serving runtime with a stable
//! signature, large/small model pairs, and a content-addressed registry.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backprop;
mod compiler;
mod config;
mod distill;
mod evaluate;
mod features;
mod infer;
mod network;
#[cfg(test)]
mod oracle;
mod pretrained;
mod registry;
mod search;
mod serve;
mod trainer;

pub use compiler::{prepare_store, prepare_store_with_space, PreparedData};
pub use config::{
    AggregationKind, EmbeddingKind, EncoderKind, ModelConfig, TrainConfig, TuningSpec,
};
pub use distill::{distill, soften_targets};
pub use evaluate::{evaluate_store, Evaluation};
pub use features::{gold_to_prob, CompiledExample, FeatureSpace};
pub use network::CompiledModel;
pub use pretrained::{pretrain, PretrainConfig, PretrainedEncoder};
pub use registry::{ArtifactEntry, ArtifactId, ModelRegistry};
pub use search::{search, train_chosen, SearchConfig, TrialResult, Winner};
pub use serve::{DeployableModel, ModelPair, ServedOutput, Server, ServingResponse};
pub use trainer::{dev_agreement, train_model, TrainReport};
