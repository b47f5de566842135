//! Masked-token pretraining — the "BERT-sim" substrate for Figure 4b.
//!
//! The paper contrasts production models built on plain word embeddings
//! against ones fine-tuned from "BERT-Large". We reproduce the contrast
//! honestly at small scale: a contextual encoder is pretrained here with a
//! masked-token objective on an in-domain corpus, and its embedding table
//! initializes the compiled model's token embeddings (`EmbeddingKind::
//! Pretrained`). Everything else about training stays identical, so any
//! quality difference is attributable to pretraining.

use crate::backprop::{self, Workspace};
use crate::config::TrainConfig;
use crate::features::CompiledExample;
use crate::infer::{Act, Decode, HeadOut, Leaves, Op, Plan, Rows};
use overton_nlp::{Vocab, MASK, PAD};
use overton_supervision::ProbLabel;
use overton_tensor::nn::{Conv1d, Embedding, Linear};
use overton_tensor::optim::Adam;
use overton_tensor::{Matrix, ParamStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Hyperparameters for [`pretrain`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// Embedding (and encoder) width.
    pub dim: usize,
    /// Fraction of positions masked per sentence.
    pub mask_prob: f64,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self { dim: 32, mask_prob: 0.15, epochs: 3, learning_rate: 5e-3, seed: 0 }
    }
}

/// A pretrained embedding artifact ("drop in new pretrained embeddings as
/// they arrive: they are simply loaded as payloads", §2.4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PretrainedEncoder {
    /// Vocabulary the table is indexed by.
    pub vocab: Vocab,
    /// `[vocab, dim]` embedding table.
    pub table: Matrix,
    /// Final masked-token training loss (diagnostic).
    pub final_loss: f32,
}

impl PretrainedEncoder {
    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Builds an [`Embedding`] for `target_vocab`, copying pretrained rows
    /// for shared tokens and randomly initializing the rest.
    ///
    /// # Panics
    /// Panics if `token_dim` differs from the artifact's width.
    pub fn init_embedding(
        &self,
        params: &mut ParamStore,
        target_vocab: &Vocab,
        token_dim: usize,
    ) -> Embedding {
        assert_eq!(token_dim, self.dim(), "config.token_dim must match the pretrained width");
        let mut rng = SmallRng::seed_from_u64(7);
        let mut table = overton_tensor::init::normal(target_vocab.len(), token_dim, 0.1, &mut rng);
        let mut copied = 0usize;
        for id in 0..target_vocab.len() {
            let Some(token) = target_vocab.token(id) else { continue };
            let pre_id = self.vocab.id(token);
            if pre_id != overton_nlp::UNK || token == "<unk>" {
                table.row_mut(id).copy_from_slice(self.table.row(pre_id));
                copied += 1;
            }
        }
        debug_assert!(copied > 0, "no vocabulary overlap with pretrained table");
        Embedding::from_pretrained(params, "tokens.embedding", table)
    }
}

/// Pretrains a contextual encoder with a masked-token objective and returns
/// the embedding artifact. The encoder (embedding, a width-3 convolution
/// with relu, a vocabulary head) is lowered into a four-step model plan,
/// and each sentence runs through the training executor as a batch of one:
/// cross-entropy at its masked positions, one optimizer step.
pub fn pretrain(corpus: &[Vec<String>], config: &PretrainConfig) -> PretrainedEncoder {
    assert!(!corpus.is_empty(), "pretraining corpus is empty");
    let vocab = Vocab::build(corpus.iter().flat_map(|s| s.iter().map(String::as_str)), 1);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut params = ParamStore::new();
    let embedding = Embedding::new(&mut params, "mlm.embedding", vocab.len(), config.dim, &mut rng);
    let encoder = Conv1d::new(&mut params, "mlm.encoder", config.dim, config.dim, 3, &mut rng);
    let head = Linear::new(&mut params, "mlm.head", config.dim, vocab.len(), &mut rng);
    let mut opt = Adam::new(config.learning_rate);
    let mut plan = Plan { sequences: vec!["tokens".into()], ..Plan::default() };
    let x = plan.step(Op::Gather(embedding.table()), &[], Rows::Tokens(0), config.dim);
    let encoded = plan.conv(&encoder, x);
    let logits = plan.linear(&head, encoded, Act::None, Leaves::PerExample);
    let decode = Decode::PerElement { bce: false };
    plan.heads.push(HeadOut { task: "tokens".into(), decode, logits });
    let (train, mut ws) = (TrainConfig::default(), Workspace::default());

    let encoded: Vec<Vec<usize>> = corpus.iter().map(|s| vocab.encode(s)).collect();
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    let mut final_loss = 0.0f32;
    for _ in 0..config.epochs {
        // Fisher-Yates shuffle.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for &si in &order {
            let ids = &encoded[si];
            if ids.len() < 2 {
                continue;
            }
            // Mask positions; ensure at least one mask.
            let mut masked = ids.clone();
            let mut mask_positions = Vec::new();
            for (t, slot) in masked.iter_mut().enumerate() {
                if *slot != PAD && rng.gen_bool(config.mask_prob) {
                    mask_positions.push(t);
                    *slot = MASK;
                }
            }
            if mask_positions.is_empty() {
                let t = rng.gen_range(0..ids.len());
                mask_positions.push(t);
                masked[t] = MASK;
            }
            // One-hot rows at the masked positions; an empty row is no target.
            let mut targets = vec![Vec::new(); ids.len()];
            for &t in &mask_positions {
                targets[t] = vec![0.0; vocab.len()];
                targets[t][ids[t]] = 1.0;
            }
            let example = CompiledExample {
                record_index: si,
                sequences: BTreeMap::from([("tokens".into(), masked)]),
                sets: BTreeMap::new(),
                targets: BTreeMap::from([("tokens".into(), ProbLabel::SeqDist(targets))]),
                slice_membership: Vec::new(),
            };
            backprop::gradients(&plan, &params, &[&example], &[0], &train, &mut ws);
            epoch_loss += f64::from(ws.partials.losses[0].expect("masked positions are targets"));
            batches += 1;
            ws.partials.merge_into(&mut params);
            params.clip_grad_norm(5.0);
            opt.step(&mut params);
            params.zero_grads();
        }
        final_loss = (epoch_loss / batches.max(1) as f64) as f32;
    }
    PretrainedEncoder { table: params.value(embedding.table()).clone(), vocab, final_loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EmbeddingKind, ModelConfig};
    use crate::features::{gold_to_prob, FeatureSpace};
    use crate::{train_model, CompiledModel};
    use overton_nlp::{generate_workload, pretraining_corpus, KnowledgeBase, WorkloadConfig};

    fn small_corpus() -> Vec<Vec<String>> {
        pretraining_corpus(&KnowledgeBase::standard(), 150, 3)
    }

    #[test]
    fn pretraining_reduces_loss() {
        let corpus = small_corpus();
        let one = pretrain(&corpus, &PretrainConfig { epochs: 1, ..Default::default() });
        let many = pretrain(&corpus, &PretrainConfig { epochs: 6, ..Default::default() });
        assert!(
            many.final_loss < one.final_loss,
            "6 epochs ({}) should beat 1 epoch ({})",
            many.final_loss,
            one.final_loss
        );
    }

    #[test]
    fn artifact_has_vocab_and_table() {
        let art = pretrain(&small_corpus(), &PretrainConfig { epochs: 1, ..Default::default() });
        assert_eq!(art.table.rows(), art.vocab.len());
        assert_eq!(art.dim(), 32);
    }

    #[test]
    fn init_embedding_copies_shared_rows() {
        let art = pretrain(&small_corpus(), &PretrainConfig { epochs: 1, ..Default::default() });
        // Target vocab shares tokens with the corpus.
        let target = Vocab::build(["how", "tall", "zzz-novel-token"].iter().copied(), 1);
        let mut params = ParamStore::new();
        let emb = art.init_embedding(&mut params, &target, 32);
        let table = params.value(emb.table());
        let how_target = target.id("how");
        let how_pre = art.vocab.id("how");
        assert_ne!(how_pre, overton_nlp::UNK, "'how' must be in the corpus");
        assert_eq!(table.row(how_target), art.table.row(how_pre));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn dim_mismatch_rejected() {
        let art = pretrain(&small_corpus(), &PretrainConfig { epochs: 1, ..Default::default() });
        let target = Vocab::build(["x"].iter().copied(), 1);
        let mut params = ParamStore::new();
        let _ = art.init_embedding(&mut params, &target, 64);
    }

    #[test]
    fn serde_roundtrip() {
        let art = pretrain(&small_corpus(), &PretrainConfig { epochs: 1, ..Default::default() });
        let json = serde_json::to_string(&art).unwrap();
        let back: PretrainedEncoder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.table, art.table);
        assert_eq!(back.vocab, art.vocab);
    }

    /// The pretrained path end to end: pretraining is deterministic, a
    /// `Pretrained` model starts from the artifact's rows for every token
    /// it shares with the corpus, and its training is bit-identical at 1
    /// and 3 gradient workers.
    #[test]
    fn pretrained_build_is_deterministic_end_to_end() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let config = PretrainConfig { epochs: 1, ..Default::default() };
        let (art, again) = (pretrain(&small_corpus(), &config), pretrain(&small_corpus(), &config));
        assert!(bits(&art.table) == bits(&again.table), "pretraining is not deterministic");
        assert_eq!(art.final_loss.to_bits(), again.final_loss.to_bits());

        let ds = generate_workload(&WorkloadConfig {
            n_train: 40,
            n_dev: 10,
            seed: 3,
            gold_train_fraction: 1.0,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let gold = |indices: Vec<usize>| -> Vec<CompiledExample> {
            let examples = indices.into_iter().map(|i| {
                let record = &ds.records()[i];
                let mut ex = CompiledExample::from_record(record, i, &space, ds.schema());
                for task in ds.schema().tasks.keys() {
                    ex.targets
                        .extend(gold_to_prob(ds.schema(), record, task).map(|p| (task.clone(), p)));
                }
                ex
            });
            examples.collect()
        };
        let (train, dev) = (gold(ds.train_indices()), gold(ds.dev_indices()));
        let model_config =
            ModelConfig { embedding: EmbeddingKind::Pretrained, ..Default::default() };
        let trained = [1, 3].map(|grad_workers| {
            let mut model = CompiledModel::compile(ds.schema(), &space, &model_config, Some(&art));
            let table = model.params.value(model.token_embedding.table());
            let shared: Vec<(usize, usize)> = (0..space.token_vocab.len())
                .filter_map(|id| Some((id, art.vocab.id(space.token_vocab.token(id)?))))
                .filter(|&(_, pre)| pre != overton_nlp::UNK)
                .collect();
            assert!(shared.len() > 10, "only {} shared tokens", shared.len());
            for (id, pre) in shared {
                assert_eq!(table.row(id), art.table.row(pre), "token {id}");
            }
            let train_config = TrainConfig { epochs: 2, grad_workers, ..Default::default() };
            train_model(&mut model, &train, &dev, &train_config);
            model
        });
        for id in trained[0].params.ids() {
            let name = trained[0].params.name(id);
            let [one, three] = trained.each_ref().map(|m| bits(m.params.value(id)));
            assert!(one == three, "{name} diverged at 3 workers");
        }
    }
}
