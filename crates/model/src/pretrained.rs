//! Masked-token pretraining — the "BERT-sim" substrate for Figure 4b.
//!
//! The paper contrasts production models built on plain word embeddings
//! against ones fine-tuned from "BERT-Large". We reproduce the contrast
//! honestly at small scale: a contextual encoder is pretrained here with a
//! masked-token objective on an in-domain corpus, and its embedding table
//! initializes the compiled model's token embeddings (`EmbeddingKind::
//! Pretrained`). Everything else about training stays identical, so any
//! quality difference is attributable to pretraining.

use overton_nlp::{Vocab, MASK, PAD};
use overton_tensor::nn::{Conv1d, Embedding, Linear};
use overton_tensor::optim::{Adam, Optimizer};
use overton_tensor::{Graph, Matrix, ParamStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

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
/// the embedding artifact.
pub fn pretrain(corpus: &[Vec<String>], config: &PretrainConfig) -> PretrainedEncoder {
    assert!(!corpus.is_empty(), "pretraining corpus is empty");
    let vocab = Vocab::build(corpus.iter().flat_map(|s| s.iter().map(String::as_str)), 1);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut params = ParamStore::new();
    let embedding = Embedding::new(&mut params, "mlm.embedding", vocab.len(), config.dim, &mut rng);
    let encoder = Conv1d::new(&mut params, "mlm.encoder", config.dim, config.dim, 3, &mut rng);
    let head = Linear::new(&mut params, "mlm.head", config.dim, vocab.len(), &mut rng);
    let mut opt = Adam::new(config.learning_rate);

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
            let mut g = Graph::new();
            let emb = embedding.forward(&mut g, &params, &masked);
            let enc = encoder.forward(&mut g, &params, emb);
            let act = g.relu(enc);
            let logits = head.forward(&mut g, &params, act);
            let (t_len, v) = g.value(logits).shape();
            let mut targets = Matrix::zeros(t_len, v);
            let mut weights = vec![0.0f32; t_len];
            for &t in &mask_positions {
                targets[(t, ids[t])] = 1.0;
                weights[t] = 1.0;
            }
            let loss = g.cross_entropy(logits, &targets, &weights);
            epoch_loss += f64::from(g.value(loss).scalar_value());
            batches += 1;
            g.backward(loss);
            for (pid, grad) in g.take_param_grads() {
                params.grad_mut(pid).add_assign(&grad);
            }
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
    use overton_nlp::{pretraining_corpus, KnowledgeBase};

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
}
