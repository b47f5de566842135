//! The generative label model (data programming, Ratner et al. NIPS'16).
//!
//! Sources are modeled as conditionally independent given the true label,
//! with a per-source **accuracy** (probability of voting the truth when not
//! abstaining; errors are spread uniformly over the other classes) and
//! **propensity** (probability of voting at all). Parameters are estimated
//! by EM from the label matrix alone — no ground truth — and the resulting
//! posterior over each item's true label becomes the training distribution
//! ("Overton estimates the accuracy of these sources and then uses these
//! accuracies to compute a probability that each training point is
//! correct", §2.2).
//!
//! An item's posterior depends only on its `(cardinality, votes)` row, and
//! a workload with a few sources and small `k` has a few hundred distinct
//! rows among tens of thousands of items. So the E-step runs once per
//! distinct row (a *vote pattern*), while the M-step still sums each
//! item's pattern posterior per item, in item order. Both steps perform
//! the same floating-point operations in the same order as an EM that runs
//! the E-step per item, so the fitted model is bit-identical to it.

use std::collections::HashMap;

use crate::matrix::LabelMatrix;

/// Hyperparameters for [`LabelModel::fit`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LabelModelConfig {
    /// Maximum EM iterations.
    pub max_iter: usize,
    /// Stop when the largest parameter change falls below this.
    pub tol: f32,
    /// Beta-prior pseudo-counts smoothing accuracy estimates (guards against
    /// degenerate 0/1 accuracies on small data).
    pub smoothing: f32,
    /// Initial accuracy assumed for every source (better than chance).
    pub init_accuracy: f32,
    /// Whether to estimate the class balance (only possible with uniform
    /// cardinality); otherwise a uniform prior is used.
    pub estimate_balance: bool,
}

impl Default for LabelModelConfig {
    fn default() -> Self {
        Self {
            max_iter: 100,
            tol: 1e-5,
            smoothing: 1.0,
            init_accuracy: 0.7,
            estimate_balance: true,
        }
    }
}

/// A fitted label model.
#[derive(Debug, Clone)]
pub struct LabelModel {
    accuracies: Vec<f32>,
    propensities: Vec<f32>,
    class_balance: Option<Vec<f32>>,
    iterations: usize,
}

impl LabelModel {
    /// Fits the model to a label matrix by EM.
    ///
    /// The E-step runs once per distinct `(cardinality, votes)` row; the
    /// M-step sums every item's posterior per item, in item order, so the
    /// result is bit-identical to running the E-step per item.
    ///
    /// # Panics
    /// Panics if the matrix has no sources.
    pub fn fit(matrix: &LabelMatrix, config: &LabelModelConfig) -> Self {
        Self::fit_patterns(matrix, &Patterns::new(matrix), config)
    }

    /// [`LabelModel::fit`] over the matrix's vote patterns, built once by
    /// the caller.
    pub(crate) fn fit_patterns(
        matrix: &LabelMatrix,
        patterns: &Patterns,
        config: &LabelModelConfig,
    ) -> Self {
        assert!(matrix.n_sources() > 0, "label model needs at least one source");
        let m = matrix.n_sources();
        let uniform_k = matrix.uniform_cardinality();
        let mut accuracies = vec![config.init_accuracy.clamp(0.05, 0.95); m];
        let mut balance: Option<Vec<f32>> = match (config.estimate_balance, uniform_k) {
            (true, Some(k)) if k > 0 => Some(vec![1.0 / k as f32; k as usize]),
            _ => None,
        };
        let propensities: Vec<f32> = (0..m).map(|j| matrix.coverage(j)).collect();

        let mut posteriors = vec![0.0f32; patterns.width];
        // What the M-step reads does not change between iterations: per
        // source, the posterior entry each of its votes reads, in item
        // order, and its vote count; per item, its posterior's offset.
        let mut reads: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut votes = vec![0.0f32; m];
        for (i, &offset) in patterns.offsets.iter().enumerate() {
            for (j, vote) in matrix.votes(i).iter().enumerate() {
                if let Some(v) = vote {
                    reads[j]
                        .push(offset.checked_add(*v).expect("posterior buffer indexable by u32"));
                    votes[j] += 1.0;
                }
            }
        }

        let mut iterations = 0;
        for _ in 0..config.max_iter {
            iterations += 1;
            patterns.e_step(matrix, &accuracies, balance.as_deref(), &mut posteriors);

            // M-step: accuracy_j = E[#correct votes] / #votes (+ smoothing),
            // the posteriors of source j's votes summed in item order.
            let mut max_delta = 0.0f32;
            for j in 0..m {
                let correct =
                    reads[j].iter().fold(0.0f32, |acc, &at| acc + posteriors[at as usize]);
                let est = (correct + config.smoothing) / (votes[j] + 2.0 * config.smoothing);
                let est = est.clamp(0.01, 0.99);
                max_delta = max_delta.max((est - accuracies[j]).abs());
                accuracies[j] = est;
            }
            if let Some(bal) = &mut balance {
                let k = bal.len();
                let mut new_bal = vec![config.smoothing; k];
                for &offset in &patterns.offsets {
                    let post = &posteriors[offset as usize..offset as usize + k];
                    for (c, &p) in post.iter().enumerate() {
                        new_bal[c] += p;
                    }
                }
                let total: f32 = new_bal.iter().sum();
                for (b, nb) in bal.iter_mut().zip(&new_bal) {
                    let est = nb / total;
                    max_delta = max_delta.max((est - *b).abs());
                    *b = est;
                }
            }
            if max_delta < config.tol {
                break;
            }
        }
        Self { accuracies, propensities, class_balance: balance, iterations }
    }

    /// Estimated per-source accuracies.
    pub fn accuracies(&self) -> &[f32] {
        &self.accuracies
    }

    /// Observed per-source propensities (vote rates).
    pub fn propensities(&self) -> &[f32] {
        &self.propensities
    }

    /// Estimated class balance (None when cardinality varies per item).
    pub fn class_balance(&self) -> Option<&[f32]> {
        self.class_balance.as_deref()
    }

    /// EM iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Posterior distribution over each item's true label.
    pub fn predict_proba(&self, matrix: &LabelMatrix) -> Vec<Vec<f32>> {
        self.predict_patterns(matrix, &Patterns::new(matrix))
    }

    /// [`LabelModel::predict_proba`] over the matrix's vote patterns.
    pub(crate) fn predict_patterns(
        &self,
        matrix: &LabelMatrix,
        patterns: &Patterns,
    ) -> Vec<Vec<f32>> {
        let mut posteriors = vec![0.0f32; patterns.width];
        patterns.e_step(matrix, &self.accuracies, self.class_balance.as_deref(), &mut posteriors);
        (patterns.offsets.iter().enumerate())
            .map(|(i, &offset)| {
                let offset = offset as usize;
                posteriors[offset..offset + matrix.cardinality(i) as usize].to_vec()
            })
            .collect()
    }

    /// Hard posterior predictions (argmax; first class on ties).
    pub fn predict(&self, matrix: &LabelMatrix) -> Vec<u32> {
        self.predict_proba(matrix)
            .iter()
            .map(|dist| {
                let mut best = 0usize;
                for (c, &p) in dist.iter().enumerate() {
                    if p > dist[best] {
                        best = c;
                    }
                }
                best as u32
            })
            .collect()
    }
}

/// The matrix's items grouped by distinct `(cardinality, votes)` row. Ids
/// are assigned in first-appearance order; the hash map only serves
/// lookups while indexing, so its iteration order never reaches a result.
/// A combiner builds it once per task, for both the fit and the posteriors.
pub(crate) struct Patterns {
    /// Each item's offset into the flat posterior buffer (its pattern's),
    /// in item order.
    offsets: Vec<u32>,
    /// Per pattern: its first item, cardinality, and offset into the flat
    /// posterior buffer.
    patterns: Vec<Pattern>,
    /// Length of the flat posterior buffer (sum of pattern cardinalities).
    width: usize,
}

struct Pattern {
    item: usize,
    k: usize,
    offset: usize,
}

impl Patterns {
    pub(crate) fn new(matrix: &LabelMatrix) -> Self {
        let mut lookup: HashMap<(u32, &[Option<u32>]), u32> = HashMap::new();
        let mut offsets = Vec::with_capacity(matrix.n_items());
        let mut patterns: Vec<Pattern> = Vec::new();
        let mut width = 0;
        for i in 0..matrix.n_items() {
            let k = matrix.cardinality(i);
            let id = *lookup.entry((k, matrix.votes(i))).or_insert_with(|| {
                patterns.push(Pattern { item: i, k: k as usize, offset: width });
                width += k as usize;
                (patterns.len() - 1) as u32
            });
            let offset = patterns[id as usize].offset;
            offsets.push(u32::try_from(offset).expect("posterior buffer indexable by u32"));
        }
        Self { offsets, patterns, width }
    }

    /// E-step: `P(y = c | votes, params)` in log space, once per pattern,
    /// written into `posteriors` at each pattern's offset.
    fn e_step(
        &self,
        matrix: &LabelMatrix,
        accuracies: &[f32],
        balance: Option<&[f32]>,
        posteriors: &mut [f32],
    ) {
        let mut log_post: Vec<f64> = Vec::new();
        for p in &self.patterns {
            let k = p.k;
            log_post.clear();
            log_post.extend((0..k).map(|c| match balance {
                Some(b) if b.len() == k => (b[c].max(1e-9) as f64).ln(),
                _ => (1.0 / k as f64).ln(),
            }));
            // With a single candidate a vote carries no information.
            if k > 1 {
                for (j, vote) in matrix.votes(p.item).iter().enumerate() {
                    let Some(v) = vote else { continue };
                    let acc = accuracies[j] as f64;
                    let right = acc.max(1e-12).ln();
                    let wrong = ((1.0 - acc) / (k as f64 - 1.0)).max(1e-12).ln();
                    for (c, lp) in log_post.iter_mut().enumerate() {
                        *lp += if c as u32 == *v { right } else { wrong };
                    }
                }
            }
            // Normalize stably.
            let max = log_post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for lp in &mut log_post {
                *lp = (*lp - max).exp();
            }
            let z: f64 = log_post.iter().sum();
            for (out, q) in posteriors[p.offset..p.offset + k].iter_mut().zip(&log_post) {
                *out = (q / z) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Generates a synthetic label matrix from known source accuracies.
    /// Returns (matrix, true labels).
    pub(crate) fn synth(
        n: usize,
        k: u32,
        accs: &[f32],
        coverage: &[f32],
        seed: u64,
    ) -> (LabelMatrix, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut matrix = LabelMatrix::new(accs.len());
        let mut truth = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.gen_range(0..k);
            truth.push(y);
            let votes: Vec<Option<u32>> = accs
                .iter()
                .zip(coverage)
                .map(|(&a, &c)| {
                    if rng.gen::<f32>() > c {
                        return None;
                    }
                    if rng.gen::<f32>() < a {
                        Some(y)
                    } else {
                        // Uniform wrong class.
                        let mut w = rng.gen_range(0..k - 1);
                        if w >= y {
                            w += 1;
                        }
                        Some(w)
                    }
                })
                .collect();
            matrix.push_item(k, &votes);
        }
        (matrix, truth)
    }

    fn accuracy(pred: &[u32], truth: &[u32]) -> f32 {
        let correct = pred.iter().zip(truth).filter(|(a, b)| a == b).count();
        correct as f32 / truth.len() as f32
    }

    #[test]
    fn recovers_source_accuracies() {
        let true_accs = [0.9, 0.7, 0.55];
        let (matrix, _) = synth(4000, 3, &true_accs, &[0.9, 0.8, 0.7], 7);
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        for (est, truth) in model.accuracies().iter().zip(&true_accs) {
            assert!(
                (est - truth).abs() < 0.05,
                "estimated {est}, true {truth} (all: {:?})",
                model.accuracies()
            );
        }
    }

    #[test]
    fn beats_majority_vote_with_unequal_sources() {
        // One excellent source + two noisy ones: MV is dragged down by the
        // noise; the label model learns to trust the good source.
        let (matrix, truth) = synth(3000, 2, &[0.95, 0.6, 0.6], &[1.0, 1.0, 1.0], 13);
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        let lm_acc = accuracy(&model.predict(&matrix), &truth);
        let mv_acc = accuracy(&crate::majority::majority_vote_hard(&matrix), &truth);
        assert!(lm_acc > mv_acc + 0.02, "label model {lm_acc} should beat majority vote {mv_acc}");
        assert!(lm_acc > 0.9, "label model accuracy {lm_acc}");
    }

    #[test]
    fn posterior_rows_sum_to_one() {
        let (matrix, _) = synth(100, 4, &[0.8, 0.6], &[0.7, 0.5], 3);
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        for dist in model.predict_proba(&matrix) {
            let s: f32 = dist.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "sums to {s}");
            assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn abstain_only_items_fall_back_to_prior() {
        let mut matrix = LabelMatrix::new(2);
        matrix.push_item(2, &[Some(0), Some(0)]);
        matrix.push_item(2, &[None, None]);
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        let post = model.predict_proba(&matrix);
        // Item 1 has no evidence: posterior equals the class balance.
        let bal = model.class_balance().unwrap();
        assert!((post[1][0] - bal[0]).abs() < 1e-5);
    }

    #[test]
    fn varying_cardinality_select_items() {
        // Select task: items have different candidate-set sizes. Three
        // sources are needed for the accuracies to be identifiable (with
        // two, only their product is constrained by agreement rates).
        let mut rng = SmallRng::seed_from_u64(21);
        let mut matrix = LabelMatrix::new(3);
        let mut truth = Vec::new();
        for _ in 0..2000 {
            let k = rng.gen_range(2..6u32);
            let y = rng.gen_range(0..k);
            truth.push(y);
            let votes: Vec<Option<u32>> = [0.9f32, 0.55, 0.7]
                .iter()
                .map(|&a| {
                    if rng.gen::<f32>() < a {
                        Some(y)
                    } else {
                        let mut w = rng.gen_range(0..k - 1);
                        if w >= y {
                            w += 1;
                        }
                        Some(w)
                    }
                })
                .collect();
            matrix.push_item(k, &votes);
        }
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        assert!(model.class_balance().is_none(), "no balance for varying k");
        assert!(
            model.accuracies()[0] > model.accuracies()[1] + 0.1,
            "should rank the good source higher: {:?}",
            model.accuracies()
        );
        let acc = accuracy(&model.predict(&matrix), &truth);
        assert!(acc > 0.85, "posterior accuracy {acc}");
    }

    #[test]
    fn skewed_class_balance_is_estimated() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut matrix = LabelMatrix::new(2);
        for _ in 0..3000 {
            let y = u32::from(rng.gen::<f32>() < 0.2); // 80% class 0
            let votes: Vec<Option<u32>> = (0..2)
                .map(|_| if rng.gen::<f32>() < 0.85 { Some(y) } else { Some(1 - y) })
                .collect();
            matrix.push_item(2, &votes);
        }
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        let bal = model.class_balance().unwrap();
        assert!((bal[0] - 0.8).abs() < 0.08, "balance {bal:?}");
    }

    #[test]
    fn converges_and_reports_iterations() {
        let (matrix, _) = synth(500, 2, &[0.8, 0.8], &[1.0, 1.0], 11);
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        assert!(model.iterations() >= 1);
        assert!(model.iterations() <= 100);
    }

    /// The per-item EM that ran the E-step once per item, kept verbatim as
    /// the oracle the pattern-grouped EM must match bit for bit.
    mod reference {
        use super::*;

        pub(super) fn fit(matrix: &LabelMatrix, config: &LabelModelConfig) -> LabelModel {
            assert!(matrix.n_sources() > 0, "label model needs at least one source");
            let m = matrix.n_sources();
            let uniform_k = matrix.uniform_cardinality();
            let mut accuracies = vec![config.init_accuracy.clamp(0.05, 0.95); m];
            let mut balance: Option<Vec<f32>> = match (config.estimate_balance, uniform_k) {
                (true, Some(k)) if k > 0 => Some(vec![1.0 / k as f32; k as usize]),
                _ => None,
            };
            let propensities: Vec<f32> = (0..m).map(|j| matrix.coverage(j)).collect();

            let mut iterations = 0;
            for _ in 0..config.max_iter {
                iterations += 1;
                let posteriors = posterior_given(matrix, &accuracies, balance.as_deref());

                // M-step: accuracy_j = E[#correct votes] / #votes (+ smoothing).
                let mut new_acc = vec![0.0f32; m];
                let mut votes = vec![0.0f32; m];
                for (i, post) in posteriors.iter().enumerate() {
                    for (j, vote) in matrix.votes(i).iter().enumerate() {
                        if let Some(v) = vote {
                            new_acc[j] += post[*v as usize];
                            votes[j] += 1.0;
                        }
                    }
                }
                let mut max_delta = 0.0f32;
                for j in 0..m {
                    let est = (new_acc[j] + config.smoothing) / (votes[j] + 2.0 * config.smoothing);
                    let est = est.clamp(0.01, 0.99);
                    max_delta = max_delta.max((est - accuracies[j]).abs());
                    accuracies[j] = est;
                }
                if let Some(bal) = &mut balance {
                    let k = bal.len();
                    let mut new_bal = vec![config.smoothing; k];
                    for post in &posteriors {
                        for (c, &p) in post.iter().enumerate() {
                            new_bal[c] += p;
                        }
                    }
                    let total: f32 = new_bal.iter().sum();
                    for (b, nb) in bal.iter_mut().zip(&new_bal) {
                        let est = nb / total;
                        max_delta = max_delta.max((est - *b).abs());
                        *b = est;
                    }
                }
                if max_delta < config.tol {
                    break;
                }
            }
            LabelModel { accuracies, propensities, class_balance: balance, iterations }
        }

        /// E-step: `P(y_i = c | votes, params)` in log space.
        pub(super) fn posterior_given(
            matrix: &LabelMatrix,
            accuracies: &[f32],
            balance: Option<&[f32]>,
        ) -> Vec<Vec<f32>> {
            (0..matrix.n_items())
                .map(|i| {
                    let k = matrix.cardinality(i) as usize;
                    let mut log_post: Vec<f64> = (0..k)
                        .map(|c| match balance {
                            Some(b) if b.len() == k => (b[c].max(1e-9) as f64).ln(),
                            _ => (1.0 / k as f64).ln(),
                        })
                        .collect();
                    for (j, vote) in matrix.votes(i).iter().enumerate() {
                        let Some(v) = vote else { continue };
                        let acc = accuracies[j] as f64;
                        // With a single candidate the vote carries no information.
                        if k <= 1 {
                            continue;
                        }
                        let wrong = ((1.0 - acc) / (k as f64 - 1.0)).max(1e-12);
                        for (c, lp) in log_post.iter_mut().enumerate() {
                            *lp += if c as u32 == *v { acc.max(1e-12).ln() } else { wrong.ln() };
                        }
                    }
                    // Normalize stably.
                    let max = log_post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let mut probs: Vec<f64> = log_post.iter().map(|lp| (lp - max).exp()).collect();
                    let z: f64 = probs.iter().sum();
                    for p in &mut probs {
                        *p /= z;
                    }
                    probs.into_iter().map(|p| p as f32).collect()
                })
                .collect()
        }
    }

    /// A random label matrix: `m` sources of random accuracy voting on a
    /// hidden truth, abstaining at rate `abstain`, plus some all-abstain
    /// rows. `uniform` gives every item one cardinality in `1..=max_k`;
    /// otherwise each item draws its own (select-style), so `k = 1` items
    /// occur in both.
    fn random_matrix(
        m: usize,
        n: usize,
        max_k: u32,
        uniform: bool,
        abstain: f32,
        seed: u64,
    ) -> LabelMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let accs: Vec<f32> = (0..m).map(|_| rng.gen_range(0.3..0.95)).collect();
        let shared_k = rng.gen_range(1..=max_k);
        let mut matrix = LabelMatrix::new(m);
        for _ in 0..n {
            let k = if uniform { shared_k } else { rng.gen_range(1..=max_k) };
            let y = rng.gen_range(0..k);
            let silent = rng.gen::<f32>() < 0.1;
            let votes: Vec<Option<u32>> = accs
                .iter()
                .map(|&a| {
                    if silent || rng.gen::<f32>() < abstain {
                        None
                    } else if k == 1 || rng.gen::<f32>() < a {
                        Some(y)
                    } else {
                        Some(rng.gen_range(0..k))
                    }
                })
                .collect();
            matrix.push_item(k, &votes);
        }
        matrix
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pattern_em_is_bit_identical_to_per_item_em(
            shape in (1usize..6, 0usize..300, 1u32..6, any::<bool>()),
            knobs in (any::<bool>(), any::<bool>(), 0.0f32..0.8, 0.5f32..0.9, any::<u64>()),
        ) {
            let (m, n, max_k, uniform) = shape;
            let (estimate_balance, long, abstain, init_accuracy, seed) = knobs;
            let matrix = random_matrix(m, n, max_k, uniform, abstain, seed);
            let config = LabelModelConfig {
                max_iter: if long { 100 } else { 1 },
                init_accuracy,
                estimate_balance,
                ..LabelModelConfig::default()
            };
            let fast = LabelModel::fit(&matrix, &config);
            let slow = reference::fit(&matrix, &config);
            prop_assert_eq!(bits(fast.accuracies()), bits(slow.accuracies()));
            prop_assert_eq!(fast.class_balance().map(bits), slow.class_balance().map(bits));
            prop_assert_eq!(fast.iterations(), slow.iterations());
            let fast_post = fast.predict_proba(&matrix);
            let slow_post = reference::posterior_given(
                &matrix,
                slow.accuracies(),
                slow.class_balance(),
            );
            prop_assert_eq!(fast_post.len(), slow_post.len());
            for (a, b) in fast_post.iter().zip(&slow_post) {
                prop_assert_eq!(bits(a), bits(b));
            }
        }
    }

    #[test]
    fn single_candidate_items_are_harmless() {
        let mut matrix = LabelMatrix::new(1);
        matrix.push_item(1, &[Some(0)]); // only one candidate: trivially true
        matrix.push_item(3, &[Some(2)]);
        let model = LabelModel::fit(&matrix, &LabelModelConfig::default());
        let post = model.predict_proba(&matrix);
        assert_eq!(post[0], vec![1.0]);
    }
}
