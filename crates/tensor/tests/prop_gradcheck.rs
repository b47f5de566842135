//! Property-based gradient verification of the identities the model
//! plan's hand-written backward pass builds from this crate: the GEMM
//! kernels' transposed products as matmul's vector-Jacobian products, and
//! `softmax_in_place` / `stable_sigmoid` as the fused cross-entropy and
//! binary cross-entropy gradients. Random shapes and values; every
//! analytic gradient must match central finite differences.

use overton_tensor::{matmul_at_into, matmul_into, softmax_in_place, stable_sigmoid, Matrix};
use proptest::prelude::*;

const TOL: f32 = 5e-2; // f32 central differences are noisy
const EPS: f32 = 1e-2;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// `a * b` through [`matmul_into`].
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0; m * n];
    matmul_into(m, k, n, a.as_slice(), b.as_slice(), &mut out);
    Matrix::from_vec(m, n, out)
}

/// `a^T * b` through [`matmul_at_into`], the weight-gradient product.
fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.cols(), a.rows(), b.cols());
    let mut out = vec![0.0; m * n];
    matmul_at_into(m, k, n, a.as_slice(), b.as_slice(), &mut out);
    Matrix::from_vec(m, n, out)
}

/// The worst `|analytic - numeric| / max(1, |analytic|, |numeric|)` over
/// every entry of every input, with `loss` differenced centrally.
fn max_rel_error(inputs: &[Matrix], analytic: &[Matrix], loss: impl Fn(&[Matrix]) -> f32) -> f32 {
    let mut work = inputs.to_vec();
    let mut worst = 0.0f32;
    for (which, input) in inputs.iter().enumerate() {
        assert_eq!(input.shape(), analytic[which].shape(), "gradient {which} shape");
        for idx in 0..input.len() {
            let orig = input.as_slice()[idx];
            work[which].as_mut_slice()[idx] = orig + EPS;
            let up = loss(&work);
            work[which].as_mut_slice()[idx] = orig - EPS;
            let down = loss(&work);
            work[which].as_mut_slice()[idx] = orig;
            let numeric = (up - down) / (2.0 * EPS);
            let a = analytic[which].as_slice()[idx];
            worst = worst.max((a - numeric).abs() / 1.0f32.max(a.abs()).max(numeric.abs()));
        }
    }
    worst
}

/// `-sum_j y_j log softmax(z)_j` for one row.
fn cross_entropy(z: &[f32], y: &[f32]) -> f32 {
    let mut p = z.to_vec();
    softmax_in_place(&mut p);
    -y.iter().zip(&p).map(|(y, p)| y * p.ln()).sum::<f32>()
}

/// Binary cross-entropy of one logit; `log(1 - s(z))` is `log s(-z)`.
fn bce(z: f32, y: f32) -> f32 {
    -(y * stable_sigmoid(z).ln() + (1.0 - y) * stable_sigmoid(-z).ln())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // L = sum(tanh(A B) C): dA = G B^T and dB = A^T G, where G is the
    // adjoint of A B, and dC = (tanh(A B))^T 1 through the same kernel.
    #[test]
    fn matmul_chain_gradients(
        m in 1usize..4,
        k in 1usize..4,
        n in 1usize..4,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut random = |rows: usize, cols: usize| {
            Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
        };
        let (a, b, c) = (random(m, k), random(k, n), random(n, 1));
        let loss = |x: &[Matrix]| {
            let mut h = matmul(&x[0], &x[1]);
            h.as_mut_slice().iter_mut().for_each(|v| *v = v.tanh());
            matmul(&h, &x[2]).as_slice().iter().sum::<f32>()
        };
        let mut h = matmul(&a, &b);
        h.as_mut_slice().iter_mut().for_each(|v| *v = v.tanh());
        let dc = matmul_at(&h, &Matrix::full(m, 1, 1.0));
        let dh = matmul(&Matrix::full(m, 1, 1.0), &c.transpose());
        let g: Vec<f32> =
            dh.as_slice().iter().zip(h.as_slice()).map(|(d, t)| d * (1.0 - t * t)).collect();
        let g = Matrix::from_vec(m, n, g);
        let (da, db) = (matmul(&g, &b.transpose()), matmul_at(&a, &g));
        let err = max_rel_error(&[a, b, c], &[da, db, dc], loss);
        prop_assert!(err <= TOL, "max rel err {err}");
    }

    // L = mean(x * s(a + b)) with x = a: the sigmoid's derivative
    // s(1 - s) from `stable_sigmoid`, summed over both paths into `a`.
    #[test]
    fn elementwise_pipeline_gradients(a in arb_matrix(3, 4), b in arb_matrix(3, 4)) {
        let len = a.len() as f32;
        let loss = |x: &[Matrix]| {
            let (a, b) = (x[0].as_slice(), x[1].as_slice());
            a.iter().zip(b).map(|(a, b)| a * stable_sigmoid(a + b)).sum::<f32>() / len
        };
        let (mut da, mut db) = (a.clone(), b.clone());
        for ((ga, gb), (&x, &y)) in da
            .as_mut_slice()
            .iter_mut()
            .zip(db.as_mut_slice())
            .zip(a.as_slice().iter().zip(b.as_slice()))
        {
            let s = stable_sigmoid(x + y);
            *gb = x * s * (1.0 - s) / len;
            *ga = s / len + *gb;
        }
        let err = max_rel_error(&[a, b], &[da, db], loss);
        prop_assert!(err <= TOL, "max rel err {err}");
    }

    // Row-weighted softmax cross-entropy against target distributions:
    // the fused gradient is w (softmax(z) - y).
    #[test]
    fn softmax_cross_entropy_gradients(logits in arb_matrix(2, 5)) {
        let targets = [[0.1, 0.2, 0.3, 0.2, 0.2], [1.0, 0.0, 0.0, 0.0, 0.0]];
        let weights = [0.5, 1.5];
        let loss = |x: &[Matrix]| {
            (0..2).map(|r| weights[r] * cross_entropy(x[0].row(r), &targets[r])).sum::<f32>()
        };
        let mut grad = logits.clone();
        for r in 0..2 {
            let row = grad.row_mut(r);
            softmax_in_place(row);
            for (g, y) in row.iter_mut().zip(&targets[r]) {
                *g = weights[r] * (*g - y);
            }
        }
        let err = max_rel_error(&[logits], &[grad], loss);
        prop_assert!(err <= TOL, "max rel err {err}");
    }

    // Masked binary cross-entropy with soft targets: the fused gradient is
    // mask (s(z) - y), and a masked-out logit gets none.
    #[test]
    fn bce_gradients(logits in arb_matrix(3, 3)) {
        let targets = [1.0, 0.0, 0.5, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0];
        let mask = [1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let loss = |x: &[Matrix]| {
            x[0].as_slice().iter().enumerate().map(|(i, &z)| mask[i] * bce(z, targets[i])).sum()
        };
        let grad: Vec<f32> = logits
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &z)| mask[i] * (stable_sigmoid(z) - targets[i]))
            .collect();
        let grad = Matrix::from_vec(3, 3, grad);
        let err = max_rel_error(&[logits], &[grad], loss);
        prop_assert!(err <= TOL, "max rel err {err}");
    }

    // Any finite row, at any scale, softmaxes to a distribution that keeps
    // the row's argmax and ignores a constant shift.
    #[test]
    fn softmax_rows_distribution_property(
        row in prop::collection::vec(-50.0f32..50.0, 1..12),
        shift in -100.0f32..100.0,
    ) {
        let mut p = row.clone();
        softmax_in_place(&mut p);
        prop_assert!(p.iter().all(|v| (0.0..=1.0).contains(v)), "{p:?}");
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5, "{p:?}");
        let argmax = |xs: &[f32]| {
            (0..xs.len()).fold(0, |best, i| if xs[i] > xs[best] { i } else { best })
        };
        prop_assert_eq!(p[argmax(&row)], p[argmax(&p)]);
        let mut shifted: Vec<f32> = row.iter().map(|v| v + shift).collect();
        softmax_in_place(&mut shifted);
        for (a, b) in p.iter().zip(&shifted) {
            prop_assert!((a - b).abs() < 1e-4, "{p:?} vs {shifted:?}");
        }
    }
}
