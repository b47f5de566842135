//! Property-based parity of the blocked GEMM kernels against the naive
//! reference loops: random shapes on both sides of the dispatch cutoff,
//! dimensions not divisible by the block sizes, and degenerate edges
//! (empty, 1xN, Nx1). Equality is exact (`==`, not tolerance): the
//! blocked kernels accumulate every output element in the same strictly
//! increasing k order as the naive loops, so dispatch must never change
//! a single bit.

use overton_tensor::{matmul_at_into, Matrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The seed repo's naive `A * B` (i-k-j loops), kept here as the parity
/// reference for whatever path `Matrix::matmul` dispatches to.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a.as_slice()[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b.as_slice()[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    Matrix::from_vec(m, n, out)
}

/// Naive `A * B^T`: per-cell ascending-k dot product.
fn naive_matmul_transpose_b(a: &Matrix, bt: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), bt.rows());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[(i, p)] * bt[(j, p)];
            }
            out[i * n + j] = acc;
        }
    }
    Matrix::from_vec(m, n, out)
}

/// Naive `A^T * B`: k-outer loops, ascending k per output element.
fn naive_transpose_a_matmul(at: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (at.cols(), at.rows(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let av = at[(kk, i)];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, bv) in out_row.iter_mut().zip(b.row(kk)) {
                *o += av * bv;
            }
        }
    }
    Matrix::from_vec(m, n, out)
}

/// `A^T * B` through [`matmul_at_into`], the training executor's weight
/// gradient product.
fn transpose_a_matmul(at: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (at.cols(), at.rows(), b.cols());
    let mut out = vec![0.0f32; m * n];
    matmul_at_into(m, k, n, at.as_slice(), b.as_slice(), &mut out);
    Matrix::from_vec(m, n, out)
}

fn random_matrix(rng: &mut SmallRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Shape ranges straddle the blocked-dispatch cutoff and are prime-ish
    // bounded, so cases land on every combination of full and ragged
    // MR/NR/KC/MC/NC tiles.
    #[test]
    fn matmul_parity(m in 1usize..70, k in 1usize..90, n in 1usize..70, seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        prop_assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    // `A * B^T` as the training executor's input gradient `G W^T` forms
    // it: `matmul` on an explicit transpose, bit-identical to the
    // per-cell dot product.
    #[test]
    fn matmul_transpose_b_parity(
        m in 1usize..70, k in 1usize..90, n in 1usize..70, seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k);
        let bt = random_matrix(&mut rng, n, k);
        prop_assert_eq!(a.matmul(&bt.transpose()), naive_matmul_transpose_b(&a, &bt));
    }

    #[test]
    fn transpose_a_matmul_parity(
        m in 1usize..70, k in 1usize..90, n in 1usize..70, seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let at = random_matrix(&mut rng, k, m);
        let b = random_matrix(&mut rng, k, n);
        prop_assert_eq!(transpose_a_matmul(&at, &b), naive_transpose_a_matmul(&at, &b));
    }

    // Mostly-zero operands (one-hot selections, dead activations) go
    // through the same kernels as dense ones and must agree with the
    // reference on every (finite) input.
    #[test]
    fn sparse_operand_parity(m in 1usize..40, k in 1usize..60, n in 1usize..40, seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = random_matrix(&mut rng, m, k);
        for x in a.as_mut_slice() {
            if rng.gen_bool(0.7) {
                *x = 0.0;
            }
        }
        let b = random_matrix(&mut rng, k, n);
        prop_assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    // Row independence, which batched inference and the stacked training
    // executor rely on: each row of `[A1; A2] * B` is bit-identical to the same
    // row of `A1 * B` or `A2 * B`, even when stacking moves the product
    // across the blocked cutoff (`sparse` zeroes most of A1 or A2).
    #[test]
    fn stacked_rows_match_alone(
        m1 in 1usize..40, m2 in 1usize..40, k in 1usize..90, n in 1usize..70,
        sparse in 0usize..3, seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut parts = [random_matrix(&mut rng, m1, k), random_matrix(&mut rng, m2, k)];
        if let Some(part) = parts.get_mut(sparse) {
            for x in part.as_mut_slice() {
                if rng.gen_bool(0.8) {
                    *x = 0.0;
                }
            }
        }
        let b = random_matrix(&mut rng, k, n);
        let stacked = [parts[0].as_slice(), parts[1].as_slice()].concat();
        let stacked = Matrix::from_vec(m1 + m2, k, stacked).matmul(&b);
        let alone: Vec<Matrix> = parts.iter().map(|a| a.matmul(&b)).collect();
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let alone_rows = alone.iter().flat_map(|c| (0..c.rows()).map(move |r| c.row(r)));
        for (r, row) in alone_rows.enumerate() {
            prop_assert_eq!(bits(stacked.row(r)), bits(row));
        }
    }
}

#[test]
fn production_shapes_bit_identical() {
    // The shapes the serving/training hot path actually runs: batch x
    // hidden GEMMs, im2row conv products, and the 256^3 bench shape —
    // all far above the dispatch cutoff.
    let mut rng = SmallRng::seed_from_u64(17);
    for (m, k, n) in [(64, 48, 48), (128, 96, 48), (33, 48, 96), (256, 256, 256)] {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b), "{m}x{k}*{k}x{n}");
        let at = random_matrix(&mut rng, k, m);
        assert_eq!(
            transpose_a_matmul(&at, &b),
            naive_transpose_a_matmul(&at, &b),
            "({k}x{m})^T*{k}x{n}"
        );
    }
}

#[test]
fn serving_shapes_bit_identical() {
    // One example through the default CNN encoder: a 4-12 token im2row
    // (kernel 3 x token_dim 32 = 96 wide) times the 96 x 48 conv weight,
    // and the per-example weight gradients of the same shapes. These run
    // the row kernel, below the blocked dispatch cutoff.
    let mut rng = SmallRng::seed_from_u64(23);
    for m in 4..=12 {
        let a = random_matrix(&mut rng, m, 96);
        let b = random_matrix(&mut rng, 96, 48);
        assert_eq!(a.matmul(&b), naive_matmul(&a, &b), "{m}x96*96x48");
        let at = random_matrix(&mut rng, 96, m);
        assert_eq!(
            transpose_a_matmul(&at, &b),
            naive_transpose_a_matmul(&at, &b),
            "(96x{m})^T*96x48"
        );
    }
}

#[test]
fn degenerate_shapes() {
    let mut rng = SmallRng::seed_from_u64(5);
    // Empty on every axis.
    for (m, k, n) in [(0, 4, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (m, n));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }
    // 1xN row and Nx1 column against a large-k operand (k alone cannot
    // trip the blocked path without m and n).
    let row = random_matrix(&mut rng, 1, 300);
    let b = random_matrix(&mut rng, 300, 50);
    assert_eq!(row.matmul(&b), naive_matmul(&row, &b));
    let col = random_matrix(&mut rng, 300, 1);
    let a = random_matrix(&mut rng, 50, 300);
    assert_eq!(a.matmul(&col), naive_matmul(&a, &col));
}
