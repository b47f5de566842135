//! Weight initialization schemes.

use crate::matrix::Matrix;
use rand::Rng;

/// Samples a standard normal via the Box–Muller transform (avoids an extra
/// distribution dependency).
fn standard_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Uniform initialization in `[-bound, bound]`.
fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-bound..=bound)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Glorot/Xavier uniform initialization: `bound = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, bound, rng)
}

/// He/Kaiming normal initialization: `std = sqrt(2 / fan_in)` (for ReLU
/// stacks).
pub fn he_normal(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let std = (2.0 / rows as f32).sqrt();
    let data = (0..rows * cols).map(|_| standard_normal(rng) * std).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Gaussian initialization with explicit standard deviation (embeddings).
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols).map(|_| standard_normal(rng) * std).collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = xavier_uniform(10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn normal_has_roughly_requested_std() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = normal(100, 100, 0.5, &mut rng);
        let mean = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var =
            m.as_slice().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(3, 3, &mut SmallRng::seed_from_u64(7));
        let b = xavier_uniform(3, 3, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn standard_normal_is_finite() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }
}
