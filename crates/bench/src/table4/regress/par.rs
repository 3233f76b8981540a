//! Passive-aggressive regression (the paper's "PAR"): online updates with an
//! epsilon-insensitive loss (Crammer et al., PA-I variant), run for several
//! shuffled epochs with feature standardization.

use super::{check_xy, RegressError, Regressor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// PA-I regression.
#[derive(Debug, Clone)]
pub struct PassiveAggressive {
    epsilon: f64,
    c: f64,
    epochs: usize,
    seed: u64,
    w: Vec<f64>,
    bias: f64,
    mean: Vec<f64>,
    std: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl PassiveAggressive {
    /// Insensitivity `epsilon`, aggressiveness cap `c`, `epochs` passes.
    pub fn new(epsilon: f64, c: f64, epochs: usize, seed: u64) -> Self {
        PassiveAggressive {
            epsilon,
            c,
            epochs: epochs.max(1),
            seed,
            w: Vec::new(),
            bias: 0.0,
            mean: Vec::new(),
            std: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    fn standardize(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(i, &v)| {
                (v - self.mean.get(i).copied().unwrap_or(0.0))
                    / self.std.get(i).copied().unwrap_or(1.0)
            })
            .collect()
    }
}

impl Regressor for PassiveAggressive {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError> {
        let dim = check_xy(x, y)?;
        let n = x.len() as f64;
        self.mean = (0..dim)
            .map(|c| x.iter().map(|r| r[c]).sum::<f64>() / n)
            .collect();
        self.std = (0..dim)
            .map(|c| {
                let m = self.mean[c];
                (x.iter().map(|r| (r[c] - m).powi(2)).sum::<f64>() / n)
                    .sqrt()
                    .max(1e-12)
            })
            .collect();
        self.y_mean = y.iter().sum::<f64>() / n;
        self.y_std = (y.iter().map(|v| (v - self.y_mean).powi(2)).sum::<f64>() / n)
            .sqrt()
            .max(1e-12);

        let xs: Vec<Vec<f64>> = x.iter().map(|r| self.standardize(r)).collect();
        let ys: Vec<f64> = y.iter().map(|v| (v - self.y_mean) / self.y_std).collect();
        self.w = vec![0.0; dim];
        self.bias = 0.0;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let pred: f64 =
                    self.w.iter().zip(&xs[i]).map(|(a, b)| a * b).sum::<f64>() + self.bias;
                let err = ys[i] - pred;
                let loss = err.abs() - self.epsilon;
                if loss <= 0.0 {
                    continue;
                }
                let norm_sq: f64 = xs[i].iter().map(|v| v * v).sum::<f64>() + 1.0;
                let tau = (loss / norm_sq).min(self.c) * err.signum();
                for (wj, &xj) in self.w.iter_mut().zip(&xs[i]) {
                    *wj += tau * xj;
                }
                self.bias += tau;
            }
        }
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.w.is_empty() {
            return 0.0;
        }
        let xs = self.standardize(x);
        let z: f64 = self.w.iter().zip(&xs).map(|(a, b)| a * b).sum::<f64>() + self.bias;
        z * self.y_std + self.y_mean
    }

    fn name(&self) -> &'static str {
        "PAR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_relation() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 2.0 * r[1] + 5.0).collect();
        let mut m = PassiveAggressive::new(0.01, 1.0, 50, 11);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[50.0, 3.0]);
        let expected = 3.0 * 50.0 + 2.0 * 3.0 + 5.0;
        assert!(
            (p - expected).abs() / expected < 0.05,
            "expected ~{expected}, got {p}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let mut a = PassiveAggressive::new(0.05, 1.0, 10, 3);
        let mut b = PassiveAggressive::new(0.05, 1.0, 10, 3);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&[17.0]), b.predict(&[17.0]));
    }

    #[test]
    fn unfitted_is_zero() {
        assert_eq!(PassiveAggressive::new(0.1, 1.0, 1, 0).predict(&[1.0]), 0.0);
    }
}
