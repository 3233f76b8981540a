//! Theil-Sen regression (the paper's "TSR"): robust multivariate estimator
//! taking the coordinate-wise median of least-squares fits over many random
//! minimal subsets.

use super::linalg::{least_squares, median};
use super::{check_xy, RegressError, Regressor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Multivariate Theil-Sen estimator.
#[derive(Debug, Clone)]
pub struct TheilSen {
    n_subsets: usize,
    seed: u64,
    beta: Vec<f64>,
}

impl TheilSen {
    /// Estimator over `n_subsets` random minimal subsets.
    pub fn new(n_subsets: usize, seed: u64) -> Self {
        TheilSen {
            n_subsets: n_subsets.max(10),
            seed,
            beta: Vec::new(),
        }
    }
}

impl Regressor for TheilSen {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError> {
        let dim = check_xy(x, y)?;
        let subset_size = dim + 2; // minimal + 1 for stability
        if x.len() < subset_size {
            // Too few points for subsets: fall back to a single fit.
            self.beta = least_squares(x, y, 1e-6)
                .ok_or_else(|| RegressError::BadData("degenerate data".into()))?;
            return Ok(());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut indices: Vec<usize> = (0..x.len()).collect();
        let mut betas: Vec<Vec<f64>> = Vec::with_capacity(self.n_subsets);
        for _ in 0..self.n_subsets {
            indices.shuffle(&mut rng);
            let rows: Vec<Vec<f64>> = indices[..subset_size]
                .iter()
                .map(|&i| x[i].clone())
                .collect();
            let targets: Vec<f64> = indices[..subset_size].iter().map(|&i| y[i]).collect();
            if let Some(beta) = least_squares(&rows, &targets, 1e-6) {
                if beta.iter().all(|v| v.is_finite()) {
                    betas.push(beta);
                }
            }
        }
        if betas.is_empty() {
            return Err(RegressError::BadData("all subset fits degenerate".into()));
        }
        let k = betas[0].len();
        self.beta = (0..k)
            .map(|c| {
                let mut col: Vec<f64> = betas.iter().map(|b| b[c]).collect();
                median(&mut col)
            })
            .collect();
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.beta.is_empty() {
            return 0.0;
        }
        let dim = self.beta.len() - 1;
        let mut s = self.beta[dim];
        for (i, &v) in x.iter().take(dim).enumerate() {
            s += self.beta[i] * v;
        }
        s
    }

    fn name(&self) -> &'static str {
        "TSR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_line_with_outliers() {
        // y = 4x + 2, with 10% gross outliers that would wreck OLS.
        let mut x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let mut y: Vec<f64> = x.iter().map(|r| 4.0 * r[0] + 2.0).collect();
        for i in (0..100).step_by(10) {
            y[i] += 500.0;
        }
        x.push(vec![20.0]);
        y.push(4.0 * 20.0 + 2.0);
        let mut m = TheilSen::new(400, 3);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[5.0]);
        assert!(
            (p - 22.0).abs() < 1.5,
            "robust fit should shrug off outliers, got {p}"
        );
    }

    #[test]
    fn tiny_dataset_falls_back_to_ols() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![1.0, 3.0];
        let mut m = TheilSen::new(100, 1);
        m.fit(&x, &y).unwrap();
        // Ridge damping on a 2-point fit leaves a tiny bias.
        assert!((m.predict(&[2.0]) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn deterministic_under_seed() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] - r[1]).collect();
        let mut a = TheilSen::new(100, 9);
        let mut b = TheilSen::new(100, 9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&[10.0, 1.0]), b.predict(&[10.0, 1.0]));
    }
}
