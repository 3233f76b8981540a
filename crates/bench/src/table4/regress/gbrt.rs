//! Gradient-boosted regression trees (the paper's "Gradient Boosting"):
//! stage-wise fitting of shallow CART trees to residuals, with stochastic
//! row subsampling.

use super::tree::DecisionTree;
use super::{check_xy, RegressError, Regressor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Gradient boosting with squared-error loss.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    n_estimators: usize,
    max_depth: usize,
    learning_rate: f64,
    seed: u64,
    base: f64,
    trees: Vec<DecisionTree>,
}

impl GradientBoosting {
    /// `n_estimators` trees of depth `max_depth`, shrunk by `learning_rate`.
    pub fn new(n_estimators: usize, max_depth: usize, learning_rate: f64, seed: u64) -> Self {
        GradientBoosting {
            n_estimators: n_estimators.max(1),
            max_depth: max_depth.max(1),
            learning_rate,
            seed,
            base: 0.0,
            trees: Vec::new(),
        }
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError> {
        check_xy(x, y)?;
        let n = x.len();
        self.base = y.iter().sum::<f64>() / n as f64;
        self.trees.clear();
        let mut residual: Vec<f64> = y.iter().map(|v| v - self.base).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let subsample = ((n as f64 * 0.8).ceil() as usize).clamp(2, n);
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..self.n_estimators {
            indices.shuffle(&mut rng);
            let chosen = &indices[..subsample];
            let xs: Vec<Vec<f64>> = chosen.iter().map(|&i| x[i].clone()).collect();
            let ys: Vec<f64> = chosen.iter().map(|&i| residual[i]).collect();
            let mut tree = DecisionTree::new(self.max_depth, 4);
            tree.fit_slices(&xs, &ys);
            for (i, row) in x.iter().enumerate() {
                residual[i] -= self.learning_rate * tree.predict(row);
            }
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    fn name(&self) -> &'static str {
        "Gradient Boosting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table4::regress::metrics::r_squared;

    #[test]
    fn fits_nonlinear_function() {
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] * 1.3).sin() * 5.0 + r[0]).collect();
        let mut m = GradientBoosting::new(150, 3, 0.1, 7);
        m.fit(&x, &y).unwrap();
        let preds: Vec<f64> = x.iter().map(|r| m.predict(r)).collect();
        let r2 = r_squared(&preds, &y);
        assert!(r2 > 0.95, "r2 = {r2}");
    }

    #[test]
    fn deterministic_under_seed() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1]).collect();
        let mut a = GradientBoosting::new(30, 3, 0.1, 42);
        let mut b = GradientBoosting::new(30, 3, 0.1, 42);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for row in &x {
            assert_eq!(a.predict(row), b.predict(row));
        }
    }

    #[test]
    fn unfitted_predicts_base_zero() {
        let m = GradientBoosting::new(10, 2, 0.1, 0);
        assert_eq!(m.predict(&[1.0]), 0.0);
    }
}
