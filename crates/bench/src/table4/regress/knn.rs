//! k-nearest-neighbours regression (the paper's "K-Neighbors") with
//! per-feature standardization and inverse-distance weighting.

use super::{check_xy, RegressError, Regressor};

/// k-NN regressor.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl KnnRegressor {
    /// A regressor averaging over `k` neighbours.
    pub fn new(k: usize) -> Self {
        KnnRegressor {
            k: k.max(1),
            x: Vec::new(),
            y: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
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

impl Regressor for KnnRegressor {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError> {
        let dim = check_xy(x, y)?;
        let n = x.len() as f64;
        self.mean = (0..dim)
            .map(|c| x.iter().map(|r| r[c]).sum::<f64>() / n)
            .collect();
        self.std = (0..dim)
            .map(|c| {
                let m = self.mean[c];
                let var = x.iter().map(|r| (r[c] - m).powi(2)).sum::<f64>() / n;
                var.sqrt().max(1e-12)
            })
            .collect();
        self.x = x.iter().map(|r| self.standardize(r)).collect();
        self.y = y.to_vec();
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.x.is_empty() {
            return 0.0;
        }
        let q = self.standardize(x);
        let mut dists: Vec<(f64, f64)> = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(row, &target)| {
                let d: f64 = row.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                (d.sqrt(), target)
            })
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let k = self.k.min(dists.len());
        // Inverse-distance weights; an exact hit dominates.
        let mut num = 0.0;
        let mut den = 0.0;
        for &(d, target) in &dists[..k] {
            let w = 1.0 / (d + 1e-9);
            num += w * target;
            den += w;
        }
        num / den
    }

    fn name(&self) -> &'static str {
        "K-Neighbors"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_hit_returns_training_target() {
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ];
        let y = vec![1.0, 2.0, 3.0, 40.0];
        let mut m = KnnRegressor::new(1);
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[5.0, 5.0]) - 40.0).abs() < 1e-6);
    }

    #[test]
    fn interpolates_between_neighbours() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
        let mut m = KnnRegressor::new(2);
        m.fit(&x, &y).unwrap();
        let p = m.predict(&[7.5]);
        assert!((p - 15.0).abs() < 0.5, "got {p}");
    }

    #[test]
    fn standardization_makes_scales_comparable() {
        // Feature 1 has a huge scale; without standardization it would drown
        // feature 0, which actually determines y.
        let x = vec![
            vec![0.0, 1.0e6],
            vec![1.0, -1.0e6],
            vec![0.1, -0.9e6],
            vec![0.9, 1.1e6],
        ];
        let y = vec![0.0, 10.0, 0.0, 10.0];
        let mut m = KnnRegressor::new(1);
        m.fit(&x, &y).unwrap();
        assert!((m.predict(&[0.05, -1.0e6]) - 0.0).abs() < 1e-6);
    }
}
