//! Ordinary least squares (the paper's "OLS").

use super::linalg::least_squares;
use super::{check_xy, RegressError, Regressor};

/// Linear regression fitted by (ridge-damped) normal equations.
#[derive(Debug, Clone, Default)]
pub struct Ols {
    /// Coefficients, intercept last; empty until fitted.
    beta: Vec<f64>,
}

impl Ols {
    /// A fresh, unfitted model.
    pub fn new() -> Self {
        Ols { beta: Vec::new() }
    }

    /// Fitted coefficients (intercept last), empty before fitting.
    pub fn coefficients(&self) -> &[f64] {
        &self.beta
    }
}

impl Regressor for Ols {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError> {
        check_xy(x, y)?;
        self.beta = least_squares(x, y, 1e-8)
            .ok_or_else(|| RegressError::BadData("singular design matrix".into()))?;
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
        "OLS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_data_exactly() {
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.5 * r[0] - 0.5 * r[1] + 1.0).collect();
        let mut m = Ols::new();
        m.fit(&x, &y).unwrap();
        for (row, target) in x.iter().zip(&y) {
            assert!((m.predict(row) - target).abs() < 1e-6);
        }
    }

    #[test]
    fn predict_before_fit_is_zero() {
        assert_eq!(Ols::new().predict(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rejects_bad_data() {
        let mut m = Ols::new();
        assert!(m.fit(&[], &[]).is_err());
    }
}
