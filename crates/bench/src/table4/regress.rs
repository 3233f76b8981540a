//! From-scratch regression models — the five the paper's Table IV evaluates
//! as its *rejected* performance-model baseline (gradient boosting, k-nearest
//! neighbours, Theil-Sen, ordinary least squares, passive-aggressive), plus
//! the CART decision tree they are built from, which also powers the paper's
//! decision-tree feature selection (§III-B).
//!
//! Everything is dependency-free numerical Rust: a small dense linear-algebra
//! kernel, exact solvers, and deterministic (seeded) stochastic components.

pub mod feature_select;
pub mod gbrt;
pub mod knn;
pub mod linalg;
pub mod metrics;
pub mod ols;
pub mod par;
pub mod theilsen;
pub mod tree;

pub use feature_select::select_features;
pub use gbrt::GradientBoosting;
pub use knn::KnnRegressor;
pub use metrics::{mape_accuracy, r_squared};
pub use ols::Ols;
pub use par::PassiveAggressive;
pub use theilsen::TheilSen;
pub use tree::DecisionTree;

use std::fmt;

/// Errors from fitting or predicting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegressError {
    /// Training data was empty or inconsistently shaped.
    BadData(String),
    /// Predict was called before fit.
    NotFitted,
}

impl fmt::Display for RegressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressError::BadData(msg) => write!(f, "bad training data: {msg}"),
            RegressError::NotFitted => write!(f, "model has not been fitted"),
        }
    }
}

impl std::error::Error for RegressError {}

/// A regression model mapping a feature vector to a scalar.
pub trait Regressor {
    /// Fits the model on rows `x` with targets `y`.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError>;

    /// Predicts the target for one feature vector.
    fn predict(&self, x: &[f64]) -> f64;

    /// Model name as the paper's Table IV prints it.
    fn name(&self) -> &'static str;

    /// Predicts a batch of rows.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Validates a training set's shape; returns the feature dimension.
pub(crate) fn check_xy(x: &[Vec<f64>], y: &[f64]) -> Result<usize, RegressError> {
    if x.is_empty() || y.is_empty() {
        return Err(RegressError::BadData("empty training set".into()));
    }
    if x.len() != y.len() {
        return Err(RegressError::BadData(format!(
            "{} rows but {} targets",
            x.len(),
            y.len()
        )));
    }
    let dim = x[0].len();
    if dim == 0 {
        return Err(RegressError::BadData("zero-dimensional features".into()));
    }
    if x.iter().any(|r| r.len() != dim) {
        return Err(RegressError::BadData("ragged feature rows".into()));
    }
    if x.iter().flatten().any(|v| !v.is_finite()) || y.iter().any(|v| !v.is_finite()) {
        return Err(RegressError::BadData("non-finite values".into()));
    }
    Ok(dim)
}

/// The five regressors of the paper's Table IV, boxed for uniform handling.
pub fn table4_regressors(seed: u64) -> Vec<Box<dyn Regressor>> {
    vec![
        Box::new(GradientBoosting::new(120, 3, 0.08, seed)),
        Box::new(KnnRegressor::new(5)),
        Box::new(TheilSen::new(300, seed)),
        Box::new(Ols::new()),
        Box::new(PassiveAggressive::new(0.05, 1.0, 20, seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_xy_catches_problems() {
        assert!(check_xy(&[], &[]).is_err());
        assert!(check_xy(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(check_xy(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).is_err());
        assert!(check_xy(&[vec![f64::NAN]], &[1.0]).is_err());
        assert_eq!(check_xy(&[vec![1.0, 2.0]], &[3.0]).unwrap(), 2);
    }

    #[test]
    fn table4_set_has_five_models() {
        let models = table4_regressors(1);
        let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["Gradient Boosting", "K-Neighbors", "TSR", "OLS", "PAR"]
        );
    }
}
