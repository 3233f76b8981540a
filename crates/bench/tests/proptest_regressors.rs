//! Property tests for the regression models: exactness on linear data,
//! robustness, determinism, and metric sanity.

use nnrt_bench::table4::regress::{
    mape_accuracy, r_squared, select_features, GradientBoosting, KnnRegressor, Ols,
    PassiveAggressive, Regressor, TheilSen,
};
use proptest::prelude::*;

fn linear_data(coefs: &[f64], intercept: f64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let dim = coefs.len();
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| ((i * (j + 3) + j * 7) % 23) as f64 - 11.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|row| row.iter().zip(coefs).map(|(v, c)| v * c).sum::<f64>() + intercept)
        .collect();
    (x, y)
}

proptest! {
    #[test]
    fn ols_recovers_any_linear_map(
        coefs in proptest::collection::vec(-5.0f64..5.0, 1..=4),
        intercept in -10.0f64..10.0,
    ) {
        let (x, y) = linear_data(&coefs, intercept, 60);
        let mut m = Ols::new();
        m.fit(&x, &y).unwrap();
        for (row, target) in x.iter().zip(&y) {
            prop_assert!((m.predict(row) - target).abs() < 1e-5);
        }
    }

    #[test]
    fn theilsen_matches_ols_on_clean_linear_data(
        coefs in proptest::collection::vec(-3.0f64..3.0, 1..=3),
    ) {
        let (x, y) = linear_data(&coefs, 2.0, 50);
        let mut ts = TheilSen::new(150, 7);
        ts.fit(&x, &y).unwrap();
        let spread = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - y.iter().cloned().fold(f64::INFINITY, f64::min);
        for (row, target) in x.iter().zip(&y).take(10) {
            prop_assert!((ts.predict(row) - target).abs() <= 0.02 * spread.max(1.0));
        }
    }

    #[test]
    fn knn_predictions_stay_within_target_range(
        targets in proptest::collection::vec(0.1f64..100.0, 5..=40),
        k in 1usize..=7,
    ) {
        let x: Vec<Vec<f64>> = (0..targets.len()).map(|i| vec![i as f64]).collect();
        let mut m = KnnRegressor::new(k);
        m.fit(&x, &targets).unwrap();
        let lo = targets.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for q in 0..targets.len() {
            let p = m.predict(&[q as f64 + 0.3]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "prediction {p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn boosting_and_par_are_deterministic(
        seed in 0u64..500,
        coefs in proptest::collection::vec(-2.0f64..2.0, 1..=3),
    ) {
        let (x, y) = linear_data(&coefs, 1.0, 40);
        let fit_twice = |mk: &dyn Fn() -> Box<dyn Regressor>| {
            let mut a = mk();
            let mut b = mk();
            a.fit(&x, &y).unwrap();
            b.fit(&x, &y).unwrap();
            (a.predict(&x[0]), b.predict(&x[0]))
        };
        let (a, b) = fit_twice(&|| Box::new(GradientBoosting::new(25, 2, 0.2, seed)));
        prop_assert_eq!(a, b);
        let (a, b) = fit_twice(&|| Box::new(PassiveAggressive::new(0.05, 1.0, 8, seed)));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn metrics_bounds(
        actual in proptest::collection::vec(0.1f64..1e4, 1..=50),
        noise in proptest::collection::vec(-0.5f64..0.5, 1..=50),
    ) {
        let n = actual.len().min(noise.len());
        let actual = &actual[..n];
        let pred: Vec<f64> = actual.iter().zip(&noise[..n]).map(|(a, e)| a * (1.0 + e)).collect();
        let acc = mape_accuracy(&pred, actual);
        prop_assert!((0.0..=1.0).contains(&acc));
        let r2 = r_squared(&pred, actual);
        prop_assert!(r2 <= 1.0 + 1e-12);
        // Perfect predictions max both metrics.
        prop_assert!((mape_accuracy(actual, actual) - 1.0).abs() < 1e-12);
        prop_assert!((r_squared(actual, actual) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feature_selection_returns_valid_distinct_indices(
        rows in 10usize..=60,
        dim in 2usize..=12,
        k in 1usize..=6,
    ) {
        let x: Vec<Vec<f64>> = (0..rows)
            .map(|i| (0..dim).map(|j| ((i * (j + 2)) % 17) as f64).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 3.0 + 1.0).collect();
        let kept = select_features(&x, &y, k, 0.95);
        prop_assert!(kept.len() <= k);
        let mut sorted = kept.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), kept.len(), "duplicate indices");
        prop_assert!(kept.iter().all(|&j| j < dim));
    }
}
