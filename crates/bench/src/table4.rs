//! The regression-model performance baseline (§III-B, Table IV) — the
//! approach the paper evaluates and *rejects*.
//!
//! Pipeline, as in the paper:
//!
//! 1. Run each operation standalone at `N` evenly spaced *sample cases*
//!    (thread counts), collecting the 26 hardware events + execution time of
//!    each run (noisy, duration-dependent — see [`counters`]).
//! 2. Normalize events by instruction count; concatenate the `N` vectors
//!    into one feature row per operation.
//! 3. Per *prediction case* (target thread count) select 4 features with a
//!    decision tree, then train one regression model mapping features to the
//!    execution time at that case.
//! 4. Evaluate with the paper's accuracy metric and R² on held-out
//!    operations (the paper trains on ResNet-50/DCGAN/Inception-v3 ops and
//!    tests on DCGAN).
//!
//! The model is architecture-dependent and inaccurate — which is the point:
//! Table IV motivates the hill-climbing model. None of it is linked into
//! the runtime: [`RegressionModel`] plugs into `nnrt-sched` only through
//! the [`PerfModel`] trait and `Runtime::prepare_with_model`.

pub mod counters;
pub mod regress;

use counters::{feature_vector, sample_counts};
use nnrt_graph::OpKey;
use nnrt_manycore::{NoiseModel, SharingMode};
use nnrt_sched::{Measurer, OpCatalog, PerfModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use regress::{mape_accuracy, r_squared, select_features, Regressor};
use std::collections::HashMap;

/// Configuration of the regression pipeline.
#[derive(Debug, Clone)]
pub struct RegressionModelConfig {
    /// Number of sample cases `N` (the paper evaluates 1, 4, 8, 16).
    pub sample_cases: usize,
    /// The prediction cases (target thread counts) to build models for. The
    /// paper builds 68; a coarser set keeps evaluation affordable without
    /// changing the conclusion.
    pub target_cases: Vec<u32>,
    /// Features kept by the decision-tree selection (paper: 4).
    pub selected_features: usize,
    /// RNG seed for counter noise.
    pub seed: u64,
}

impl Default for RegressionModelConfig {
    fn default() -> Self {
        RegressionModelConfig {
            sample_cases: 4,
            target_cases: (1..=17).map(|i| i * 4).collect(), // 4, 8, ..., 68
            selected_features: 4,
            seed: 0xBEEF,
        }
    }
}

impl RegressionModelConfig {
    /// The `N` evenly spaced sample thread counts over `1..=max`.
    pub fn sample_points(&self, max: u32) -> Vec<u32> {
        let n = self.sample_cases.max(1) as u32;
        (0..n)
            .map(|i| (((2 * i + 1) * max).div_ceil(2 * n)).clamp(1, max))
            .collect()
    }
}

/// One dataset: a feature row per op key, plus per-case labels (noisy) and
/// ground truth.
#[derive(Debug, Clone)]
pub struct RegressionDataset {
    /// Op keys, row-aligned.
    pub keys: Vec<OpKey>,
    /// Feature rows (`N * 27` columns).
    pub rows: Vec<Vec<f64>>,
    /// Noisy measured times per target case (training labels).
    pub labels: HashMap<u32, Vec<f64>>,
    /// Noise-free times per target case (evaluation ground truth).
    pub truth: HashMap<u32, Vec<f64>>,
}

/// Collects the dataset for every key of `catalog`.
pub fn build_dataset(
    catalog: &OpCatalog,
    measurer: &mut Measurer,
    cfg: &RegressionModelConfig,
) -> RegressionDataset {
    let max = measurer.max_threads();
    let samples = cfg.sample_points(max);
    // The profiling budget is fixed: spreading it over more sample cases
    // leaves fewer counter readings per case, so each case measures noisier
    // (the paper finds "a large N is not helpful for improving modeling
    // accuracy" and N = 16 clearly worse).
    let spread = (cfg.sample_cases.max(1) as f64).sqrt();
    let base = NoiseModel::default();
    let noise = NoiseModel {
        sigma_floor: base.sigma_floor * spread,
        sigma_short: base.sigma_short * spread,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut keys = Vec::new();
    let mut rows = Vec::new();
    let mut labels: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut truth: HashMap<u32, Vec<f64>> = HashMap::new();
    for key in catalog.keys() {
        let profile = *catalog.profile_of_key(key).expect("key from catalog");
        let mut row = Vec::new();
        for &p in &samples {
            let true_secs = measurer.true_time(&profile, p, SharingMode::Compact);
            let counts = sample_counts(&profile, p, true_secs, &noise, &mut rng);
            row.extend(feature_vector(&counts));
        }
        for &case in &cfg.target_cases {
            labels.entry(case).or_default().push(measurer.measure(
                &profile,
                case,
                SharingMode::Compact,
            ));
            truth.entry(case).or_default().push(measurer.true_time(
                &profile,
                case,
                SharingMode::Compact,
            ));
        }
        keys.push(key.clone());
        rows.push(row);
    }
    RegressionDataset {
        keys,
        rows,
        labels,
        truth,
    }
}

/// Accuracy and R² of one regressor family over train/test datasets,
/// averaged across every prediction case — one Table IV cell.
pub fn evaluate_regressor(
    train: &RegressionDataset,
    test: &RegressionDataset,
    make: &dyn Fn(u64) -> Box<dyn Regressor>,
    cfg: &RegressionModelConfig,
) -> (f64, f64) {
    let mut all_preds = Vec::new();
    let mut all_truth = Vec::new();
    for &case in &cfg.target_cases {
        let y_train = &train.labels[&case];
        let kept = select_features(&train.rows, y_train, cfg.selected_features, 0.95);
        if kept.is_empty() {
            continue;
        }
        let project = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
            rows.iter()
                .map(|r| kept.iter().map(|&j| r[j]).collect())
                .collect()
        };
        let xtr = project(&train.rows);
        let xte = project(&test.rows);
        let mut model = make(cfg.seed ^ case as u64);
        if model.fit(&xtr, y_train).is_err() {
            continue;
        }
        all_preds.extend(model.predict_batch(&xte));
        all_truth.extend(test.truth[&case].iter().copied());
    }
    if all_preds.is_empty() {
        return (0.0, 0.0);
    }
    (
        mape_accuracy(&all_preds, &all_truth),
        r_squared(&all_preds, &all_truth),
    )
}

/// A regression model usable as a (bad) [`PerfModel`] — what "using the most
/// accurate regression model to direct NN model training" (a 30% loss in the
/// paper) looks like.
pub struct RegressionModel {
    cfg: RegressionModelConfig,
    /// Per-case fitted regressors with their feature selections.
    cases: HashMap<u32, (Vec<usize>, Box<dyn Regressor>)>,
    /// Feature rows per key, for prediction.
    features: HashMap<OpKey, Vec<f64>>,
}

impl RegressionModel {
    /// Fits one regressor per prediction case on `dataset`.
    pub fn fit(
        dataset: &RegressionDataset,
        make: &dyn Fn(u64) -> Box<dyn Regressor>,
        cfg: RegressionModelConfig,
    ) -> Self {
        let mut cases = HashMap::new();
        for &case in &cfg.target_cases {
            let y = &dataset.labels[&case];
            let kept = select_features(&dataset.rows, y, cfg.selected_features, 0.95);
            if kept.is_empty() {
                continue;
            }
            let x: Vec<Vec<f64>> = dataset
                .rows
                .iter()
                .map(|r| kept.iter().map(|&j| r[j]).collect())
                .collect();
            let mut model = make(cfg.seed ^ case as u64);
            if model.fit(&x, y).is_ok() {
                cases.insert(case, (kept, model));
            }
        }
        let features = dataset
            .keys
            .iter()
            .cloned()
            .zip(dataset.rows.iter().cloned())
            .collect();
        RegressionModel {
            cfg,
            cases,
            features,
        }
    }

    fn nearest_case(&self, threads: u32) -> Option<u32> {
        self.cases
            .keys()
            .copied()
            .min_by_key(|&c| c.abs_diff(threads))
    }

    /// Registers feature rows for additional op keys (profiled with the same
    /// sample-case configuration). Used when the regressors were trained on
    /// *other* models' operations and must now direct a new model — the
    /// cross-workload generalization the paper finds the regression approach
    /// bad at.
    pub fn attach_features(&mut self, dataset: &RegressionDataset) {
        for (key, row) in dataset.keys.iter().zip(&dataset.rows) {
            self.features.insert(key.clone(), row.clone());
        }
    }
}

impl PerfModel for RegressionModel {
    fn predict(&self, key: &OpKey, threads: u32, _mode: SharingMode) -> Option<f64> {
        let row = self.features.get(key)?;
        let case = self.nearest_case(threads)?;
        let (kept, model) = &self.cases[&case];
        let x: Vec<f64> = kept.iter().map(|&j| row[j]).collect();
        Some(model.predict(&x).max(1e-9))
    }

    fn best(&self, key: &OpKey) -> Option<(u32, SharingMode, f64)> {
        let mut best: Option<(u32, SharingMode, f64)> = None;
        for &case in self.cases.keys() {
            let t = self.predict(key, case, SharingMode::Compact)?;
            if best.is_none_or(|b| t < b.2) {
                best = Some((case, SharingMode::Compact, t));
            }
        }
        best
    }

    fn candidates(&self, key: &OpKey, n: usize) -> Vec<(u32, SharingMode, f64)> {
        let mut all: Vec<(u32, SharingMode, f64)> = self
            .cases
            .keys()
            .filter_map(|&c| {
                self.predict(key, c, SharingMode::Compact)
                    .map(|t| (c, SharingMode::Compact, t))
            })
            .collect();
        all.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        all.truncate(n);
        let _ = &self.cfg;
        all
    }
}

#[cfg(test)]
mod tests {
    use super::regress::Ols;
    use super::*;
    use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};
    use nnrt_manycore::KnlCostModel;

    fn catalog(channels: &[usize]) -> OpCatalog {
        let mut g = DataflowGraph::new();
        for &c in channels {
            g.add(
                OpInstance::with_aux(
                    OpKind::Conv2D,
                    Shape::nhwc(16, 8, 8, c),
                    OpAux::conv(3, 1, c),
                ),
                &[],
            );
            g.add(
                OpInstance::with_aux(
                    OpKind::Conv2DBackpropFilter,
                    Shape::nhwc(16, 8, 8, c),
                    OpAux::conv(3, 1, c),
                ),
                &[],
            );
        }
        OpCatalog::new(&g)
    }

    fn small_cfg(n: usize) -> RegressionModelConfig {
        RegressionModelConfig {
            sample_cases: n,
            target_cases: vec![8, 24, 40, 56, 68],
            selected_features: 4,
            seed: 7,
        }
    }

    #[test]
    fn sample_points_are_even_and_bounded() {
        let cfg = small_cfg(4);
        let pts = cfg.sample_points(68);
        assert_eq!(pts.len(), 4);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert!(*pts.last().unwrap() <= 68);
        assert_eq!(small_cfg(1).sample_points(68), vec![34]);
    }

    #[test]
    fn dataset_shape_is_consistent() {
        let cat = catalog(&[64, 128, 256, 384]);
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 1);
        let cfg = small_cfg(2);
        let ds = build_dataset(&cat, &mut m, &cfg);
        assert_eq!(ds.rows.len(), cat.keys().len());
        assert_eq!(ds.rows[0].len(), 2 * counters::NUM_FEATURES);
        for case in &cfg.target_cases {
            assert_eq!(ds.labels[case].len(), ds.rows.len());
            assert_eq!(ds.truth[case].len(), ds.rows.len());
        }
    }

    #[test]
    fn evaluation_produces_imperfect_accuracy() {
        // The point of Table IV: counter-based regression does not reach the
        // hill climber's 95%+.
        let train = {
            let cat = catalog(&[32, 64, 96, 160, 256, 320, 512, 768]);
            let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 2);
            build_dataset(&cat, &mut m, &small_cfg(4))
        };
        let test = {
            let cat = catalog(&[128, 384, 640]);
            let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 3);
            build_dataset(&cat, &mut m, &small_cfg(4))
        };
        let cfg = small_cfg(4);
        let (acc, _r2) = evaluate_regressor(
            &train,
            &test,
            &|_| Box::new(Ols::new()) as Box<dyn Regressor>,
            &cfg,
        );
        assert!(
            acc < 0.93,
            "regression accuracy should be visibly below the hill climber, got {acc:.3}"
        );
    }

    #[test]
    fn regression_perfmodel_predicts_positive_times() {
        let cat = catalog(&[64, 128, 256]);
        let mut m = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 4);
        let cfg = small_cfg(2);
        let ds = build_dataset(&cat, &mut m, &cfg);
        let model = RegressionModel::fit(&ds, &|_| Box::new(Ols::new()), cfg);
        for key in cat.keys() {
            let t = model.predict(key, 30, SharingMode::Compact).unwrap();
            assert!(t > 0.0);
            assert!(model.best(key).is_some());
            assert!(!model.candidates(key, 3).is_empty());
        }
        let missing = (OpKind::Mul, Shape::vec1(9));
        assert!(model.predict(&missing, 30, SharingMode::Compact).is_none());
    }
}
