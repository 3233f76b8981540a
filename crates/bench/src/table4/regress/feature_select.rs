//! Decision-tree feature selection (§III-B of the paper).
//!
//! The paper reduces 27 candidate features (26 hardware events + execution
//! time, normalized by instruction count) to four, using a decision-tree
//! estimator and dropping features that are "not informative, discriminating
//! and independent". We reproduce that: rank by tree importance, then greedily
//! keep features whose absolute Pearson correlation with every
//! already-selected feature stays below a threshold.

use super::tree::DecisionTree;
use super::Regressor;

/// Pearson correlation of two equally long slices; 0 when degenerate.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if a.is_empty() {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 1e-24 || vb <= 1e-24 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Selects up to `k` feature indices by decision-tree importance with a
/// redundancy filter (`|corr| < max_corr` against all already-kept features).
pub fn select_features(x: &[Vec<f64>], y: &[f64], k: usize, max_corr: f64) -> Vec<usize> {
    if x.is_empty() || k == 0 {
        return Vec::new();
    }
    let dim = x[0].len();
    let mut tree = DecisionTree::new(6, 4);
    if tree.fit(x, y).is_err() {
        return Vec::new();
    }
    let importances = tree.feature_importances().to_vec();
    let mut ranked: Vec<usize> = (0..dim).collect();
    ranked.sort_by(|&a, &b| importances[b].partial_cmp(&importances[a]).unwrap());

    let column = |j: usize| -> Vec<f64> { x.iter().map(|r| r[j]).collect() };
    let mut kept: Vec<usize> = Vec::new();
    for j in ranked {
        if kept.len() >= k {
            break;
        }
        if importances[j] <= 0.0 && !kept.is_empty() {
            break; // the rest are uninformative
        }
        let cj = column(j);
        let redundant = kept
            .iter()
            .any(|&s| pearson(&cj, &column(s)).abs() >= max_corr);
        if !redundant {
            kept.push(j);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_informative_and_drops_redundant() {
        // f0 drives y; f1 = 2*f0 (redundant); f2 independent second driver;
        // f3 pure noise-ish.
        let x: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let a = (i % 10) as f64;
                let c = ((i * 13) % 7) as f64;
                let noise = ((i * 29) % 11) as f64;
                vec![a, 2.0 * a, c, noise]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 10.0 * r[0] + 3.0 * r[2]).collect();
        let kept = select_features(&x, &y, 2, 0.9);
        assert_eq!(kept.len(), 2);
        assert!(
            kept.contains(&0) || kept.contains(&1),
            "a driver must be kept"
        );
        assert!(
            !(kept.contains(&0) && kept.contains(&1)),
            "the duplicated feature must be filtered: {kept:?}"
        );
        assert!(
            kept.contains(&2),
            "the independent driver must be kept: {kept:?}"
        );
    }

    #[test]
    fn pearson_basics() {
        let a = [1.0, 2.0, 3.0];
        assert!((pearson(&a, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn empty_and_zero_k() {
        assert!(select_features(&[], &[], 3, 0.9).is_empty());
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![1.0, 2.0];
        assert!(select_features(&x, &y, 0, 0.9).is_empty());
    }
}
