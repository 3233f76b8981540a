//! CART regression tree with variance-reduction splits and feature
//! importances (the basis of both the gradient-boosting model and the
//! paper's decision-tree feature selection).

use super::{check_xy, RegressError, Regressor};

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples: usize,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

impl DecisionTree {
    /// A tree limited to `max_depth` levels and `min_samples` per leaf split.
    pub fn new(max_depth: usize, min_samples: usize) -> Self {
        DecisionTree {
            max_depth,
            min_samples: min_samples.max(2),
            nodes: Vec::new(),
            importances: Vec::new(),
        }
    }

    /// Normalized variance-reduction importance per feature (sums to 1 when
    /// the tree has at least one split). Empty before fitting.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Fit on (already validated) data, with per-sample weights implicit 1.
    pub(crate) fn fit_slices(&mut self, x: &[Vec<f64>], y: &[f64]) {
        let dim = x[0].len();
        self.nodes.clear();
        self.importances = vec![0.0; dim];
        let idx: Vec<usize> = (0..x.len()).collect();
        self.build(x, y, idx, 0);
        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for v in &mut self.importances {
                *v /= total;
            }
        }
    }

    fn build(&mut self, x: &[Vec<f64>], y: &[f64], idx: Vec<usize>, depth: usize) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        let sse: f64 = idx.iter().map(|&i| (y[i] - mean).powi(2)).sum();
        if depth >= self.max_depth || idx.len() < self.min_samples || sse < 1e-12 {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold, gain)) = best_split(x, y, &idx) else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| x[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        self.importances[feature] += gain;
        // Reserve our slot before recursing so children ids are known.
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = self.build(x, y, li, depth + 1);
        let right = self.build(x, y, ri, depth + 1);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let mut at = 0;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Finds the (feature, threshold) split maximizing variance reduction over
/// `idx`; returns the gain as well. `None` if no split improves.
fn best_split(x: &[Vec<f64>], y: &[f64], idx: &[usize]) -> Option<(usize, f64, f64)> {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
    let total_sse: f64 = {
        let mean = total_sum / n;
        idx.iter().map(|&i| (y[i] - mean).powi(2)).sum()
    };
    let dim = x[0].len();
    let mut best: Option<(usize, f64, f64)> = None;
    let mut order: Vec<usize> = idx.to_vec();
    #[allow(clippy::needless_range_loop)] // `f` indexes a column across two arrays
    for f in 0..dim {
        order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).unwrap());
        // Prefix sums over the sorted order allow O(n) threshold scanning.
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        let total_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
        for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
            left_sum += y[i];
            left_sq += y[i] * y[i];
            // Skip ties: cannot split between equal feature values.
            if x[i][f] == x[order[k + 1]][f] {
                continue;
            }
            let nl = (k + 1) as f64;
            let nr = n - nl;
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse_l = left_sq - left_sum * left_sum / nl;
            let sse_r = right_sq - right_sum * right_sum / nr;
            let gain = total_sse - sse_l - sse_r;
            let threshold = 0.5 * (x[i][f] + x[order[k + 1]][f]);
            if gain > best.map_or(1e-12, |b| b.2) {
                best = Some((f, threshold, gain));
            }
        }
    }
    best
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), RegressError> {
        check_xy(x, y)?;
        self.fit_slices(x, y);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.predict_one(x)
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_separable_step() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let mut t = DecisionTree::new(3, 2);
        t.fit(&x, &y).unwrap();
        assert!((t.predict(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[15.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        // y depends on feature 1 only; feature 0 is noise-like.
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![((i * 7) % 13) as f64, (i % 4) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[1] * 10.0).collect();
        let mut t = DecisionTree::new(4, 2);
        t.fit(&x, &y).unwrap();
        let imp = t.feature_importances();
        assert!(imp[1] > 0.9, "informative feature should dominate: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_is_respected() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut t = DecisionTree::new(1, 2);
        t.fit(&x, &y).unwrap();
        // One split => exactly 3 nodes.
        assert_eq!(t.nodes.len(), 3);
    }

    #[test]
    fn constant_target_gives_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 10];
        let mut t = DecisionTree::new(5, 2);
        t.fit(&x, &y).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert!((t.predict(&[100.0]) - 4.2).abs() < 1e-12);
    }
}
