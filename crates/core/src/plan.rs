//! Strategies 1 & 2: per-operation intra-op parallelism.
//!
//! * **Strategy 1** — every `(kind, shape)` key runs with the thread count
//!   the performance model found fastest for *that key*.
//! * **Strategy 2** — avoid frequent concurrency changes: all instances of an
//!   op *kind* use one thread count, the one that is optimal for the kind's
//!   largest-input instance (its most time-consuming one).
//!
//! Non-tunable (Eigen) kinds always use the framework default (the paper only
//! re-configures MKL-DNN ops).

use nnrt_graph::{OpKey, OpKind};
use nnrt_manycore::SharingMode;
use std::collections::HashMap;

/// A fitted performance model: predicts standalone execution time of an op
/// key under any thread count and sharing mode.
pub trait PerfModel {
    /// Predicted time, or `None` for keys the model never saw.
    fn predict(&self, key: &OpKey, threads: u32, mode: SharingMode) -> Option<f64>;

    /// The fastest `(threads, mode, predicted time)` for a key.
    fn best(&self, key: &OpKey) -> Option<(u32, SharingMode, f64)>;

    /// The `n` most performant *sampled* configurations for a key (used as
    /// Strategy 3's co-run candidates; the paper uses n = 3).
    fn candidates(&self, key: &OpKey, n: usize) -> Vec<(u32, SharingMode, f64)>;
}

/// Which concurrency-control strategy set is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPolicy {
    /// Framework default: every op uses the user-set intra-op parallelism.
    Default,
    /// Strategy 1 alone: per-(kind, shape) optima.
    PerShape,
    /// Strategies 1+2: one thread count per kind, from its largest instance.
    PerKindLargest,
}

/// The planned `(threads, mode)` for every key of a graph.
#[derive(Debug, Clone)]
pub struct ThreadPlan {
    assignments: HashMap<OpKey, (u32, SharingMode, f64)>,
    default_intra: u32,
    policy: PlanPolicy,
}

impl ThreadPlan {
    /// Builds a plan for `keys` under `policy` using the fitted `model`.
    /// `default_intra` is the framework setting for unplanned keys.
    pub fn build(
        model: &dyn PerfModel,
        keys: &[OpKey],
        policy: PlanPolicy,
        default_intra: u32,
    ) -> Self {
        let mut assignments = HashMap::new();
        match policy {
            PlanPolicy::Default => {}
            PlanPolicy::PerShape => {
                for key in keys {
                    if !key.0.is_tunable() {
                        continue;
                    }
                    if let Some(best) = model.best(key) {
                        assignments.insert(key.clone(), best);
                    }
                }
            }
            PlanPolicy::PerKindLargest => {
                // Largest-input instance per kind.
                let mut largest: HashMap<OpKind, &OpKey> = HashMap::new();
                for key in keys {
                    if !key.0.is_tunable() {
                        continue;
                    }
                    let e = largest.entry(key.0).or_insert(key);
                    if key.1.elements() > e.1.elements() {
                        *e = key;
                    }
                }
                let kind_best: HashMap<OpKind, (u32, SharingMode, f64)> = largest
                    .iter()
                    .filter_map(|(&kind, key)| model.best(key).map(|b| (kind, b)))
                    .collect();
                for key in keys {
                    if let Some(&(threads, mode, _)) = kind_best.get(&key.0) {
                        // The per-key predicted time still comes from the
                        // model so Strategy 3 reasons about *this* shape.
                        let t = model.predict(key, threads, mode).unwrap_or(f64::INFINITY);
                        assignments.insert(key.clone(), (threads, mode, t));
                    }
                }
            }
        }
        ThreadPlan {
            assignments,
            default_intra,
            policy,
        }
    }

    /// The policy this plan was built under.
    pub fn policy(&self) -> PlanPolicy {
        self.policy
    }

    /// Planned `(threads, mode)` for a key (framework default for unplanned
    /// or non-tunable keys).
    pub fn threads_for(&self, key: &OpKey) -> (u32, SharingMode) {
        match self.assignments.get(key) {
            Some(&(threads, mode, _)) => (threads, mode),
            None => (self.default_intra, SharingMode::Compact),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::Shape;

    /// A fake model with a fixed optimum per key.
    struct Fake(HashMap<OpKey, (u32, SharingMode, f64)>);

    impl PerfModel for Fake {
        fn predict(&self, key: &OpKey, threads: u32, _mode: SharingMode) -> Option<f64> {
            self.0
                .get(key)
                .map(|&(best, _, t)| t * (1.0 + 0.02 * (threads as f64 - best as f64).abs()))
        }
        fn best(&self, key: &OpKey) -> Option<(u32, SharingMode, f64)> {
            self.0.get(key).copied()
        }
        fn candidates(&self, key: &OpKey, n: usize) -> Vec<(u32, SharingMode, f64)> {
            self.best(key).into_iter().take(n).collect()
        }
    }

    fn keys() -> Vec<OpKey> {
        vec![
            (OpKind::Conv2D, Shape::nhwc(32, 8, 8, 384)),
            (OpKind::Conv2D, Shape::nhwc(32, 8, 8, 2048)),
            (OpKind::Tile, Shape::vec1(1000)),
        ]
    }

    fn fake() -> Fake {
        let mut m = HashMap::new();
        m.insert(keys()[0].clone(), (26u32, SharingMode::Compact, 0.007));
        m.insert(keys()[1].clone(), (68u32, SharingMode::Compact, 0.020));
        m.insert(keys()[2].clone(), (10u32, SharingMode::Scatter, 0.001));
        Fake(m)
    }

    #[test]
    fn per_shape_uses_each_keys_optimum() {
        let plan = ThreadPlan::build(&fake(), &keys(), PlanPolicy::PerShape, 68);
        assert_eq!(plan.threads_for(&keys()[0]).0, 26);
        assert_eq!(plan.threads_for(&keys()[1]).0, 68);
    }

    #[test]
    fn per_kind_largest_unifies_thread_counts() {
        let plan = ThreadPlan::build(&fake(), &keys(), PlanPolicy::PerKindLargest, 68);
        // The (32,8,8,2048) instance is the largest Conv2D: its optimum (68)
        // applies to both Conv2D keys.
        assert_eq!(plan.threads_for(&keys()[0]).0, 68);
        assert_eq!(plan.threads_for(&keys()[1]).0, 68);
    }

    #[test]
    fn non_tunable_kinds_stay_default() {
        let plan = ThreadPlan::build(&fake(), &keys(), PlanPolicy::PerShape, 68);
        // Tile is an Eigen op: never re-planned.
        assert_eq!(plan.threads_for(&keys()[2]), (68, SharingMode::Compact));
    }

    #[test]
    fn default_policy_plans_nothing() {
        let plan = ThreadPlan::build(&fake(), &keys(), PlanPolicy::Default, 34);
        for k in keys() {
            assert_eq!(plan.threads_for(&k), (34, SharingMode::Compact));
        }
        assert_eq!(plan.policy(), PlanPolicy::Default);
    }
}
