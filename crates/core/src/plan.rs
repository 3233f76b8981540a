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
//!
//! `planned` applies these rules once, when the runtime is prepared: its
//! result is the planned column of the runtime's schedule table (see
//! [`crate::scheduler`]), from which Strategies 3–4 work.

use crate::runtime::RuntimeConfig;
use nnrt_graph::{OpKey, OpKind};
use nnrt_manycore::SharingMode;

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

/// The planned `(threads, mode)` of each of `keys`, in order: the column
/// of the runtime's schedule table that Strategies 1–2 fill.
///
/// Without `config.s1` every key runs at the framework default
/// `(default_intra, Compact)`; with `s1` alone each tunable key takes the
/// model's optimum for it; with `s1` and `s2` each tunable kind takes the
/// optimum of its largest-input instance (ties go to the first in `keys`).
/// Non-tunable keys, and keys the model never saw, keep the default.
pub(crate) fn planned(
    model: &dyn PerfModel,
    keys: &[OpKey],
    config: &RuntimeConfig,
    default_intra: u32,
) -> Vec<(u32, SharingMode)> {
    let default = (default_intra, SharingMode::Compact);
    let plan = |best: Option<(u32, SharingMode, f64)>| best.map_or(default, |(t, m, _)| (t, m));
    if !config.s1 {
        return vec![default; keys.len()];
    }
    if !config.s2 {
        return keys
            .iter()
            .map(|key| plan(key.0.is_tunable().then(|| model.best(key)).flatten()))
            .collect();
    }
    // Strategy 2: the largest-input instance of each tunable kind, indexed
    // by `OpKind as usize`.
    let mut largest: [Option<&OpKey>; OpKind::ALL.len()] = [None; OpKind::ALL.len()];
    for key in keys.iter().filter(|key| key.0.is_tunable()) {
        let slot = &mut largest[key.0 as usize];
        if slot.is_none_or(|l| key.1.elements() > l.1.elements()) {
            *slot = Some(key);
        }
    }
    let per_kind = largest.map(|key| plan(key.and_then(|key| model.best(key))));
    keys.iter().map(|key| per_kind[key.0 as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::Shape;
    use std::collections::HashMap;

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

    fn plan(s1: bool, s2: bool, default_intra: u32) -> Vec<(u32, SharingMode)> {
        let config = RuntimeConfig {
            s1,
            s2,
            ..Default::default()
        };
        planned(&fake(), &keys(), &config, default_intra)
    }

    #[test]
    fn per_shape_uses_each_keys_optimum() {
        let plan = plan(true, false, 68);
        assert_eq!(plan[0].0, 26);
        assert_eq!(plan[1].0, 68);
    }

    #[test]
    fn per_kind_largest_unifies_thread_counts() {
        let plan = plan(true, true, 68);
        // The (32,8,8,2048) instance is the largest Conv2D: its optimum (68)
        // applies to both Conv2D keys.
        assert_eq!(plan[0].0, 68);
        assert_eq!(plan[1].0, 68);
    }

    #[test]
    fn non_tunable_kinds_stay_default() {
        // Tile is an Eigen op: never re-planned.
        assert_eq!(plan(true, false, 68)[2], (68, SharingMode::Compact));
        assert_eq!(plan(true, true, 68)[2], (68, SharingMode::Compact));
    }

    #[test]
    fn without_strategy_1_nothing_is_planned() {
        for s2 in [false, true] {
            assert_eq!(plan(false, s2, 34), vec![(34, SharingMode::Compact); 3]);
        }
    }
}
