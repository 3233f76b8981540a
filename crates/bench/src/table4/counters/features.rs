//! Feature vectors for the regression performance models.
//!
//! Per the paper (§III-B): the 26 event counts are normalized by the total
//! instruction count "to make the feature values independent of total number
//! of instructions", and the (noisy) measured execution time is the 27th
//! feature.

use super::events::{PerfEvent, NUM_EVENTS};
use super::sampler::EventCounts;

/// Total number of model features (26 normalized events + execution time).
pub const NUM_FEATURES: usize = NUM_EVENTS + 1;

/// Builds the feature vector from one observation.
pub fn feature_vector(counts: &EventCounts) -> Vec<f64> {
    let instructions = counts.get(PerfEvent::Instructions).max(1.0);
    let mut v: Vec<f64> = counts.counts.iter().map(|&c| c / instructions).collect();
    v.push(counts.time);
    debug_assert_eq!(v.len(), NUM_FEATURES);
    v
}

/// Names of the features, for reports.
pub fn feature_names() -> Vec<String> {
    let mut v: Vec<String> = PerfEvent::ALL
        .iter()
        .map(|e| format!("{e:?}/instr"))
        .collect();
    v.push("exec_time".to_string());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_manycore::{NoiseModel, WorkProfile};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn feature_vector_shape_and_normalization() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let counts = crate::table4::counters::sample_counts(
            &WorkProfile::compute_bound(1e9),
            16,
            0.01,
            &NoiseModel::none(),
            &mut rng,
        );
        let f = feature_vector(&counts);
        assert_eq!(f.len(), NUM_FEATURES);
        // The instructions feature normalizes to exactly 1.
        assert!((f[PerfEvent::Instructions.index()] - 1.0).abs() < 1e-12);
        assert_eq!(f[NUM_FEATURES - 1], counts.time);
    }

    #[test]
    fn names_match_feature_count() {
        assert_eq!(feature_names().len(), NUM_FEATURES);
    }
}
