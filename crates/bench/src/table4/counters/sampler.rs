//! Deriving event counts from a work profile, with measurement noise.

use super::events::{PerfEvent, NUM_EVENTS};
use nnrt_manycore::{NoiseModel, WorkProfile};
use rand::Rng;

/// Observed counts for all 26 events during one measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct EventCounts {
    /// Counts indexed by [`PerfEvent::ALL`] order.
    pub counts: [f64; NUM_EVENTS],
    /// The measured (noisy) execution time of the run, seconds.
    pub time: f64,
}

impl EventCounts {
    /// Count of one event.
    pub fn get(&self, e: PerfEvent) -> f64 {
        self.counts[e.index()]
    }
}

const FREQ_HZ: f64 = 1.4e9; // KNL core clock

/// Derives the (noisy) event counts of running `profile` with `threads`
/// threads for a true duration of `true_secs`.
///
/// The deterministic part follows counter physics: cycles scale with time ×
/// active cores, memory events with bytes moved, arithmetic events with
/// flops. The noise is multiplicative with a sigma that grows as the
/// measured duration shrinks — the mechanism the paper blames for its
/// regression models' inaccuracy.
pub fn sample_counts<R: Rng + ?Sized>(
    profile: &WorkProfile,
    threads: u32,
    true_secs: f64,
    noise: &NoiseModel,
    rng: &mut R,
) -> EventCounts {
    debug_assert!(profile.validate().is_ok());
    let cache_lines = profile.bytes / 64.0;
    // Vector instructions retire ~16 f32 lanes with FMA pairing.
    let vector_instr = profile.flops / 24.0;
    // Scalar bookkeeping: loop control, address generation, prologue.
    let scalar_instr = vector_instr * 0.8 + cache_lines * 2.0 + 5e3;
    let instructions = vector_instr + scalar_instr;

    let cycles = true_secs * FREQ_HZ * threads.min(68) as f64;
    let llc_refs = cache_lines * (0.25 + 0.75 * profile.mem_intensity);
    let llc_misses = llc_refs * (0.15 + 0.8 * profile.mem_intensity);
    let l1_hits = instructions * (0.55 - 0.25 * profile.cache_pressure).max(0.05);
    let l1_misses = cache_lines * (0.8 + 0.6 * profile.cache_pressure);
    let l2_hits = l1_misses * (1.0 - 0.5 * profile.mem_intensity);
    let l2_misses = l1_misses - l2_hits;
    let branches = instructions * 0.09;
    // Deliberately ~duplicated feature (the paper: "the number of branch
    // instructions and number of conditional branch instructions are
    // correlated and redundant").
    let cond_branches = branches * 0.93;
    let branch_misses = branches * 0.015;
    let dtlb = cache_lines * 0.002;
    let itlb = instructions * 1e-6;
    let stalled_fe = cycles * 0.08;
    let stalled_be = cycles * (0.1 + 0.5 * profile.mem_intensity);
    let bus_cycles = cycles * 0.12;
    let ref_cycles = cycles * 0.98;
    let mem_loads = cache_lines * 0.65;
    let mem_stores = cache_lines * 0.35;
    let prefetch_hits = cache_lines * 0.4 * (1.0 - profile.cache_pressure * 0.5);
    let prefetch_misses = cache_lines * 0.1;
    let fp_ops = profile.flops;
    let page_faults = (profile.bytes / 2.0e6).max(1.0);
    let ctx_switches = (true_secs / 4e-3).max(0.0) * threads as f64;
    let uncore = llc_misses * 1.05;

    let ideal: [f64; NUM_EVENTS] = [
        cycles,
        instructions,
        llc_refs,
        llc_misses,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        branches,
        cond_branches,
        branch_misses,
        dtlb,
        itlb,
        stalled_fe,
        stalled_be,
        bus_cycles,
        ref_cycles,
        mem_loads,
        mem_stores,
        prefetch_hits,
        prefetch_misses,
        vector_instr,
        fp_ops,
        page_faults,
        ctx_switches,
        uncore,
    ];

    // Counter multiplexing and sampling error: every event is observed with
    // a relative error determined by how *long* the run was — short runs
    // multiplex badly and sample coarsely. Counters are noisier than plain
    // timing, hence the 3x on the timing sigma.
    let sigma = 3.0 * noise.sigma(true_secs);
    let mut counts = [0.0; NUM_EVENTS];
    for (slot, &v) in counts.iter_mut().zip(&ideal) {
        let eps = if sigma == 0.0 {
            0.0
        } else {
            (nnrt_manycore::noise::standard_normal(rng) * sigma).max(-0.95)
        };
        *slot = (v.max(1.0) * (1.0 + eps)).round().max(0.0);
    }
    let time = noise.observe(true_secs, rng);
    EventCounts { counts, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn profile() -> WorkProfile {
        WorkProfile::compute_bound(5.0e9)
    }

    #[test]
    fn counts_scale_with_work() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let small = sample_counts(
            &WorkProfile::compute_bound(1e8),
            16,
            1e-3,
            &NoiseModel::none(),
            &mut rng,
        );
        let large = sample_counts(
            &WorkProfile::compute_bound(1e10),
            16,
            0.1,
            &NoiseModel::none(),
            &mut rng,
        );
        assert!(large.get(PerfEvent::FpOperations) > small.get(PerfEvent::FpOperations) * 50.0);
        assert!(large.get(PerfEvent::CpuCycles) > small.get(PerfEvent::CpuCycles) * 50.0);
    }

    #[test]
    fn branch_events_are_correlated() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let c = sample_counts(&profile(), 32, 0.01, &NoiseModel::none(), &mut rng);
        let ratio = c.get(PerfEvent::ConditionalBranches) / c.get(PerfEvent::BranchInstructions);
        assert!((ratio - 0.93).abs() < 0.01, "got {ratio}");
    }

    #[test]
    fn short_runs_are_noisier() {
        let noise = NoiseModel::default();
        let relative_spread = |secs: f64| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let vals: Vec<f64> = (0..300)
                .map(|_| {
                    sample_counts(&profile(), 32, secs, &noise, &mut rng).get(PerfEvent::LlcMisses)
                })
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            relative_spread(20e-6) > 2.0 * relative_spread(0.1),
            "short measurements must be markedly noisier"
        );
    }

    #[test]
    fn deterministic_without_noise() {
        let mut r1 = ChaCha8Rng::seed_from_u64(4);
        let mut r2 = ChaCha8Rng::seed_from_u64(99);
        let a = sample_counts(&profile(), 16, 0.01, &NoiseModel::none(), &mut r1);
        let b = sample_counts(&profile(), 16, 0.01, &NoiseModel::none(), &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn all_counts_nonnegative() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let c = sample_counts(&profile(), 4, 5e-6, &NoiseModel::default(), &mut rng);
            assert!(c.counts.iter().all(|&v| v >= 0.0));
            assert!(c.time > 0.0);
        }
    }
}
