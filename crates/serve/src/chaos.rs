//! Deterministic fault injection for the fleet.
//!
//! A production scheduler's interesting behaviour is what it does when the
//! world misbehaves: nodes die mid-step, run mysteriously slow, the shared
//! profile store loses entries, and profiling itself runs out of budget.
//! [`FaultPlan`] scripts exactly those events against the *simulated* clock,
//! so every failure scenario is reproducible bit-for-bit from a seed: the
//! same plan against the same workload yields the same [`crate::FleetReport`]
//! JSON, every time. An empty plan injects nothing and leaves the fleet's
//! behaviour byte-identical to a run without chaos.
//!
//! The plan is data, not callbacks — it serializes, diffs, and can be
//! generated from a seed ([`FaultPlan::from_seed`]) or hand-written by a
//! test that wants one precise failure.

use serde::Serialize;

/// Initial re-admission backoff after a crash evicts a job, seconds.
pub const INITIAL_BACKOFF_SECS: f64 = 1.0;
/// Re-admission backoff ceiling, seconds.
pub const MAX_BACKOFF_SECS: f64 = 64.0;

/// One scripted fault, scheduled against the simulated fleet clock.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultEvent {
    /// The node dies at `at`: resident jobs are evicted (to be restored from
    /// their checkpoints on surviving nodes) and the node takes no work for
    /// `down_secs`.
    NodeCrash {
        /// Index of the node that crashes.
        node: u32,
        /// Simulated time of the crash, seconds.
        at: f64,
        /// How long the node stays down, seconds.
        down_secs: f64,
    },
    /// The node turns into a straggler at `at`: every step it executes until
    /// `at + duration_secs` takes `factor`× its nominal time. Resident jobs
    /// keep running (slowly); the health probe is what should notice.
    NodeSlowdown {
        /// Index of the straggling node.
        node: u32,
        /// Simulated onset time, seconds.
        at: f64,
        /// Step-time multiplier (&gt; 1 slows the node down).
        factor: f64,
        /// How long the slowdown lasts, seconds.
        duration_secs: f64,
    },
    /// Transient profile-store corruption at `at`: a deterministic
    /// `drop_fraction` of the store's entries vanish, as if a snapshot
    /// restore lost part of its payload. Jobs whose checkpoints point at the
    /// lost curves must re-profile (and may blow their profiling budget).
    StoreCorruption {
        /// Simulated time of the corruption, seconds.
        at: f64,
        /// Fraction of entries to drop, clamped to `[0, 1]`.
        drop_fraction: f64,
    },
}

impl FaultEvent {
    /// The simulated time at which the event fires.
    pub fn at(&self) -> f64 {
        match self {
            FaultEvent::NodeCrash { at, .. }
            | FaultEvent::NodeSlowdown { at, .. }
            | FaultEvent::StoreCorruption { at, .. } => *at,
        }
    }
}

/// A scripted, seeded set of faults plus the profiling budget they stress.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// The scripted events (the fleet fires them in time order).
    pub events: Vec<FaultEvent>,
    /// Per-job profiling budget in simulated training steps, cumulative
    /// across re-admissions. Keys that cannot be climbed within the budget
    /// degrade to the TF-guide baseline plan instead of erroring. `None`
    /// means unlimited (the fault-free default).
    pub profiling_step_budget: Option<u32>,
    /// Seed for the deterministic parts of fault execution (store-corruption
    /// victim selection).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64 finalizer: the deterministic "randomness" behind seeded plans
/// and corruption victim selection (no RNG dependency, stable forever).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `[0, 1)` derived from `(seed, stream)`.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix64(seed ^ mix64(stream)) >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// The fault-free plan: no events, unlimited profiling budget. Running
    /// a fleet under this plan is byte-identical to running without chaos.
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            profiling_step_budget: None,
            seed: 0,
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_fault_free(&self) -> bool {
        self.events.is_empty() && self.profiling_step_budget.is_none()
    }

    /// A representative chaos scenario generated deterministically from
    /// `seed`, scaled to a fleet of `nodes` nodes and a run expected to last
    /// roughly `horizon_secs`: one node crash mid-run, one straggler window,
    /// one store corruption, and a finite per-job profiling budget. The same
    /// `(seed, nodes, horizon)` always yields the same plan.
    pub fn from_seed(seed: u64, nodes: u32, horizon_secs: f64) -> Self {
        let nodes = nodes.max(1);
        let crash_node = (mix64(seed ^ 0xC4A5) % nodes as u64) as u32;
        let slow_node = if nodes > 1 {
            (crash_node + 1 + (mix64(seed ^ 0x510) % (nodes as u64 - 1)) as u32) % nodes
        } else {
            0
        };
        let h = horizon_secs.max(1.0);
        // Early-ish windows: cold profiling bills the first chunk of every
        // node's clock atomically, so faults landing in the last half of the
        // horizon tend to find the fleet already drained.
        let events = vec![
            FaultEvent::NodeSlowdown {
                node: slow_node,
                at: (0.10 + 0.10 * unit(seed, 1)) * h,
                factor: 2.0 + 2.0 * unit(seed, 2),
                duration_secs: (0.25 + 0.25 * unit(seed, 3)) * h,
            },
            FaultEvent::StoreCorruption {
                at: (0.15 + 0.10 * unit(seed, 4)) * h,
                drop_fraction: 0.5 + 0.4 * unit(seed, 5),
            },
            // The crash goes late: each admission bills its whole profiling
            // phase to the node clock up front, so a node only has steps
            // (and therefore checkpoints) to lose in the back half.
            FaultEvent::NodeCrash {
                node: crash_node,
                at: (0.72 + 0.18 * unit(seed, 6)) * h,
                down_secs: (0.10 + 0.10 * unit(seed, 7)) * h,
            },
        ];
        FaultPlan {
            events,
            // Enough for one cold profile (the default hill-climb needs at
            // most 2·(1 + 68/4) = 36 steps), but not for a second one after
            // a corrupted restore — which is exactly the degradation the
            // chaos suite wants to exercise.
            profiling_step_budget: Some(40),
            seed,
        }
    }

    /// Sorts the events by firing time (stable: script order breaks ties).
    pub(crate) fn sort_events(&mut self) {
        self.events
            .sort_by(|a, b| a.at().partial_cmp(&b.at()).expect("finite event times"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::from_seed(7, 2, 40.0);
        let b = FaultPlan::from_seed(7, 2, 40.0);
        assert_eq!(a, b);
        let c = FaultPlan::from_seed(8, 2, 40.0);
        assert_ne!(a, c, "a different seed must move the events");
        assert_eq!(a.events.len(), 3);
        assert!(!a.is_fault_free());
    }

    #[test]
    fn generated_events_land_inside_the_horizon() {
        for seed in 0..50u64 {
            let plan = FaultPlan::from_seed(seed, 3, 100.0);
            for e in &plan.events {
                assert!(e.at() > 0.0 && e.at() < 100.0, "{e:?} out of horizon");
            }
            for e in &plan.events {
                if let FaultEvent::NodeCrash { node, .. } | FaultEvent::NodeSlowdown { node, .. } =
                    e
                {
                    assert!(*node < 3);
                }
            }
        }
    }

    #[test]
    fn none_is_fault_free_and_sorts_stably() {
        assert!(FaultPlan::none().is_fault_free());
        let mut plan = FaultPlan {
            events: vec![
                FaultEvent::StoreCorruption {
                    at: 9.0,
                    drop_fraction: 0.5,
                },
                FaultEvent::NodeCrash {
                    node: 0,
                    at: 3.0,
                    down_secs: 1.0,
                },
            ],
            profiling_step_budget: None,
            seed: 0,
        };
        plan.sort_events();
        assert_eq!(plan.events[0].at(), 3.0);
        assert_eq!(plan.events[1].at(), 9.0);
    }
}
