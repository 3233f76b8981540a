//! Simulated hardware performance-event counters.
//!
//! The paper's first (rejected) performance model collects 26 hardware events
//! plus the execution time, normalizes them by the instruction count, selects
//! four features with a decision tree, and trains regression models — which
//! fail with 14–67% accuracy (Table IV) because *counting events over short
//! operations is inaccurate*. This module reproduces that physics: counts are
//! derived deterministically from an operation's [`WorkProfile`](nnrt_manycore::WorkProfile) and then
//! perturbed with multiplicative noise whose magnitude grows as the measured
//! duration shrinks (`nnrt_manycore::NoiseModel`).
//!
//! Deliberate feature pathologies from the paper are present:
//! * correlated events (branch vs. conditional-branch counts) that feature
//!   selection must filter;
//! * events that cannot all be collected at once — [`EVENT_GROUPS`] partitions
//!   them into four mutually exclusive counter groups, so one profiling step
//!   can observe only one group (the paper: "We need at least four training
//!   steps to collect those events separately").

pub mod events;
pub mod features;
pub mod sampler;

pub use events::{PerfEvent, EVENT_GROUPS, NUM_EVENTS};
pub use features::{feature_names, feature_vector, NUM_FEATURES};
pub use sampler::{sample_counts, EventCounts};
