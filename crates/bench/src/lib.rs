//! # nnrt-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Each `benches/*.rs` target (run via `cargo bench`)
//! prints the measured rows side-by-side with the paper's reference values
//! and appends a machine-readable JSON record under `experiments/`.
//!
//! The library half holds the shared pieces: an aligned-table printer, the
//! paper's reference numbers, the JSON record writer, model/runtime setup
//! helpers, and [`table4`] — the paper's rejected regression-model baseline
//! (simulated hardware counters and from-scratch regressors), which lives
//! here rather than in the runtime because only its two benches run it.

#![warn(missing_docs)]

pub mod paper;
pub mod record;
pub mod setup;
pub mod table;
pub mod table4;

pub use record::ExperimentRecord;
pub use table::Table;
