//! # nnrt-sched
//!
//! The paper's primary contribution: automatic **concurrency control** (how
//! many threads each operation gets) and **operation scheduling** (which
//! ready operations co-run, and where) for dataflow-based NN training on a
//! manycore processor.
//!
//! The pieces, mirroring §III of the paper:
//!
//! * [`measure`] — the dynamic-profiling harness: runs an operation standalone
//!   with a chosen thread count / affinity and returns a *noisy* measured
//!   time (profiling steps of real training are noisy; short ops more so).
//! * [`hillclimb`] — the adopted performance model: a hill-climbing search
//!   with stride `x` per `(op kind, input shape)` plus linear interpolation
//!   over the sampled curve (§III-C, Table V).
//! * [`plan`] — Strategies 1–2: per-op thread counts, stabilized per kind by
//!   the largest-input rule.
//! * [`scheduler`] — Strategies 3–4: co-running into idle cores without
//!   hurting throughput, and hyper-thread co-runs under full-width ops.
//! * [`runtime`] — the full runtime: profile for a few steps, then execute
//!   training steps under the strategies; produces [`StepReport`]s.
//! * [`tf_baseline`] — the TensorFlow-style executor (FIFO, uniform
//!   inter-/intra-op parallelism) used as the paper's baseline, including the
//!   "recommendation" configuration (inter=1, intra=68) and exhaustive
//!   manual tuning.
//! * [`trace`] — co-running statistics from engine traces (Figure 4).

#![warn(missing_docs)]

pub mod exec;
pub mod feedback;
pub mod hillclimb;
pub mod measure;
pub mod oracle;
pub mod plan;
pub mod profiler;
pub mod runtime;
pub mod scheduler;
pub mod tf_baseline;
pub mod trace;

pub use feedback::InterferenceLog;
pub use hillclimb::{ClimbRecord, Curve, FitOutcome, HillClimbConfig, HillClimbModel, KeyProfile};
pub use measure::{per_key_seed, Measurer, OpCatalog};
pub use oracle::OracleScheduler;
pub use plan::PerfModel;
pub use profiler::ProfilerPool;
pub use runtime::{Runtime, RuntimeConfig, StepReport};
pub use tf_baseline::{manual_optimization, TfExecutor, TfExecutorConfig};
pub use trace::{export_chrome_trace, export_lane_chrome_trace, CorunStats};
