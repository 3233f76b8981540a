//! # nnrt-serve
//!
//! A multi-tenant training-job service over the paper's runtime
//! (*"Runtime Concurrency Control and Operation Scheduling for High
//! Performance Neural Network Training"*, Liu et al., IPDPS 2019).
//!
//! The paper's runtime pays a per-model profiling phase — a hill-climb per
//! `(op kind, input shape)` key (§III-C) — before concurrency control and
//! scheduling can work. Run as a *service*, that cost is mostly redundant:
//! tenants submit the same model families over and over, and curves measured
//! on one machine are valid for every later job on an identical machine.
//! This crate exploits that:
//!
//! * [`ProfileStore`] — a concurrent, LRU-capped map from
//!   `(kind, shape, machine signature)` to measured hill-climb curves, with
//!   versioned JSON snapshot/restore (merge-on-load) for persistence across
//!   service restarts.
//! * [`JobSpec`] / [`AdmissionQueue`] — bounded priority + FIFO admission
//!   with typed rejection ([`AdmitError`]) when saturated.
//! * [`Fleet`] — placement of jobs onto simulated manycore nodes, a
//!   round-robin service loop on a simulated clock, and a [`FleetReport`]
//!   with per-job and fleet statistics (steps/sec, profiling steps saved by
//!   warm starts, queue latency, rejections) plus optional per-job Chrome
//!   traces.
//! * [`FaultPlan`] / [`Checkpoint`] — seeded, fully deterministic fault
//!   injection (node crashes, stragglers, store corruption, profiling-budget
//!   exhaustion) and the recovery machinery it exercises: lightweight
//!   checkpoint/restart with exponential-backoff re-admission, health-probe
//!   driven placement, and graceful degradation to the baseline thread plan.
//!
//! ```
//! use nnrt_serve::{Fleet, FleetConfig, JobSpec};
//!
//! let mut fleet = Fleet::new(FleetConfig::default());
//! let spec = |name: &str| JobSpec {
//!     name: name.to_string(),
//!     model: "dcgan".to_string(),
//!     graph: nnrt_models::dcgan(4).graph,
//!     steps: 2,
//!     priority: 0,
//!     weight: 1.0,
//! };
//! fleet.submit(spec("dcgan-0")).unwrap();
//! fleet.submit(spec("dcgan-1")).unwrap();
//! let report = fleet.run();
//! assert_eq!(report.jobs.len(), 2);
//! // The second dcgan job warm-started from the first one's curves.
//! assert!(report.profiling_steps_saved_total > 0);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod fleet;
pub mod job;
pub mod journal;
pub mod store;

pub use chaos::{FaultEvent, FaultPlan, INITIAL_BACKOFF_SECS, MAX_BACKOFF_SECS};
pub use fleet::{
    Checkpoint, DurabilityConfig, Fleet, FleetConfig, FleetReport, JobPhase, JobReport, JobStatus,
    NodeBackend, PriorCompleted, RecoverError, RecoveryReport, DEFAULT_FLUSH_INTERVAL_SECS,
};
pub use job::{AdmissionQueue, AdmitError, JobId, JobSpec, QueuedJob};
pub use journal::{
    decode_record, encode_record, replay, write_atomic, Journal, JournalRecord, RecordError,
    Replay, JOURNAL_FILE, JOURNAL_FORMAT, JOURNAL_VERSION, MAX_RECORD_LEN, SNAPSHOT_FILE,
};
pub use store::{
    ProfileStore, StoreError, StoreStats, DEFAULT_CAPACITY, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
