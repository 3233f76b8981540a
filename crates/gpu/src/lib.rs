//! # nnrt-gpu
//!
//! The GPU stream-scheduling backend: an occupancy-level simulator of an
//! Nvidia Tesla P100 (56 SMs, 3584 FP32 cores, 4 MB L2, HBM2), a 2-D
//! launch-config hill climber, and a discrete-event multi-stream runtime
//! that executes whole training-step graphs from `nnrt-models`.
//!
//! The paper studies two things on GPU (Section VII):
//!
//! * **Intra-op parallelism** (Figure 5): execution time of `BiasAdd` and
//!   `MaxPooling` as the threads-per-block and thread-block counts vary —
//!   up to 18% and 11% away from TensorFlow's defaults (1024 threads/block,
//!   56 blocks). [`GpuProfile`] runs the proposed `O(2n)` independent-axis
//!   search per `(kind, shape)` key through the shared [`ProfilerPool`],
//!   storing the curves under a GPU [`MachineSignature`] in the fleet's
//!   profile store; [`tune_exhaustive`] is the `O(n²)` grid it avoids.
//!
//! * **Inter-op parallelism** (Table VII): running two instances of an op on
//!   two CUDA streams, 1.75–1.91× faster than serial execution, because a
//!   single instance does not saturate the device. [`GpuRuntime`] executes
//!   full graphs on `n` modelled streams with event-based cross-stream
//!   dependencies, under a [`GpuStrategy`]: serial baseline, static stream
//!   count, or the concurrency-controlled S3/S4 analog that derives stream
//!   count and co-run admission from the fitted demand curves.
//!
//! The model is deliberately occupancy-level: time = bottleneck of a compute
//! term and a bandwidth term, both scaled by how much of the device the
//! launch configuration actually engages; streams contend only for what the
//! device runs out of.
//!
//! [`ProfilerPool`]: nnrt_sched::ProfilerPool
//! [`MachineSignature`]: nnrt_manycore::MachineSignature

#![warn(missing_docs)]

pub mod kernels;
pub mod model;
pub mod ops;
pub mod profile;
pub mod runtime;
pub mod tuner;

pub use kernels::{kernel_for, stream_class};
pub use model::{GpuModel, GpuSpec, LaunchConfig};
pub use ops::{gpu_op, GpuKernel, GpuOpKind};
pub use profile::{GpuProfile, GpuProfileConfig};
pub use runtime::{
    simulate_streams, GpuRuntime, GpuRuntimeConfig, GpuStepReport, GpuStrategy, StreamLaunch,
    StreamOutcome,
};
pub use tuner::{blocks_ladder, climb_axis, tpb_ladder, tune_exhaustive, GpuTuneResult};
