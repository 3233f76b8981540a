//! # nnrt-cluster
//!
//! Multi-KNL training — the paper's Section V, implemented rather than left
//! as future work.
//!
//! The paper argues its runtime needs no changes on multiple KNLs:
//!
//! * **Data parallelism** duplicates the model; each node runs the runtime
//!   on its own batch shard, then gradients synchronize (here: a ring
//!   all-reduce over the interconnect). "Our runtime system can work on
//!   individual KNLs without any change."
//! * **Model parallelism** partitions the operations across nodes; each node
//!   schedules fewer operations, so "we have less opportunities to co-run
//!   operations, but our control over intra-op parallelism should remain
//!   the same."
//!
//! [`sim`] simulates both regimes as discrete events over per-node compute
//! lanes and contended interconnect links: data parallelism with per-op
//! times scaled to the per-node runtime's measured step
//! ([`simulate_data_parallel`]), model parallelism as a layer pipeline
//! ([`simulate_pipeline`]). The `cluster_scaling` bench checks the data
//! parallelism claim; `cluster_overlap` measures how much communication
//! out-of-order backprop hides.

#![warn(missing_docs)]

pub mod interconnect;
pub mod sim;

pub use interconnect::{ChunkedAllreduce, Interconnect};
pub use sim::{
    param_bytes, per_op_secs, pipeline_stage_profile, simulate_data_parallel, simulate_pipeline,
    ClusterConfig, ClusterMode, ClusterStepReport, ClusterStrategy, StageSecs,
};
