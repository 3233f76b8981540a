//! # nnrt — Runtime Concurrency Control and Operation Scheduling for NN Training
//!
//! A from-scratch Rust reproduction of Liu, Li, Kestor & Vetter,
//! *"Runtime Concurrency Control and Operation Scheduling for High Performance
//! Neural Network Training"*, IPDPS 2019 (arXiv:1810.08955).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`manycore`] — KNL-like discrete-event manycore simulator + cost model.
//! * [`graph`] — dataflow graphs of NN training operations.
//! * [`models`] — training-step graph builders (ResNet-50, DCGAN,
//!   Inception-v3, LSTM).
//! * [`sched`] — the paper's contribution: hill-climbing performance model
//!   and the four co-run scheduling strategies.
//! * [`gpu`] — the Section VII preliminary-study GPU simulator.
//! * [`cluster`] — multi-KNL data/model parallelism (the paper's Section V,
//!   implemented rather than left as future work).
//! * [`serve`] — multi-tenant training-job service: admission, placement,
//!   and a shared persistent profile store for warm-started jobs.
//! * [`rpc`] — networked job-submission front-end for the fleet:
//!   length-prefixed JSON-over-TCP protocol, threaded server, and a
//!   blocking, retrying client.
//! * [`obs`] — unified observability: dual-clocked metrics registry,
//!   structured event tracing, and the Prometheus-style text exposition
//!   scraped by `nnrt metrics` / rendered by `nnrt top`.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use nnrt_cluster as cluster;
pub use nnrt_gpu as gpu;
pub use nnrt_graph as graph;
pub use nnrt_manycore as manycore;
pub use nnrt_models as models;
pub use nnrt_obs as obs;
pub use nnrt_rpc as rpc;
pub use nnrt_sched as sched;
pub use nnrt_serve as serve;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use nnrt_graph::{DataflowGraph, OpInstance, OpKind, Shape};
    pub use nnrt_manycore::{
        CostModel, Engine, KnlCostModel, KnlParams, NoiseModel, SharingMode, Topology, WorkProfile,
    };
    pub use nnrt_models::{dcgan, inception_v3, lstm, resnet50, ModelSpec};
    pub use nnrt_sched::{
        HillClimbModel, PerfModel, Runtime, RuntimeConfig, StepReport, TfExecutor, TfExecutorConfig,
    };
}
