//! The service loop: placement, round-robin stepping, fault recovery, and
//! fleet statistics.
//!
//! A [`Fleet`] owns a set of simulated manycore nodes, an admission queue,
//! and a shared [`ProfileStore`]. Submitted jobs are placed onto the least
//! loaded healthy node, warm-started from the store (skipping every
//! already-profiled key), then driven step by step round-robin with the
//! node's other resident jobs on a simulated clock. The run produces a
//! [`FleetReport`] with per-job and fleet-wide statistics: steps/sec,
//! profiling steps saved by warm starts, queue latency, and rejections.
//!
//! ## Fault tolerance
//!
//! An optional [`FaultPlan`] (see [`Fleet::set_fault_plan`]) injects
//! deterministic faults at step boundaries of the simulated clock:
//!
//! * **Node crash** — resident jobs are evicted and re-admitted onto
//!   surviving nodes with exponential backoff, resuming from the step count
//!   of their latest lightweight [`Checkpoint`]. The curves live in the
//!   shared store, not in the checkpoint: a re-admission looks up its
//!   graph's keys there like any placement.
//! * **Straggler** — a slowed node's measured step latency trips the
//!   [`NodeHealth`] probe, and placement avoids flagged nodes until their
//!   latency window recovers.
//! * **Store corruption** — a deterministic fraction of the shared store
//!   vanishes; a later placement or re-admission whose keys were lost
//!   simply re-profiles them.
//! * **Profiling budget** — when re-profiling exceeds the plan's per-job
//!   budget, the runtime degrades the unfinished keys to the TF-guide
//!   baseline thread plan instead of failing, and the report records them.
//!
//! An empty plan injects nothing, and the run is byte-identical to one
//! without chaos: the fault paths multiply by exactly 1.0 or never execute.

use crate::chaos::{FaultEvent, FaultPlan, INITIAL_BACKOFF_SECS, MAX_BACKOFF_SECS};
use crate::job::{AdmissionQueue, AdmitError, JobId, JobSpec, QueuedJob};
use crate::journal::{
    replay, write_atomic, Journal, JournalRecord, JOURNAL_FILE, JOURNAL_FORMAT, JOURNAL_VERSION,
    SNAPSHOT_FILE,
};
use crate::store::{ProfileStore, StoreError};
use nnrt_cluster::{ClusterConfig, ClusterMode};
use nnrt_gpu::{GpuRuntime, GpuRuntimeConfig, GpuSpec};
use nnrt_graph::{DataflowGraph, OpKey};
use nnrt_manycore::{KnlCostModel, MachineSignature, NodeHealth};
use nnrt_obs::{Clock, EventKind, Obs, ObsConfig};
use nnrt_sched::{
    export_chrome_trace, export_lane_chrome_trace, KeyProfile, OpCatalog, ProfilerPool, Runtime,
    RuntimeConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// The device class of a fleet node. Each backend profiles and executes
/// jobs with its own runtime, and publishes curves under its own
/// domain-tagged [`MachineSignature`] — a GPU node can never warm-start
/// from KNL curves or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NodeBackend {
    /// A Knights-Landing manycore node driven by `nnrt_sched::Runtime`.
    #[default]
    Knl,
    /// A P100-class GPU node driven by `nnrt_gpu::GpuRuntime` (stream
    /// co-running instead of thread-pool sizing).
    Gpu,
    /// The head of a multi-KNL training cluster: jobs profile with the KNL
    /// runtime, then each step runs the event-driven multi-node simulator
    /// (`nnrt_cluster::sim`) — gradients traverse interconnect links as
    /// first-class events, overlapping the backward pass per
    /// [`FleetConfig::cluster`].
    Cluster,
}

impl NodeBackend {
    /// Stable lowercase name (CLI flag values, report labels).
    pub fn name(&self) -> &'static str {
        match self {
            NodeBackend::Knl => "knl",
            NodeBackend::Gpu => "gpu",
            NodeBackend::Cluster => "cluster",
        }
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "knl" => Some(NodeBackend::Knl),
            "gpu" => Some(NodeBackend::Gpu),
            "cluster" => Some(NodeBackend::Cluster),
            _ => None,
        }
    }
}

/// Default seconds of simulated time between durable flushes (store
/// snapshot + journal rotation).
pub const DEFAULT_FLUSH_INTERVAL_SECS: f64 = 20.0;

/// Where and how often a fleet persists its state. Attached to
/// [`FleetConfig::durability`]; `None` (the default) runs fully in memory
/// with zero filesystem traffic.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `journal.log` and `store.json` (created if
    /// missing).
    pub dir: PathBuf,
    /// Simulated seconds between background flushes — each flush writes the
    /// store snapshot atomically and rotates the journal to a compacted
    /// prologue at the same instant, forming a consistent cut.
    /// `f64::INFINITY` disables periodic flushes (the journal alone still
    /// captures everything; the final flush at drain still runs). Must be
    /// positive.
    pub flush_interval_secs: f64,
}

impl DurabilityConfig {
    /// Durability in `dir` with the default flush interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            flush_interval_secs: DEFAULT_FLUSH_INTERVAL_SECS,
        }
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of identical nodes of `backend`; heterogeneous fleets use
    /// [`Fleet::with_cost_models`] or [`Fleet::with_backends`].
    pub node_count: u32,
    /// Resident (time-sliced) jobs one node serves concurrently.
    pub max_jobs_per_node: usize,
    /// Admission-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Base runtime configuration; each job's profiling seed is derived from
    /// `seed` and its job id, so fleets are reproducible end to end.
    pub runtime: RuntimeConfig,
    /// Fleet seed (drives per-job profiling-noise seeds).
    pub seed: u64,
    /// Record a Chrome trace of one training step per job.
    pub record_traces: bool,
    /// Steps between lightweight recovery checkpoints (0 disables them; a
    /// crashed job then restarts from step 0).
    pub checkpoint_interval: u32,
    /// Worker threads for each job's profiling phase (hill climbs are
    /// sharded per op key). Any value produces byte-identical reports —
    /// per-key seeded measurers make curves independent of worker count —
    /// so this only changes wall-clock time. `1` (the default) is the exact
    /// legacy sequential path.
    pub profile_threads: usize,
    /// Device class of every node ([`Fleet::with_backends`] mixes classes).
    pub backend: NodeBackend,
    /// GPU runtime configuration (stream strategy and profiling noise) for
    /// GPU nodes; KNL nodes ignore it. The per-job profiling seed is
    /// derived from `seed` exactly like the KNL path.
    pub gpu: GpuRuntimeConfig,
    /// Multi-node training configuration (replica count, interconnect,
    /// overlap strategy) for cluster nodes; other backends ignore it.
    pub cluster: ClusterConfig,
    /// When set, the fleet journals every state transition to
    /// `durability.dir` and periodically flushes the store snapshot, so
    /// [`Fleet::recover`] can rebuild the fleet after the process dies.
    /// Journaling is a pure side effect of the simulated run loop: a
    /// durable fault-free run's report is byte-identical to a
    /// non-durable one.
    pub durability: Option<DurabilityConfig>,
    /// Observability (metrics registry + event tracing). Enabled by
    /// default; like durability it is a pure side effect of the run loop —
    /// [`nnrt_obs::ObsConfig::off`] yields a fleet whose simulation is
    /// byte-identical, minus the recorded telemetry.
    pub obs: ObsConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            node_count: 2,
            max_jobs_per_node: 4,
            queue_capacity: 64,
            runtime: RuntimeConfig::default(),
            seed: 0xF1EE7,
            record_traces: false,
            checkpoint_interval: 1,
            profile_threads: 1,
            backend: NodeBackend::Knl,
            gpu: GpuRuntimeConfig::default(),
            cluster: ClusterConfig::default(),
            durability: None,
            obs: ObsConfig::default(),
        }
    }
}

/// One lightweight recovery point for a job: the steps it had done and
/// when. A crash-evicted job resumes from `steps_done`. `fitted_keys` is
/// journaled with the checkpoint, but nothing reads it back: a re-admission
/// looks up its graph's keys in the shared store, so keys that corruption
/// ate in the meantime are simply re-profiled (or degraded to the baseline
/// plan once the profiling budget runs out). A corrupted restore is a
/// *performance* fault, never a correctness fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Training steps completed when the checkpoint was taken.
    pub steps_done: u32,
    /// Profile keys the job had fitted curves for in the shared store.
    pub fitted_keys: Vec<OpKey>,
    /// Simulated time the checkpoint was written.
    pub at: f64,
}

/// A job resident on a node or awaiting re-admission. Its report is
/// created once, at first placement (or by [`Fleet::recover`]), accumulates
/// across admissions with `report.steps` counting the steps done and
/// `report.profiling_steps` the profiling budget spent, and moves into the
/// fleet's completed list at the last step.
struct RunningJob {
    spec: JobSpec,
    report: JobReport,
    /// Keys with fitted curves in the shared store, as of the job's last
    /// placement.
    fitted_keys: Vec<OpKey>,
    /// The job's latest checkpoint; it travels with the job through
    /// evictions and is dropped when the job completes.
    checkpoint: Option<Checkpoint>,
}

impl RunningJob {
    fn new(id: JobId, spec: JobSpec, submitted_at: f64, queue_latency_secs: f64) -> Self {
        RunningJob {
            report: JobReport {
                id: id.0,
                name: spec.name.clone(),
                model: spec.model.clone(),
                priority: spec.priority,
                weight: spec.weight,
                submitted_at,
                queue_latency_secs,
                ..JobReport::default()
            },
            spec,
            fitted_keys: Vec::new(),
            checkpoint: None,
        }
    }
}

/// The device a node simulates, with the machine model its runtime needs.
#[derive(Clone)]
enum Device {
    Knl(KnlCostModel),
    Gpu(GpuSpec),
    /// A cluster head over KNL members of this cost model.
    Cluster(KnlCostModel),
}

impl Device {
    fn backend(&self) -> NodeBackend {
        match self {
            Device::Knl(_) => NodeBackend::Knl,
            Device::Gpu(_) => NodeBackend::Gpu,
            Device::Cluster(_) => NodeBackend::Cluster,
        }
    }
}

struct Node {
    device: Device,
    signature: MachineSignature,
    clock: f64,
    residents: VecDeque<RunningJob>,
    /// The node takes no placements before this simulated time.
    down_until: f64,
    /// Accumulated downtime over the run, seconds.
    downtime: f64,
    /// Step-time multiplier while `clock < slow_until` (1.0 = healthy).
    slow_factor: f64,
    slow_until: f64,
    health: NodeHealth,
}

impl Node {
    /// A node of `backend` over the KNL machine `cost`. A GPU node is a
    /// P100; a cluster head publishes under a signature derived from its
    /// member machine plus the cluster shape, so its curves never
    /// warm-start single-node KNL jobs.
    fn new(backend: NodeBackend, cost: KnlCostModel, config: &FleetConfig) -> Self {
        let knl = cost.signature();
        let (device, signature) = match backend {
            NodeBackend::Knl => (Device::Knl(cost), knl),
            NodeBackend::Gpu => (Device::Gpu(GpuSpec::p100()), GpuSpec::p100().signature()),
            NodeBackend::Cluster => {
                let signature = MachineSignature::of_cluster(
                    knl,
                    config.cluster.nodes,
                    config.cluster.network.latency,
                    config.cluster.network.bandwidth,
                );
                (Device::Cluster(cost), signature)
            }
        };
        Node {
            device,
            signature,
            clock: 0.0,
            residents: VecDeque::new(),
            down_until: 0.0,
            downtime: 0.0,
            slow_factor: 1.0,
            slow_until: 0.0,
            health: NodeHealth::default(),
        }
    }
}

/// A job evicted by a crash, waiting to be re-admitted.
struct RetryJob {
    job: RunningJob,
    /// Earliest simulated time of the next admission attempt.
    eligible_at: f64,
    /// Wait applied after the next failed attempt (doubles up to
    /// [`MAX_BACKOFF_SECS`]).
    backoff_secs: f64,
}

/// The live durability machinery of one fleet: the open journal, the graph
/// records its current file holds, and the flush schedule. Present only
/// when [`FleetConfig::durability`] is set.
struct Durable {
    journal: Journal,
    graphs: GraphTable,
    dir: PathBuf,
    flush_interval_secs: f64,
    /// Simulated time of the next background flush.
    next_flush_at: f64,
    /// Store generation of the last snapshot this fleet wrote; a cut at
    /// the same generation keeps that file.
    snapshot_generation: Option<u64>,
}

/// The `graph` records one journal file holds, keyed by graph body: a job
/// whose body the file already has names that record instead of writing
/// the graph again. Each entry keeps a handle to its body, so the address
/// key cannot be reused by another graph while the table lives.
#[derive(Default)]
struct GraphTable {
    ids: HashMap<usize, (u64, DataflowGraph)>,
}

impl GraphTable {
    /// The record id of `graph`'s body, plus the `graph` record to write
    /// before its first `admit` when the file does not hold it yet.
    fn intern(&mut self, graph: &DataflowGraph) -> (u64, Option<JournalRecord>) {
        let next = self.ids.len() as u64;
        match self.ids.entry(graph.body_addr()) {
            Entry::Occupied(e) => {
                let (id, held) = e.get();
                debug_assert!(held.same_body(graph));
                (*id, None)
            }
            Entry::Vacant(e) => {
                e.insert((next, graph.clone()));
                let rec = JournalRecord::Graph {
                    id: next,
                    graph: graph.clone(),
                };
                (next, Some(rec))
            }
        }
    }
}

/// The `admit` record of job `id`, naming its graph by record id.
fn admit_record(id: u64, spec: &JobSpec, graph: u64) -> JournalRecord {
    JournalRecord::Admit {
        id,
        name: spec.name.clone(),
        model: spec.model.clone(),
        steps: spec.steps,
        priority: spec.priority,
        weight: spec.weight,
        graph,
    }
}

/// A job that completed in a *previous* process incarnation, recovered from
/// the journal. Kept so status queries for old ids keep answering and so
/// journal rotation re-records the completion.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PriorCompleted {
    /// Job id (fleet-unique across incarnations).
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Model family.
    pub model: String,
    /// Training steps executed.
    pub steps: u32,
    /// Node the job finished on.
    pub node: u32,
    /// Simulated completion time in its own incarnation.
    pub completed_at: f64,
}

/// What [`Fleet::recover`] reconstructed from a durable directory. The
/// accounting is exact and deterministic: every job id the journal admitted
/// appears in exactly one of `jobs_resumed`, `jobs_requeued`, or
/// `jobs_completed`.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// Journal records applied (the header excluded).
    pub journal_records: usize,
    /// Description of the torn tail that ended the replay, if the log did
    /// not parse to its end (`null` for a clean log).
    pub torn_tail: Option<String>,
    /// Bytes of undecodable tail discarded.
    pub torn_bytes_discarded: u64,
    /// Whether a store snapshot was found and merged.
    pub snapshot_restored: bool,
    /// Curve pairs restored from the snapshot.
    pub keys_restored: usize,
    /// Curve pairs re-applied from journaled `store_insert` deltas (the
    /// WAL suffix past the last snapshot flush). Touched keys carry no
    /// curves and are not counted.
    pub store_delta_keys: usize,
    /// Ids of jobs that were mid-run at the crash, re-entering via the
    /// retry path and resuming from their latest journaled checkpoint.
    pub jobs_resumed: Vec<u64>,
    /// Ids of admitted-but-never-placed jobs, re-enqueued under their
    /// original ids in original admission order.
    pub jobs_requeued: Vec<u64>,
    /// Jobs that had already completed before the crash.
    pub jobs_completed: Vec<PriorCompleted>,
}

impl RecoveryReport {
    /// Canonical pretty-printed JSON (field order fixed, so two recoveries
    /// of the same directory are byte-identical).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("recovery report serializes")
    }

    /// One-paragraph human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "recovered: {} resumed, {} re-queued, {} already complete",
            self.jobs_resumed.len(),
            self.jobs_requeued.len(),
            self.jobs_completed.len()
        );
        let _ = writeln!(
            out,
            "store: {} keys from snapshot, {} from journal deltas",
            self.keys_restored, self.store_delta_keys
        );
        match &self.torn_tail {
            Some(err) => {
                let _ = writeln!(
                    out,
                    "journal: {} records applied, torn tail discarded ({} bytes: {err})",
                    self.journal_records, self.torn_bytes_discarded
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "journal: {} records applied, clean tail",
                    self.journal_records
                );
            }
        }
        out
    }
}

/// A typed failure of [`Fleet::recover`].
#[derive(Debug)]
pub enum RecoverError {
    /// The config carries no [`DurabilityConfig`] to recover from.
    NotDurable,
    /// Reading the durable directory failed (other than files simply being
    /// absent, which recovers to an empty fleet).
    Io(std::io::Error),
    /// The store snapshot exists but does not restore.
    Snapshot(StoreError),
    /// The journal exists but is structurally unusable (bad header, wrong
    /// format or version). Torn *tails* are not errors — they are
    /// discarded and reported in the [`RecoveryReport`].
    Journal(String),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::NotDurable => {
                write!(f, "recovery needs a FleetConfig with durability set")
            }
            RecoverError::Io(e) => write!(f, "cannot read durable directory: {e}"),
            RecoverError::Snapshot(e) => write!(f, "store snapshot does not restore: {e}"),
            RecoverError::Journal(msg) => write!(f, "unusable journal: {msg}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// One completed job's statistics.
#[derive(Debug, Clone, Default, Serialize)]
pub struct JobReport {
    /// Job id (fleet-unique).
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Model family.
    pub model: String,
    /// Node the job ran on (the last one, if crashes moved it).
    pub node: u32,
    /// Admission priority.
    pub priority: u8,
    /// Deadline weight.
    pub weight: f64,
    /// Training steps executed.
    pub steps: u32,
    /// Simulated submission time, seconds.
    pub submitted_at: f64,
    /// Time spent waiting for a node slot, seconds.
    pub queue_latency_secs: f64,
    /// Profiling steps this job actually paid (after warm start), summed
    /// over every admission.
    pub profiling_steps: u32,
    /// Profiling steps avoided versus the cold first job of this model.
    pub profiling_steps_saved: u32,
    /// Profile keys served from the shared store.
    pub warm_keys: usize,
    /// Total profile keys of the job's graph.
    pub total_keys: usize,
    /// Re-admissions after crash evictions.
    pub retries: u32,
    /// Times the job resumed from a checkpoint instead of step 0.
    pub checkpoint_restores: u32,
    /// Profile keys degraded to the baseline plan by budget exhaustion.
    pub degraded_keys: usize,
    /// Profile keys whose climb was warm-seeded from an already-fitted
    /// neighbor shape of the same kind.
    pub seeded_keys: usize,
    /// Profiling steps the cross-shape warm seeding skipped.
    pub seed_steps_saved: u32,
    /// Duration of one training step, seconds.
    pub step_secs: f64,
    /// Time spent profiling, seconds.
    pub profiling_secs: f64,
    /// Simulated completion time, seconds.
    pub completed_at: f64,
    /// Chrome trace of one step (when trace recording was on).
    pub chrome_trace: Option<String>,
}

/// Whole-fleet statistics for one service run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Per-job reports, in completion order: the order in which the service
    /// loop ran each job's last step, always stepping the busy node whose
    /// simulated clock is earliest.
    pub jobs: Vec<JobReport>,
    /// Nodes in the fleet.
    pub nodes: u32,
    /// Simulated end-to-end makespan, seconds.
    pub makespan_secs: f64,
    /// Total training steps executed.
    pub total_steps: u64,
    /// Fleet throughput: training steps per simulated second.
    pub steps_per_sec: f64,
    /// Profiling steps paid across all jobs.
    pub profiling_steps_total: u64,
    /// Profiling steps avoided by warm starts across all jobs.
    pub profiling_steps_saved_total: u64,
    /// Mean queue latency, seconds.
    pub mean_queue_latency_secs: f64,
    /// Worst queue latency, seconds.
    pub max_queue_latency_secs: f64,
    /// Submissions rejected (queue saturation or malformed jobs).
    pub rejected: u64,
    /// Curve pairs resident in the shared store after the run.
    pub store_entries: usize,
    /// Profile keys served from the shared store across all lookups.
    pub store_hits: u64,
    /// Profile keys requested but absent across all lookups.
    pub store_misses: u64,
    /// Entries the store's LRU cap evicted over the run.
    pub store_evictions: u64,
    /// Serialized bytes those evictions released.
    pub store_evicted_bytes: u64,
    /// Profile keys warm-seeded from a neighbor shape across all jobs.
    pub seeded_keys_total: u64,
    /// Profiling steps skipped by cross-shape warm seeding across all jobs.
    pub seed_steps_saved_total: u64,
    /// Fault events that actually fired during the run.
    pub faults_injected: usize,
    /// Crash-evicted re-admissions across all jobs.
    pub retries_total: u64,
    /// Checkpoint restores across all jobs.
    pub checkpoint_restores_total: u64,
    /// Profile keys degraded to the baseline plan across all jobs.
    pub degraded_keys_total: u64,
    /// Checkpoint writes over the run.
    pub checkpoint_writes: u64,
    /// Per-node accumulated downtime, seconds.
    pub node_downtime_secs: Vec<f64>,
    /// Whether a mid-run journal/flush failure disabled durability — the
    /// degradation is part of the report, not just a stderr warning.
    pub durability_disabled: bool,
    /// Final simulated-clock metrics snapshot: the same Prometheus-style
    /// exposition `Request::Metrics` serves live, filtered to the sim
    /// domain so it is byte-identical across runs and worker counts (wall
    /// metrics — journal I/O, RPC latency — are live-only). `None` when
    /// observability is disabled.
    pub metrics: Option<String>,
}

impl FleetReport {
    /// Canonical pretty-printed JSON of the report. Field order is fixed,
    /// so two identically-seeded runs produce byte-identical output — the
    /// determinism contract the chaos CI suite pins.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet report serializes")
    }

    /// Multi-line human-readable summary (the `nnrt serve` output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} nodes, {} jobs, makespan {:.3}s, {:.2} steps/s",
            self.nodes,
            self.jobs.len(),
            self.makespan_secs,
            self.steps_per_sec
        );
        let _ = writeln!(
            out,
            "profiling: {} steps paid, {} saved by warm starts; store holds {} curve pairs",
            self.profiling_steps_total, self.profiling_steps_saved_total, self.store_entries
        );
        if self.seeded_keys_total > 0 {
            let _ = writeln!(
                out,
                "seeding: {} keys warm-seeded from neighbor shapes, {} climb steps skipped",
                self.seeded_keys_total, self.seed_steps_saved_total
            );
        }
        let _ = writeln!(
            out,
            "queue: mean latency {:.3}s, max {:.3}s, {} rejected",
            self.mean_queue_latency_secs, self.max_queue_latency_secs, self.rejected
        );
        let looked_up = self.store_hits + self.store_misses;
        let hit_rate = if looked_up > 0 {
            100.0 * self.store_hits as f64 / looked_up as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "store: {} hits / {} misses ({hit_rate:.1}% hit rate), {} evicted",
            self.store_hits, self.store_misses, self.store_evictions
        );
        if self.faults_injected > 0 {
            let downtime: f64 = self.node_downtime_secs.iter().sum();
            let _ = writeln!(
                out,
                "chaos: {} faults injected, {} retries, {} checkpoint restores, {} degraded keys, {:.3}s node downtime",
                self.faults_injected,
                self.retries_total,
                self.checkpoint_restores_total,
                self.degraded_keys_total,
                downtime
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>4} {:>4} {:>6} {:>9} {:>7} {:>9} {:>10} {:>10}",
            "job", "node", "prio", "steps", "prof", "saved", "warm-keys", "queued(s)", "done(s)"
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{:<16} {:>4} {:>4} {:>6} {:>9} {:>7} {:>6}/{:<2} {:>10.3} {:>10.3}",
                j.name,
                j.node,
                j.priority,
                j.steps,
                j.profiling_steps,
                j.profiling_steps_saved,
                j.warm_keys,
                j.total_keys,
                j.queue_latency_secs,
                j.completed_at
            );
        }
        out
    }
}

/// Where a submitted job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Waiting in the admission queue for a node slot.
    Queued,
    /// Resident on a node, being stepped round-robin.
    Running,
    /// Evicted by a node crash, waiting out its re-admission backoff.
    Retrying,
    /// Finished every training step.
    Completed,
}

/// A point-in-time view of one submitted job, answering the `Status` and
/// `ListJobs` queries of the RPC front-end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id (fleet-unique).
    pub id: u64,
    /// Job name.
    pub name: String,
    /// Model family.
    pub model: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Training steps executed so far.
    pub steps_done: u32,
    /// Training steps requested.
    pub steps: u32,
    /// Node the job resides on (ran on, for completed jobs); `None` while
    /// queued or waiting for re-admission.
    pub node: Option<u32>,
    /// Fleet-level flag: a mid-run journal/flush failure disabled
    /// durability, so completions past that point survive only in memory.
    pub durability_disabled: bool,
}

/// A borrowed [`JobStatus`], so scans over the fleet's jobs copy the name
/// and model only of the jobs they report.
struct JobView<'a> {
    id: u64,
    name: &'a str,
    model: &'a str,
    phase: JobPhase,
    steps_done: u32,
    steps: u32,
    node: Option<u32>,
}

impl JobView<'_> {
    fn status(&self, durability_disabled: bool) -> JobStatus {
        JobStatus {
            id: self.id,
            name: self.name.to_string(),
            model: self.model.to_string(),
            phase: self.phase,
            steps_done: self.steps_done,
            steps: self.steps,
            node: self.node,
            durability_disabled,
        }
    }
}

/// The multi-tenant training-job service.
pub struct Fleet {
    config: FleetConfig,
    nodes: Vec<Node>,
    store: Arc<ProfileStore>,
    queue: AdmissionQueue,
    next_id: u64,
    completed: Vec<JobReport>,
    /// Profiling steps of the cold first job per (model, device class).
    cold_steps_by_model: HashMap<(String, NodeBackend), u32>,
    /// The armed plan, its events sorted by firing time; they fire through
    /// `event_cursor`.
    plan: FaultPlan,
    event_cursor: usize,
    retries: Vec<RetryJob>,
    /// Checkpoints written over the run, plus those [`Fleet::recover`]
    /// restored.
    checkpoint_writes: u64,
    durable: Option<Durable>,
    /// Jobs completed in previous incarnations (populated by
    /// [`Fleet::recover`]); visible to status queries and journal rotation,
    /// excluded from this incarnation's [`FleetReport`].
    prior_completed: Vec<PriorCompleted>,
    /// Shared observability handle (metrics + events); also cloned by the
    /// RPC server for request accounting and live introspection.
    obs: Arc<Obs>,
    /// Wall-clock epoch for [`Clock::Wall`] event timestamps.
    obs_epoch: std::time::Instant,
    /// Set when a journal append or flush failed and durability was
    /// disabled mid-run — surfaced in [`FleetReport`] and [`JobStatus`]
    /// instead of only a stderr warning.
    durability_disabled: bool,
}

impl Fleet {
    /// A fleet of `config.node_count` identical nodes of `config.backend`
    /// with a fresh shared store.
    ///
    /// # Panics
    /// When `config.durability` is set and its directory cannot be
    /// initialized (unwritable path, full disk) — a configuration error
    /// worth failing loudly on, not limping past. I/O errors *later* in a
    /// durable run instead print a warning and disable journaling, keeping
    /// the fleet available.
    pub fn new(config: FleetConfig) -> Self {
        let backends = vec![config.backend; config.node_count as usize];
        Self::with_backends(config, backends, Arc::new(ProfileStore::new()))
    }

    /// A fleet over explicit (possibly heterogeneous) KNL node cost models
    /// and an existing shared store — the warm-restart path: a store
    /// restored from a snapshot lets the very first job skip profiling.
    pub fn with_cost_models(
        config: FleetConfig,
        costs: Vec<KnlCostModel>,
        store: Arc<ProfileStore>,
    ) -> Self {
        assert!(!costs.is_empty(), "a fleet needs at least one node");
        let nodes = costs
            .into_iter()
            .map(|cost| Node::new(NodeBackend::Knl, cost, &config))
            .collect();
        Self::from_nodes(config, nodes, store)
    }

    /// A fleet mixing device classes — e.g. two KNL nodes beside a GPU
    /// node, all publishing into one shared store. KNL nodes get the
    /// standard KNL cost model, GPU nodes a P100; the domain-tagged
    /// signatures keep each class's curves separate inside the store.
    pub fn with_backends(
        config: FleetConfig,
        backends: Vec<NodeBackend>,
        store: Arc<ProfileStore>,
    ) -> Self {
        assert!(!backends.is_empty(), "a fleet needs at least one node");
        let nodes = backends
            .into_iter()
            .map(|backend| Node::new(backend, KnlCostModel::knl(), &config))
            .collect();
        Self::from_nodes(config, nodes, store)
    }

    fn from_nodes(mut config: FleetConfig, nodes: Vec<Node>, store: Arc<ProfileStore>) -> Self {
        config.max_jobs_per_node = config.max_jobs_per_node.max(1);
        let obs = Arc::new(Obs::new(config.obs.clone()));
        let mut fleet = Fleet {
            queue: AdmissionQueue::new(config.queue_capacity),
            config,
            nodes,
            store,
            next_id: 0,
            completed: Vec::new(),
            cold_steps_by_model: HashMap::new(),
            plan: FaultPlan::none(),
            event_cursor: 0,
            retries: Vec::new(),
            checkpoint_writes: 0,
            durable: None,
            prior_completed: Vec::new(),
            obs,
            obs_epoch: std::time::Instant::now(),
            durability_disabled: false,
        };
        fleet.init_durable();
        fleet
    }

    /// The fleet's observability handle. The RPC server clones it to
    /// account requests; introspection reads expositions and event
    /// snapshots through it while the fleet runs.
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// Seconds since this fleet was constructed — the timestamp domain of
    /// its [`Clock::Wall`] events.
    fn wall_secs(&self) -> f64 {
        self.obs_epoch.elapsed().as_secs_f64()
    }

    /// Whether a mid-run journal/flush failure disabled durability.
    pub fn durability_disabled(&self) -> bool {
        self.durability_disabled
    }

    /// Opens the journal and cuts the first snapshot+journal pair when the
    /// config asks for durability. Construction-time I/O failure panics
    /// (see [`Fleet::new`]).
    fn init_durable(&mut self) {
        let Some(cfg) = self.config.durability.clone() else {
            return;
        };
        assert!(
            cfg.flush_interval_secs > 0.0,
            "durability flush interval must be positive (got {})",
            cfg.flush_interval_secs
        );
        let journal = Journal::create(&cfg.dir).unwrap_or_else(|e| {
            panic!(
                "cannot initialize durable directory {}: {e}",
                cfg.dir.display()
            )
        });
        self.durable = Some(Durable {
            journal,
            graphs: GraphTable::default(),
            dir: cfg.dir,
            flush_interval_secs: cfg.flush_interval_secs,
            next_flush_at: cfg.flush_interval_secs,
            snapshot_generation: None,
        });
        self.flush_durable();
    }

    /// Appends one record to the journal. A failed append disables
    /// durability for the rest of the run — availability over durability
    /// once the disk misbehaves mid-flight — and the degradation is
    /// *loud*: a `durability_error` event, a `nnrt_durability_errors_total`
    /// counter, and `durability_disabled: true` in every subsequent report
    /// and status, not just a stderr warning.
    fn journal_append(&mut self, rec: JournalRecord) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        let tag = rec.tag();
        match d.journal.append(&rec) {
            Ok(bytes) => {
                self.obs.counter_add(
                    Clock::Wall,
                    "nnrt_journal_appends_total",
                    &[("record", tag)],
                    1,
                );
                self.obs
                    .counter_add(Clock::Wall, "nnrt_journal_bytes_total", &[], bytes as u64);
                self.obs.event(
                    Clock::Wall,
                    EventKind::JournalAppend,
                    self.wall_secs(),
                    None,
                    None,
                    format!("{tag} ({bytes} bytes)"),
                );
            }
            Err(e) => {
                self.disable_durability("journal append", tag, &e);
            }
        }
    }

    /// Disables durability after a mid-run I/O failure and records the
    /// degradation on every observability surface (satellite of the silent
    /// `eprintln!`-only path this replaces).
    fn disable_durability(&mut self, what: &str, context: &str, error: &std::io::Error) {
        eprintln!("nnrt-serve: {what} failed ({error}); disabling durability");
        self.durable = None;
        self.durability_disabled = true;
        self.obs
            .counter_add(Clock::Wall, "nnrt_durability_errors_total", &[], 1);
        self.obs.event(
            Clock::Wall,
            EventKind::DurabilityError,
            self.wall_secs(),
            None,
            None,
            format!("{what} failed ({context}): {error}; durability disabled"),
        );
    }

    /// The compacted prologue a journal rotation installs, with the graph
    /// table of the file it starts: completions (prior incarnations' and
    /// this one's), then every live job in id (= admission) order with its
    /// placement state and latest checkpoint, each distinct graph body
    /// written once before the first `admit` naming it. Store contents are
    /// *not* re-recorded — the snapshot flushed at the same instant covers
    /// them.
    fn compacted_records(&self) -> (Vec<JournalRecord>, GraphTable) {
        enum Whereabouts {
            Queued,
            Resident(u32),
            Evicted(f64),
        }
        let mut recs = Vec::new();
        for p in &self.prior_completed {
            recs.push(JournalRecord::Complete {
                id: p.id,
                name: p.name.clone(),
                model: p.model.clone(),
                steps: p.steps,
                node: p.node,
                at: p.completed_at,
            });
        }
        for j in &self.completed {
            recs.push(JournalRecord::Complete {
                id: j.id,
                name: j.name.clone(),
                model: j.model.clone(),
                steps: j.steps,
                node: j.node,
                at: j.completed_at,
            });
        }
        let mut live: Vec<(u64, &JobSpec, Whereabouts, Option<&Checkpoint>)> = Vec::new();
        for q in self.queue.iter() {
            live.push((q.id.0, &q.spec, Whereabouts::Queued, None));
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            for j in &node.residents {
                let at = Whereabouts::Resident(idx as u32);
                live.push((j.report.id, &j.spec, at, j.checkpoint.as_ref()));
            }
        }
        for r in &self.retries {
            let at = Whereabouts::Evicted(r.eligible_at);
            live.push((r.job.report.id, &r.job.spec, at, r.job.checkpoint.as_ref()));
        }
        live.sort_by_key(|(id, ..)| *id);
        let mut graphs = GraphTable::default();
        for (id, spec, whereabouts, checkpoint) in live {
            let (graph, new) = graphs.intern(&spec.graph);
            recs.extend(new);
            recs.push(admit_record(id, spec, graph));
            match whereabouts {
                Whereabouts::Queued => {}
                Whereabouts::Resident(node) => recs.push(JournalRecord::Place { id, node }),
                // The timestamp is the retry-eligibility time; recovery
                // only reads it as "this job was placed once".
                Whereabouts::Evicted(at) => recs.push(JournalRecord::Evict { id, at }),
            }
            if let Some(c) = checkpoint {
                recs.push(JournalRecord::Checkpoint {
                    id,
                    steps_done: c.steps_done,
                    at: c.at,
                    fitted_keys: c.fitted_keys.clone(),
                });
            }
        }
        (recs, graphs)
    }

    /// Writes the store snapshot atomically and rotates the journal to the
    /// compacted prologue — one consistent cut. When the store's contents
    /// have not changed since the last snapshot written, that file already
    /// covers them, and the cut only rotates the journal. A failed flush
    /// disables durability for the rest of the run, loudly (see
    /// [`Fleet::disable_durability`]).
    fn flush_durable(&mut self) {
        let Some(d) = &self.durable else {
            return;
        };
        // Read the generation before serializing: a write racing in
        // between then only costs a rewrite at the next cut.
        let generation = self.store.generation();
        // A new snapshot's text is dropped once written, before the
        // rotation encodes the prologue: the two would otherwise set the
        // cut's memory peak together.
        let written = if d.snapshot_generation == Some(generation) {
            Ok(None)
        } else {
            let text = self.store.snapshot();
            write_atomic(&d.dir.join(SNAPSHOT_FILE), text.as_bytes()).map(|()| Some(text.len()))
        };
        let (prologue, graphs) = self.compacted_records();
        let records = prologue.len();
        let d = self.durable.as_mut().expect("durable checked above");
        match written.and_then(|bytes| d.journal.rotate(&prologue).map(|()| bytes)) {
            Ok(bytes) => {
                d.graphs = graphs;
                d.snapshot_generation = Some(generation);
                let snapshot = match bytes {
                    Some(bytes) => format!("snapshot {bytes} bytes"),
                    None => "snapshot unchanged".to_string(),
                };
                self.obs
                    .counter_add(Clock::Wall, "nnrt_flush_cuts_total", &[], 1);
                self.obs.event(
                    Clock::Wall,
                    EventKind::FlushCut,
                    self.wall_secs(),
                    None,
                    None,
                    format!("{snapshot}, {records} prologue records"),
                );
            }
            Err(e) => {
                self.disable_durability("durable flush", "snapshot+rotate", &e);
            }
        }
    }

    /// Runs the background flush when the simulated clock has crossed the
    /// schedule. Driven from the run loop itself (not a wall-clock thread)
    /// so flush points are a pure function of the simulated run — the
    /// determinism contract every report check pins.
    fn maybe_flush_durable(&mut self) {
        let now = self.now();
        let due = match &self.durable {
            Some(d) => now.is_finite() && now >= d.next_flush_at,
            None => false,
        };
        if !due {
            return;
        }
        self.flush_durable();
        if let Some(d) = self.durable.as_mut() {
            while d.next_flush_at <= now {
                d.next_flush_at += d.flush_interval_secs;
            }
        }
    }

    /// Arms a fault plan for the next [`Fleet::run`]. Call before `run`;
    /// the fault-free plan ([`FaultPlan::none`]) is equivalent to never
    /// calling this.
    pub fn set_fault_plan(&mut self, mut plan: FaultPlan) {
        plan.sort_events();
        self.event_cursor = 0;
        self.plan = plan;
    }

    /// The shared profile store.
    pub fn store(&self) -> &Arc<ProfileStore> {
        &self.store
    }

    /// Current simulated fleet time: the earliest moment new work could
    /// start.
    pub fn now(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.clock)
            .fold(f64::INFINITY, f64::min)
    }

    /// The id the next successful [`Fleet::submit`] will assign — a server
    /// front-end uses it to derive default job names before admission.
    pub fn next_job_id(&self) -> u64 {
        self.next_id
    }

    /// A point-in-time view of one job, or `None` for an id this fleet
    /// never admitted (rejected submissions have no id).
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        self.job_views()
            .find(|v| v.id == id.0)
            .map(|v| v.status(self.durability_disabled))
    }

    /// Point-in-time views of every job the fleet has admitted — queued,
    /// running, awaiting re-admission, or completed — sorted by id. One pass
    /// over the fleet's job lists, with [`Self::job_status`]'s precedence.
    pub fn list_jobs(&self) -> Vec<JobStatus> {
        let mut views: Vec<JobView<'_>> =
            self.job_views().filter(|v| v.id < self.next_id).collect();
        // The sort is stable, so an id held in several lists keeps its
        // first (highest-precedence) view.
        views.sort_by_key(|v| v.id);
        views.dedup_by_key(|v| v.id);
        views
            .into_iter()
            .map(|v| v.status(self.durability_disabled))
            .collect()
    }

    /// Every job the fleet holds, in status precedence order: completed,
    /// completed in a prior incarnation, resident, awaiting re-admission,
    /// queued.
    fn job_views(&self) -> impl Iterator<Item = JobView<'_>> {
        let completed = self.completed.iter().map(|j| JobView {
            id: j.id,
            name: &j.name,
            model: &j.model,
            phase: JobPhase::Completed,
            steps_done: j.steps,
            steps: j.steps,
            node: Some(j.node),
        });
        let prior = self.prior_completed.iter().map(|p| JobView {
            id: p.id,
            name: &p.name,
            model: &p.model,
            phase: JobPhase::Completed,
            steps_done: p.steps,
            steps: p.steps,
            node: Some(p.node),
        });
        let running = self.nodes.iter().enumerate().flat_map(|(node_idx, node)| {
            node.residents.iter().map(move |j| JobView {
                id: j.report.id,
                name: &j.spec.name,
                model: &j.spec.model,
                phase: JobPhase::Running,
                steps_done: j.report.steps,
                steps: j.spec.steps,
                node: Some(node_idx as u32),
            })
        });
        let retrying = self.retries.iter().map(|r| JobView {
            id: r.job.report.id,
            name: &r.job.spec.name,
            model: &r.job.spec.model,
            phase: JobPhase::Retrying,
            steps_done: r.job.report.steps,
            steps: r.job.spec.steps,
            node: None,
        });
        let queued = self.queue.iter().map(|q| JobView {
            id: q.id.0,
            name: &q.spec.name,
            model: &q.spec.model,
            phase: JobPhase::Queued,
            steps_done: 0,
            steps: q.spec.steps,
            node: None,
        });
        completed
            .chain(prior)
            .chain(running)
            .chain(retrying)
            .chain(queued)
    }

    /// Submits a job. Queued jobs are placed when `run` executes; a full
    /// queue rejects with [`AdmitError::Saturated`], whose retry hint is
    /// derived from the fleet's current clocks and backlog.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, AdmitError> {
        let id = JobId(self.next_id);
        let now = self.now();
        let hint = self.saturation_hint();
        // Keep a copy for the journal (the queue consumes the spec);
        // rejected submissions never reach the journal.
        let journaled = self.durable.is_some().then(|| spec.clone());
        let name = spec.name.clone();
        if let Err(e) = self.queue.submit(id, spec, now, hint) {
            self.obs
                .counter_add(Clock::Sim, "nnrt_jobs_rejected_total", &[], 1);
            self.obs.event(
                Clock::Sim,
                EventKind::Reject,
                now,
                None,
                None,
                format!("{name}: queue saturated, retry in {hint:.3}s"),
            );
            return Err(e);
        }
        self.obs
            .counter_add(Clock::Sim, "nnrt_jobs_submitted_total", &[], 1);
        self.obs
            .event(Clock::Sim, EventKind::Admit, now, Some(id.0), None, name);
        self.next_id += 1;
        if let Some(spec) = journaled {
            self.journal_admit(id.0, &spec);
        }
        Ok(id)
    }

    /// Journals job `id`'s admission: its graph's `graph` record first when
    /// the current log file does not hold that body yet, then the `admit`
    /// naming it.
    fn journal_admit(&mut self, id: u64, spec: &JobSpec) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        let (graph, new) = d.graphs.intern(&spec.graph);
        if let Some(rec) = new {
            self.journal_append(rec);
        }
        self.journal_append(admit_record(id, spec, graph));
    }

    /// How long a rejected submitter should wait before retrying: the
    /// earliest simulated time any node frees a slot (now, if one is free
    /// and up), plus the backlog already queued ahead of the caller at the
    /// fleet's mean resident step pace (a documented heuristic of one
    /// second per queued job when nothing is resident yet).
    fn saturation_hint(&self) -> f64 {
        let now = self.now();
        let mut free_slots = 0usize;
        let mut earliest = f64::INFINITY;
        let mut resident_jobs = 0usize;
        let mut resident_step_secs = 0.0;
        let max_jobs = self.config.max_jobs_per_node;
        for n in &self.nodes {
            let free = max_jobs.saturating_sub(n.residents.len());
            free_slots += free;
            resident_jobs += n.residents.len();
            resident_step_secs += n.residents.iter().map(|j| j.report.step_secs).sum::<f64>();
            if free > 0 {
                earliest = earliest.min((n.down_until - now).max(0.0));
            } else {
                // Round-robin: a slot frees when the resident with the
                // fewest remaining steps finishes, one full rotation per
                // step.
                let round: f64 = n.residents.iter().map(|j| j.report.step_secs).sum();
                let min_remaining = n
                    .residents
                    .iter()
                    .map(|j| j.spec.steps.saturating_sub(j.report.steps))
                    .min()
                    .unwrap_or(0);
                let free_at = n.clock + min_remaining as f64 * round;
                earliest = earliest.min((free_at - now).max(0.0));
            }
        }
        if !earliest.is_finite() {
            earliest = 0.0;
        }
        let pace = if resident_jobs > 0 {
            resident_step_secs / resident_jobs as f64
        } else {
            1.0
        };
        let excess = self.queue.len().saturating_sub(free_slots) as f64;
        (earliest + excess * pace).max(0.001)
    }

    /// Per-job profiling seed: decorrelates jobs while keeping the fleet
    /// reproducible from `config.seed`.
    fn job_seed(&self, id: JobId) -> u64 {
        let mut z = self.config.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The node new work should land on at simulated time `now`: least
    /// loaded (then earliest clock, then lowest index) among nodes that are
    /// up and have a free slot, preferring nodes the health probe has not
    /// flagged. Falls back to a flagged node when every healthy node is
    /// full — a slow node beats starving the queue.
    fn placement_node(&self, now: f64) -> Option<usize> {
        let max_jobs = self.config.max_jobs_per_node;
        let pick = |allow_stragglers: bool| {
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.residents.len() < max_jobs && n.down_until <= now)
                .filter(|(_, n)| allow_stragglers || !n.health.is_straggler())
                .min_by(|(ia, a), (ib, b)| {
                    a.residents
                        .len()
                        .cmp(&b.residents.len())
                        .then(a.clock.partial_cmp(&b.clock).expect("finite clocks"))
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
        };
        pick(false).or_else(|| pick(true))
    }

    /// Places queued jobs onto nodes with free slots, least-loaded first.
    fn place_queued(&mut self) {
        while self.queue.peek().is_some() {
            let Some(node_idx) = self.placement_node(self.now()) else {
                return; // every node is full or down; jobs wait
            };
            let job = self.queue.pop().expect("peeked job");
            self.admit_to_node(node_idx, job);
        }
    }

    /// Places a queued job on node `node_idx`: journals and traces the
    /// placement, then warm-starts the job there.
    fn admit_to_node(&mut self, node_idx: usize, job: QueuedJob) {
        if self.durable.is_some() {
            self.journal_append(JournalRecord::Place {
                id: job.id.0,
                node: node_idx as u32,
            });
        }
        let node_clock = self.nodes[node_idx].clock;
        let queue_latency = (node_clock - job.submitted_at).max(0.0);
        self.obs
            .counter_add(Clock::Sim, "nnrt_jobs_placed_total", &[], 1);
        self.obs
            .observe(Clock::Sim, "nnrt_queue_wait_seconds", &[], queue_latency);
        self.obs.event(
            Clock::Sim,
            EventKind::Place,
            node_clock,
            Some(job.id.0),
            Some(node_idx as u32),
            job.spec.name.clone(),
        );
        let running = RunningJob::new(job.id, job.spec, job.submitted_at, queue_latency);
        self.prepare_on_node(node_idx, running, node_clock);
    }

    /// Re-admits a crash-evicted job onto node `node_idx` at time `now`,
    /// resuming from its latest checkpoint and warm-starting from whatever
    /// the shared store still holds.
    fn admit_retry_to_node(&mut self, node_idx: usize, retry: RetryJob, now: f64) {
        let mut job = retry.job;
        let id = JobId(job.report.id);
        if self.durable.is_some() {
            self.journal_append(JournalRecord::Retry {
                id: id.0,
                node: node_idx as u32,
            });
        }
        let resume = job.checkpoint.as_ref().map_or(0, |c| c.steps_done);
        if resume > 0 {
            job.report.checkpoint_restores += 1;
            self.obs
                .counter_add(Clock::Sim, "nnrt_checkpoint_restores_total", &[], 1);
        }
        job.report.retries += 1;
        job.report.steps = resume;
        self.obs
            .counter_add(Clock::Sim, "nnrt_retries_total", &[], 1);
        self.obs.event(
            Clock::Sim,
            EventKind::Retry,
            now,
            Some(id.0),
            Some(node_idx as u32),
            format!("resume from step {resume}"),
        );
        self.prepare_on_node(node_idx, job, now);
    }

    /// Warm-starts `job` on node `node_idx` at time `now`, the core shared
    /// by fresh admissions and crash re-admissions. Profiles the job's graph
    /// on the node's device from whatever the shared store holds, within
    /// the job's remaining profiling budget (keys that do not fit run
    /// degraded), publishes the fitted curves, measures one training step
    /// and merges the result into the job's report. The profiling is charged
    /// to the node's clock, which first catches up with `now`; then the job
    /// becomes resident.
    fn prepare_on_node(&mut self, node_idx: usize, mut job: RunningJob, now: f64) {
        let signature = self.nodes[node_idx].signature;
        let device = self.nodes[node_idx].device.clone();
        let backend = device.backend();
        let id = JobId(job.report.id);
        let graph = &job.spec.graph;
        // The placement's one catalog: its keys drive the store lookup,
        // then the runtime profiles and steps against it.
        let catalog = OpCatalog::new(graph);
        let keys = catalog.keys().to_vec();
        let warm = self.store.lookup(signature, &keys);
        let pool = ProfilerPool::new(self.config.profile_threads);
        let budget = self
            .plan
            .profiling_step_budget
            .map_or(u32::MAX, |b| b.saturating_sub(job.report.profiling_steps));
        let (published, profiling_steps, degraded_keys, step_secs, chrome_trace) = match device {
            // A cluster head profiles exactly like a KNL node (its members
            // are KNLs running the per-node scheduler); the multi-node step
            // is then simulated on top of the measured single-node step.
            Device::Knl(cost) | Device::Cluster(cost) => {
                let mut config = self.config.runtime;
                config.seed = self.job_seed(id);
                let mut runtime =
                    Runtime::prepare_from_catalog(catalog, cost, config, &warm, budget, pool);
                // Per-key climb events come from the merged outcome, which
                // is in canonical key order for every worker count — never
                // from the profiler's worker threads, whose interleaving is
                // wall-clock-dependent.
                let at = self.nodes[node_idx].clock;
                let fit = runtime.fit_outcome();
                for c in &fit.climbs {
                    self.obs.counter_add(
                        Clock::Sim,
                        "nnrt_profile_measurements_total",
                        &[],
                        c.measurements,
                    );
                    self.obs.event(
                        Clock::Sim,
                        EventKind::ProfileClimb,
                        at,
                        Some(id.0),
                        Some(node_idx as u32),
                        format!(
                            "{:?} meas={} climb={} seeded={} degraded={}",
                            c.key, c.measurements, c.longest_climb, c.seeded, c.degraded
                        ),
                    );
                }
                job.report.seeded_keys += fit.seeded_keys;
                job.report.seed_steps_saved += fit.steps_saved;
                runtime.record_trace(self.config.record_traces);
                let step = runtime.run_step(graph);
                let step_secs = if backend == NodeBackend::Cluster {
                    self.cluster_step_secs(node_idx, id, graph, step.total_secs)
                } else {
                    step.total_secs
                };
                (
                    runtime.model().export(),
                    runtime.model().profiling_steps,
                    runtime.degraded_keys().len(),
                    step_secs,
                    self.config
                        .record_traces
                        .then(|| export_chrome_trace(graph, &step.timings)),
                )
            }
            // Cross-shape seeding is a KNL-profiler feature, so GPU jobs
            // leave the seeding counts alone.
            Device::Gpu(spec) => {
                let mut config = self.config.gpu;
                config.profile.seed = self.job_seed(id);
                let runtime =
                    GpuRuntime::prepare_from_catalog(&catalog, spec, config, &warm, budget, pool);
                let step = runtime.run_step(graph);
                let at = self.nodes[node_idx].clock;
                for (lane, ops) in step.lane_summary() {
                    self.obs.event(
                        Clock::Sim,
                        EventKind::StreamLane,
                        at,
                        Some(id.0),
                        Some(node_idx as u32),
                        format!("stream {lane}: {ops} kernels"),
                    );
                }
                self.obs.gauge_set(
                    Clock::Sim,
                    "nnrt_gpu_streams_used",
                    &[("node", &node_idx.to_string())],
                    f64::from(step.streams_used),
                );
                (
                    runtime.profile().export(),
                    runtime.profile().profiling_steps,
                    runtime.degraded_keys().len(),
                    step.total_secs,
                    // One trace lane per CUDA stream.
                    self.config
                        .record_traces
                        .then(|| export_lane_chrome_trace(graph, &step.timings, &step.streams)),
                )
            }
        };
        // Publish what this placement changed. A warm key whose exported
        // curve is the stored one (the runtime imports warm curves and
        // climbs only the missing keys) is only re-stamped as just used;
        // the curves the job fitted are inserted. The journal gets the same
        // delta: it is a write-ahead log over the store, so a crash between
        // snapshot flushes loses no measured key. `published` and `warm`
        // are sorted by key, like the catalog's keys.
        job.fitted_keys = published.iter().map(KeyProfile::key).collect();
        let mut touched = Vec::new();
        let mut fresh = Vec::new();
        for p in published {
            let key = p.key();
            let reused = warm
                .binary_search_by(|w| (w.kind, &w.shape).cmp(&(key.0, &key.1)))
                .is_ok_and(|i| warm[i] == p);
            if reused {
                touched.push(key);
            } else {
                fresh.push(p);
            }
        }
        self.store.publish(signature, &touched, &fresh);
        if self.durable.is_some() {
            self.journal_append(JournalRecord::publication(signature, touched, fresh));
        }

        if job.report.retries == 0 {
            // A fresh admission. The cold first job of each (model, device
            // class) sets the baseline profiling cost; later jobs report how
            // much they skipped.
            let cold_steps = *self
                .cold_steps_by_model
                .entry((job.spec.model.clone(), backend))
                .or_insert(profiling_steps);
            job.report.profiling_steps_saved = cold_steps.saturating_sub(profiling_steps);
        }
        // The key counts describe the job's first admission in this
        // process: its placement, or for a job `recover` resumed, its first
        // re-admission.
        if job.report.total_keys == 0 {
            job.report.warm_keys = warm.len();
            job.report.total_keys = keys.len();
        }
        let profiling_secs = profiling_steps as f64 * step_secs;
        let report = &mut job.report;
        report.node = node_idx as u32;
        report.profiling_steps += profiling_steps;
        report.profiling_secs += profiling_secs;
        report.degraded_keys = degraded_keys;
        report.step_secs = step_secs;
        report.chrome_trace = chrome_trace;

        let node = &mut self.nodes[node_idx];
        node.clock = node.clock.max(now) + profiling_secs;
        node.residents.push_back(job);
    }

    /// Simulates one multi-node training step of `graph` on the cluster a
    /// cluster-head node fronts: per-op durations come from the measured
    /// single-node step (so the S1–S4 scheduling advantage carries over),
    /// then gradients traverse interconnect links as events under the
    /// configured overlap strategy. Emits the comm telemetry — overlap
    /// fraction and per-link utilization gauges, a bytes-on-wire counter,
    /// and one `cluster_comm` event — and returns the cluster step time.
    fn cluster_step_secs(
        &mut self,
        node_idx: usize,
        id: JobId,
        graph: &DataflowGraph,
        single_node_secs: f64,
    ) -> f64 {
        let cfg = self.config.cluster.clone();
        let op_secs = nnrt_cluster::per_op_secs(graph, single_node_secs);
        let report = match cfg.mode {
            ClusterMode::DataParallel => {
                nnrt_cluster::simulate_data_parallel(graph, &op_secs, &cfg)
            }
            ClusterMode::Pipeline => {
                let (stages, cuts) = nnrt_cluster::pipeline_stage_profile(
                    graph,
                    cfg.nodes,
                    single_node_secs,
                    cfg.microbatches,
                );
                nnrt_cluster::simulate_pipeline(&stages, &cuts, &cfg)
            }
        };
        let node_label = node_idx.to_string();
        self.obs.gauge_set(
            Clock::Sim,
            "nnrt_cluster_overlap_fraction",
            &[("node", &node_label)],
            report.overlap_fraction,
        );
        self.obs.counter_add(
            Clock::Sim,
            "nnrt_cluster_bytes_on_wire_total",
            &[("node", &node_label)],
            report.bytes_on_wire as u64,
        );
        for (link, util) in report.link_utilization.iter().enumerate() {
            self.obs.gauge_set(
                Clock::Sim,
                "nnrt_cluster_link_utilization",
                &[("node", &node_label), ("link", &link.to_string())],
                *util,
            );
        }
        let at = self.nodes[node_idx].clock;
        self.obs.event(
            Clock::Sim,
            EventKind::ClusterComm,
            at,
            Some(id.0),
            Some(node_idx as u32),
            format!(
                "{} {} n={} makespan={:.6}s comm={:.6}s overlap={:.3} wire={:.0}B",
                report.mode.name(),
                report.strategy.name(),
                report.nodes,
                report.makespan_secs,
                report.comm_secs,
                report.overlap_fraction,
                report.bytes_on_wire,
            ),
        );
        report.makespan_secs
    }

    /// Firing time of the next unfired fault, if any.
    fn pending_event_at(&self) -> Option<f64> {
        self.plan.events.get(self.event_cursor).map(|e| e.at())
    }

    /// Earliest re-admission eligibility among evicted jobs, if any.
    fn pending_retry_at(&self) -> Option<f64> {
        self.retries.iter().map(|r| r.eligible_at).reduce(f64::min)
    }

    /// Fires the next scheduled fault against the fleet.
    fn fire_next_event(&mut self) {
        let event = self.plan.events[self.event_cursor].clone();
        self.event_cursor += 1;
        match event {
            FaultEvent::NodeCrash {
                node,
                at,
                down_secs,
            } => {
                let idx = node as usize % self.nodes.len();
                let n = &mut self.nodes[idx];
                // The crash lands at the node's next step boundary.
                let start = n.clock.max(at);
                n.down_until = start + down_secs.max(0.0);
                n.downtime += down_secs.max(0.0);
                n.clock = n.down_until;
                n.health.reset();
                let evicted: Vec<RunningJob> = n.residents.drain(..).collect();
                self.obs.counter_add(
                    Clock::Sim,
                    "nnrt_faults_injected_total",
                    &[("kind", "crash")],
                    1,
                );
                self.obs.event(
                    Clock::Sim,
                    EventKind::Crash,
                    start,
                    None,
                    Some(idx as u32),
                    format!(
                        "down {:.3}s, {} jobs evicted",
                        down_secs.max(0.0),
                        evicted.len()
                    ),
                );
                for job in evicted {
                    if self.durable.is_some() {
                        self.journal_append(JournalRecord::Evict {
                            id: job.report.id,
                            at: start,
                        });
                    }
                    self.obs
                        .counter_add(Clock::Sim, "nnrt_evictions_total", &[], 1);
                    self.obs.event(
                        Clock::Sim,
                        EventKind::Evict,
                        start,
                        Some(job.report.id),
                        Some(idx as u32),
                        format!("at step {}", job.report.steps),
                    );
                    self.retries.push(RetryJob {
                        job,
                        eligible_at: start + INITIAL_BACKOFF_SECS,
                        backoff_secs: INITIAL_BACKOFF_SECS,
                    });
                }
            }
            FaultEvent::NodeSlowdown {
                node,
                at,
                factor,
                duration_secs,
            } => {
                let idx = node as usize % self.nodes.len();
                let n = &mut self.nodes[idx];
                n.slow_factor = factor.max(1.0);
                n.slow_until = at + duration_secs.max(0.0);
                self.obs.counter_add(
                    Clock::Sim,
                    "nnrt_faults_injected_total",
                    &[("kind", "slowdown")],
                    1,
                );
                self.obs.event(
                    Clock::Sim,
                    EventKind::Slowdown,
                    at,
                    None,
                    Some(idx as u32),
                    format!("{:.2}x for {:.3}s", factor.max(1.0), duration_secs.max(0.0)),
                );
            }
            FaultEvent::StoreCorruption { at, drop_fraction } => {
                self.store
                    .corrupt_deterministic(self.plan.seed, drop_fraction);
                self.obs.counter_add(
                    Clock::Sim,
                    "nnrt_faults_injected_total",
                    &[("kind", "corruption")],
                    1,
                );
                self.obs.event(
                    Clock::Sim,
                    EventKind::Corruption,
                    at,
                    None,
                    None,
                    format!("dropped {:.0}% of the store", drop_fraction * 100.0),
                );
            }
        }
    }

    /// Attempts to re-admit every evicted job whose backoff has elapsed by
    /// `now`; failed attempts double their backoff (capped) so the loop
    /// always makes progress.
    fn try_admit_retries(&mut self, now: f64) {
        // Deterministic attempt order: eligibility time, then job id.
        self.retries.sort_by(|a, b| {
            a.eligible_at
                .partial_cmp(&b.eligible_at)
                .expect("finite backoff times")
                .then(a.job.report.id.cmp(&b.job.report.id))
        });
        let mut i = 0;
        while i < self.retries.len() {
            if self.retries[i].eligible_at > now {
                i += 1;
                continue;
            }
            match self.placement_node(now) {
                Some(node_idx) => {
                    let retry = self.retries.remove(i);
                    self.admit_retry_to_node(node_idx, retry, now);
                }
                None => {
                    let retry = &mut self.retries[i];
                    retry.backoff_secs = (retry.backoff_secs * 2.0).min(MAX_BACKOFF_SECS);
                    retry.eligible_at = now + retry.backoff_secs;
                    i += 1;
                }
            }
        }
    }

    /// The busy node with the earliest clock (lowest index on ties).
    fn next_busy_node(&self) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.residents.is_empty())
            .min_by(|(ia, a), (ib, b)| {
                a.clock
                    .partial_cmp(&b.clock)
                    .expect("finite clocks")
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i)
    }

    /// Executes one training step of `node_idx`'s front resident job,
    /// applying any active slowdown, feeding the health probe, and writing
    /// a checkpoint every `checkpoint_interval` steps.
    fn step_node(&mut self, node_idx: usize) {
        let node = &mut self.nodes[node_idx];
        let mut job = node.residents.pop_front().expect("busy node");
        let slow = if node.clock < node.slow_until {
            node.slow_factor
        } else {
            1.0
        };
        let measured = job.report.step_secs * slow;
        node.clock += measured;
        node.health.observe(job.report.step_secs, measured);
        job.report.steps += 1;
        let clock = node.clock;
        let id = JobId(job.report.id);
        let steps_done = job.report.steps;
        let interval = self.config.checkpoint_interval;
        if steps_done < job.spec.steps {
            if interval > 0 && steps_done.is_multiple_of(interval) {
                job.checkpoint = Some(Checkpoint {
                    steps_done,
                    fitted_keys: job.fitted_keys.clone(),
                    at: clock,
                });
                self.checkpoint_writes += 1;
                self.obs
                    .counter_add(Clock::Sim, "nnrt_checkpoint_writes_total", &[], 1);
                self.obs.event(
                    Clock::Sim,
                    EventKind::Checkpoint,
                    clock,
                    Some(id.0),
                    Some(node_idx as u32),
                    format!("step {steps_done}"),
                );
                if self.durable.is_some() {
                    self.journal_append(JournalRecord::Checkpoint {
                        id: id.0,
                        steps_done,
                        at: clock,
                        fitted_keys: job.fitted_keys.clone(),
                    });
                }
            }
            self.nodes[node_idx].residents.push_back(job);
        } else {
            self.obs
                .counter_add(Clock::Sim, "nnrt_jobs_completed_total", &[], 1);
            self.obs.observe(
                Clock::Sim,
                "nnrt_job_duration_seconds",
                &[],
                (clock - job.report.submitted_at).max(0.0),
            );
            self.obs.event(
                Clock::Sim,
                EventKind::Complete,
                clock,
                Some(id.0),
                Some(node_idx as u32),
                format!("{} ({steps_done} steps)", job.spec.name),
            );
            if self.durable.is_some() {
                self.journal_append(JournalRecord::Complete {
                    id: id.0,
                    name: job.spec.name,
                    model: job.spec.model,
                    steps: steps_done,
                    node: node_idx as u32,
                    at: clock,
                });
            }
            job.report.completed_at = clock;
            self.completed.push(job.report);
            self.place_queued();
        }
    }

    /// Runs every queued, resident, and evicted job to completion through
    /// [`Fleet::tick`] and reports. Faults from the armed plan fire in time
    /// order at step boundaries of the simulated clock.
    pub fn run(&mut self) -> FleetReport {
        while self.tick() {}
        // The drained fleet is itself a consistent cut: after this flush the
        // journal holds a Complete record for every job the run finished.
        self.flush_durable();
        self.report()
    }

    /// Advances the fleet by one unit of work — placing queued jobs on
    /// free slots, then firing the next fault, re-admitting eligible
    /// evicted jobs, or executing one training step — and returns whether
    /// anything happened. `false` means the fleet is fully drained and only
    /// a new submission can create work. This is the incremental driver an
    /// external service loop interleaves with command handling.
    /// [`Fleet::run`] is this loop, so a fleet drained through `tick` and
    /// then [`Fleet::report`] gives `run`'s report by construction.
    pub fn tick(&mut self) -> bool {
        self.place_queued();
        let busy = self.next_busy_node();
        // The time at which the next thing happens.
        let frontier = match busy {
            Some(i) => self.nodes[i].clock,
            None => {
                let pending = [self.pending_event_at(), self.pending_retry_at()]
                    .into_iter()
                    .flatten()
                    .reduce(f64::min);
                match pending {
                    Some(t) => t,
                    None => return false, // fully drained
                }
            }
        };
        if self.pending_event_at().is_some_and(|at| at <= frontier) {
            self.fire_next_event();
            self.try_admit_retries(frontier);
            self.place_queued();
        } else if self.pending_retry_at().is_some_and(|at| at <= frontier) {
            self.try_admit_retries(frontier);
        } else {
            // `frontier` came from a pending event or retry unless a node
            // is busy, and the branches above consume those.
            let node_idx = busy.expect("idle fleet with nothing pending");
            self.step_node(node_idx);
        }
        self.maybe_flush_durable();
        true
    }

    /// Jobs completed in previous process incarnations, recovered from the
    /// journal (empty unless this fleet came from [`Fleet::recover`]).
    pub fn prior_completed(&self) -> &[PriorCompleted] {
        &self.prior_completed
    }

    /// Rebuilds a fleet from the durable directory named by
    /// `config.durability` after the previous process died.
    ///
    /// The snapshot (if present) seeds the store; journaled `store_insert`
    /// deltas past the snapshot cut are re-applied on top (fitted curves
    /// inserted, touched keys re-stamped), so no measured key is lost at
    /// *any* crash point. Jobs classify three ways, exactly partitioning
    /// the admitted set:
    ///
    /// * **completed** — a `complete` record exists; kept as
    ///   [`PriorCompleted`] (status queries keep answering, rotation keeps
    ///   re-recording them) but excluded from the new incarnation's report.
    /// * **resumed** — admitted and placed but not completed; re-enters via
    ///   the retry path at simulated time 0 and resumes from its latest
    ///   journaled checkpoint (work past that checkpoint is redone — its
    ///   report honestly shows `retries >= 1`).
    /// * **re-queued** — admitted but never placed; re-enqueued under its
    ///   original id, and ids preserve the original admission order.
    ///
    /// A torn journal tail (the normal aftermath of `kill -9` mid-append)
    /// is discarded and reported; a structurally bad journal or snapshot is
    /// a typed [`RecoverError`]. The recovered fleet runs on the same
    /// node/backend layout as `config` describes (heterogeneous
    /// [`Fleet::with_backends`] fleets are not recoverable — pass the same
    /// uniform config the original run used). The fault plan is *not*
    /// restored; a recovered run starts fault-free. Recovery ends by
    /// cutting a fresh snapshot+journal pair, so a crash during a crash
    /// recovers from this cut rather than from scratch.
    pub fn recover(config: FleetConfig) -> Result<(Fleet, RecoveryReport), RecoverError> {
        let durability = config.durability.clone().ok_or(RecoverError::NotDurable)?;
        let dir = &durability.dir;
        let snapshot_text = match std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(RecoverError::Io(e)),
        };
        let journal_bytes = match std::fs::read(dir.join(JOURNAL_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(RecoverError::Io(e)),
        };
        let rep = replay(&journal_bytes);
        // The header always arrives whole (rotation renames a complete
        // file), so a log that fails to lead with this build's header is
        // the wrong file, not a torn tail.
        match rep.records.first() {
            Some(JournalRecord::Header { format, version }) => {
                if format != JOURNAL_FORMAT {
                    return Err(RecoverError::Journal(format!(
                        "journal format `{format}` is not `{JOURNAL_FORMAT}`"
                    )));
                }
                if *version != JOURNAL_VERSION {
                    return Err(RecoverError::Journal(format!(
                        "journal version {version} is not supported (expected {JOURNAL_VERSION})"
                    )));
                }
            }
            Some(other) => {
                return Err(RecoverError::Journal(format!(
                    "journal does not start with a header record (found `{}`)",
                    other.tag()
                )))
            }
            None if !journal_bytes.is_empty() => {
                return Err(RecoverError::Journal(format!(
                    "journal has no decodable header: {}",
                    rep.torn
                        .as_ref()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "empty replay".to_string())
                )))
            }
            None => {}
        }

        // Build the fleet with durability detached: attaching it now would
        // rotate the very journal being recovered before its state is back.
        let mut shadow = config.clone();
        shadow.durability = None;
        let backends = vec![shadow.backend; shadow.node_count as usize];
        let mut fleet = Fleet::with_backends(shadow, backends, Arc::new(ProfileStore::new()));

        let snapshot_restored = snapshot_text.is_some();
        let mut keys_restored = 0usize;
        if let Some(text) = snapshot_text {
            keys_restored = fleet.store.restore(&text).map_err(RecoverError::Snapshot)?;
        }

        struct AdmittedJob {
            spec: JobSpec,
            placed: bool,
        }
        let mut graphs: HashMap<u64, DataflowGraph> = HashMap::new();
        let mut admitted: BTreeMap<u64, AdmittedJob> = BTreeMap::new();
        let mut completed: Vec<PriorCompleted> = Vec::new();
        let mut checkpoints: BTreeMap<u64, Checkpoint> = BTreeMap::new();
        let mut store_delta_keys = 0usize;
        let journal_records = rep.records.len().saturating_sub(1);
        for rec in rep.records.into_iter().skip(1) {
            match rec {
                JournalRecord::Header { .. } => {
                    return Err(RecoverError::Journal(
                        "duplicate header record mid-log".to_string(),
                    ));
                }
                JournalRecord::Graph { id, graph } => {
                    graphs.insert(id, graph);
                }
                JournalRecord::Admit {
                    id,
                    name,
                    model,
                    steps,
                    priority,
                    weight,
                    graph,
                } => {
                    // Jobs naming one record share its body.
                    let graph = graphs.get(&graph).cloned().ok_or_else(|| {
                        RecoverError::Journal(format!(
                            "job {id} names graph record {graph}, which no earlier record defines"
                        ))
                    })?;
                    admitted.insert(
                        id,
                        AdmittedJob {
                            spec: JobSpec {
                                name,
                                model,
                                graph,
                                steps,
                                priority,
                                weight,
                            },
                            placed: false,
                        },
                    );
                }
                JournalRecord::Place { id, .. }
                | JournalRecord::Retry { id, .. }
                | JournalRecord::Evict { id, .. } => {
                    if let Some(j) = admitted.get_mut(&id) {
                        j.placed = true;
                    }
                }
                JournalRecord::StoreInsert { machine, profiles } => {
                    store_delta_keys += profiles.len();
                    fleet.store.insert_many(machine, &profiles);
                }
                JournalRecord::StorePublish {
                    machine,
                    touched,
                    profiles,
                } => {
                    store_delta_keys += profiles.len();
                    fleet.store.publish(machine, &touched, &profiles);
                }
                JournalRecord::Checkpoint {
                    id,
                    steps_done,
                    at,
                    fitted_keys,
                } => {
                    if let Some(j) = admitted.get_mut(&id) {
                        j.placed = true;
                    }
                    checkpoints.insert(
                        id,
                        Checkpoint {
                            steps_done,
                            fitted_keys,
                            at,
                        },
                    );
                }
                JournalRecord::Complete {
                    id,
                    name,
                    model,
                    steps,
                    node,
                    at,
                } => {
                    admitted.remove(&id);
                    checkpoints.remove(&id);
                    completed.push(PriorCompleted {
                        id,
                        name,
                        model,
                        steps,
                        node,
                        completed_at: at,
                    });
                }
            }
        }
        completed.sort_by_key(|c| c.id);

        // Ids keep flowing past everything any incarnation ever assigned.
        fleet.next_id = admitted
            .keys()
            .next_back()
            .copied()
            .into_iter()
            .chain(completed.iter().map(|c| c.id))
            .max()
            .map_or(0, |m| m + 1);

        let mut jobs_resumed = Vec::new();
        let mut jobs_requeued = Vec::new();
        for (id, job) in admitted {
            if job.placed {
                // The retry path re-profiles on whatever node takes the job
                // and resumes from the journaled checkpoint, accounting the
                // restart honestly as a retry. A restored checkpoint counts
                // as a write of this fleet's.
                let mut running = RunningJob::new(JobId(id), job.spec, 0.0, 0.0);
                running.checkpoint = checkpoints.remove(&id);
                fleet.checkpoint_writes += u64::from(running.checkpoint.is_some());
                fleet.retries.push(RetryJob {
                    job: running,
                    eligible_at: 0.0,
                    backoff_secs: INITIAL_BACKOFF_SECS,
                });
                jobs_resumed.push(id);
            } else {
                // BTreeMap iteration is id order = original admission
                // order; the queue re-ranks by priority exactly as the
                // original submissions did.
                fleet
                    .queue
                    .submit(JobId(id), job.spec, 0.0, 0.0)
                    .map_err(|e| {
                        RecoverError::Journal(format!("journaled job {id} no longer admits: {e}"))
                    })?;
                jobs_requeued.push(id);
            }
        }
        fleet.prior_completed = completed;

        let report = RecoveryReport {
            journal_records,
            torn_tail: rep.torn.map(|e| e.to_string()),
            torn_bytes_discarded: rep.discarded_bytes as u64,
            snapshot_restored,
            keys_restored,
            store_delta_keys,
            jobs_resumed,
            jobs_requeued,
            jobs_completed: fleet.prior_completed.clone(),
        };

        // Re-arm durability: cut a fresh consistent pair so a crash during
        // (or right after) recovery replays from here.
        fleet.config.durability = Some(durability);
        fleet.init_durable();
        Ok((fleet, report))
    }

    /// The fleet's statistics as of now. [`Fleet::run`] returns this after
    /// draining; a server driving the fleet through [`Fleet::tick`] calls it
    /// at shutdown (or any time in between) instead.
    pub fn report(&self) -> FleetReport {
        self.refresh_obs_gauges();
        let jobs = self.completed.clone();
        let store_stats = self.store.stats();
        let makespan = self.nodes.iter().map(|n| n.clock).fold(0.0, f64::max);
        let total_steps: u64 = jobs.iter().map(|j| j.steps as u64).sum();
        let latencies: Vec<f64> = jobs.iter().map(|j| j.queue_latency_secs).collect();
        FleetReport {
            nodes: self.nodes.len() as u32,
            makespan_secs: makespan,
            total_steps,
            steps_per_sec: if makespan > 0.0 {
                total_steps as f64 / makespan
            } else {
                0.0
            },
            profiling_steps_total: jobs.iter().map(|j| j.profiling_steps as u64).sum(),
            profiling_steps_saved_total: jobs.iter().map(|j| j.profiling_steps_saved as u64).sum(),
            mean_queue_latency_secs: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            },
            max_queue_latency_secs: latencies.iter().cloned().fold(0.0, f64::max),
            rejected: self.queue.rejections(),
            store_entries: self.store.len(),
            store_hits: store_stats.hits,
            store_misses: store_stats.misses,
            store_evictions: store_stats.evictions,
            store_evicted_bytes: store_stats.evicted_bytes,
            seeded_keys_total: jobs.iter().map(|j| j.seeded_keys as u64).sum(),
            seed_steps_saved_total: jobs.iter().map(|j| j.seed_steps_saved as u64).sum(),
            faults_injected: self.event_cursor,
            retries_total: jobs.iter().map(|j| j.retries as u64).sum(),
            checkpoint_restores_total: jobs.iter().map(|j| j.checkpoint_restores as u64).sum(),
            degraded_keys_total: jobs.iter().map(|j| j.degraded_keys as u64).sum(),
            checkpoint_writes: self.checkpoint_writes,
            node_downtime_secs: self.nodes.iter().map(|n| n.downtime).collect(),
            durability_disabled: self.durability_disabled,
            metrics: self
                .obs
                .enabled()
                .then(|| self.obs.expose(Some(Clock::Sim))),
            jobs,
        }
    }

    /// Recomputes every point-in-time gauge from fleet state. Idempotent
    /// and sim-domain only, so calling it at arbitrary wall moments (each
    /// `Request::Metrics`) cannot perturb the final exposition: the gauge
    /// *set* is fixed and [`Fleet::report`] refreshes once more at the end.
    pub fn refresh_obs_gauges(&self) {
        if !self.obs.enabled() {
            return;
        }
        let sim = Clock::Sim;
        self.obs
            .gauge_set(sim, "nnrt_queue_depth", &[], self.queue.len() as f64);
        let running: usize = self.nodes.iter().map(|n| n.residents.len()).sum();
        for (phase, count) in [
            ("queued", self.queue.len()),
            ("running", running),
            ("retrying", self.retries.len()),
            (
                "completed",
                self.completed.len() + self.prior_completed.len(),
            ),
        ] {
            self.obs
                .gauge_set(sim, "nnrt_jobs", &[("phase", phase)], count as f64);
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            let labels = [("node", idx.to_string())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            self.obs.gauge_set(
                sim,
                "nnrt_node_resident_jobs",
                &labels,
                node.residents.len() as f64,
            );
            self.obs.gauge_set(sim, "nnrt_node_utilization", &labels, {
                node.residents.len() as f64 / self.config.max_jobs_per_node as f64
            });
            self.obs
                .gauge_set(sim, "nnrt_node_clock_seconds", &labels, node.clock);
            self.obs
                .gauge_set(sim, "nnrt_node_downtime_seconds", &labels, node.downtime);
        }
        let stats = self.store.stats();
        self.obs
            .gauge_set(sim, "nnrt_store_entries", &[], self.store.len() as f64);
        self.obs
            .gauge_set(sim, "nnrt_store_hits", &[], stats.hits as f64);
        self.obs
            .gauge_set(sim, "nnrt_store_misses", &[], stats.misses as f64);
        self.obs
            .gauge_set(sim, "nnrt_store_evictions", &[], stats.evictions as f64);
        self.obs
            .gauge_set(sim, "nnrt_store_hit_rate", &[], stats.hit_rate());
        self.obs.gauge_set(
            sim,
            "nnrt_queue_rejections",
            &[],
            self.queue.rejections() as f64,
        );
        // The durability flag is wall-domain: whether it trips depends on
        // real disks, and a durable run's sim exposition must stay
        // byte-identical to an in-memory run's.
        self.obs.gauge_set(
            Clock::Wall,
            "nnrt_durability_disabled",
            &[],
            u8::from(self.durability_disabled).into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_gpu::GpuStrategy;

    fn job(name: &str, batch: usize) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            model: "dcgan".to_string(),
            graph: nnrt_models::dcgan(batch).graph,
            steps: 2,
            priority: 0,
            weight: 1.0,
        }
    }

    /// A durable one-node config in a fresh scratch directory, with no
    /// periodic flush, so the journal only rotates when a test asks.
    fn durable_config(tag: &str) -> (FleetConfig, PathBuf) {
        let dir = std::env::temp_dir().join(format!("nnrt-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durability = DurabilityConfig::new(&dir);
        durability.flush_interval_secs = f64::INFINITY;
        let config = FleetConfig {
            node_count: 1,
            max_jobs_per_node: 1,
            durability: Some(durability),
            ..FleetConfig::default()
        };
        (config, dir)
    }

    fn spec_on(name: &str, graph: &DataflowGraph) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            model: "dcgan".to_string(),
            graph: graph.clone(),
            steps: 2,
            priority: 0,
            weight: 1.0,
        }
    }

    /// `(graph record ids, graph ids the admits name)` of the journal in
    /// `dir`, in log order, checking that every admit names an earlier
    /// graph record.
    fn graph_refs(dir: &std::path::Path) -> (Vec<u64>, Vec<u64>) {
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists");
        let (mut defined, mut named) = (Vec::new(), Vec::new());
        for rec in replay(&bytes).records {
            match rec {
                JournalRecord::Graph { id, .. } => defined.push(id),
                JournalRecord::Admit { graph, .. } => {
                    assert!(defined.contains(&graph), "admit names graph {graph} early");
                    named.push(graph);
                }
                _ => {}
            }
        }
        (defined, named)
    }

    #[test]
    fn rotation_writes_one_graph_record_per_distinct_live_body() {
        let (config, dir) = durable_config("graph-records");
        let a = nnrt_models::dcgan(4).graph;
        let apart = nnrt_models::dcgan(4).graph;
        let c = nnrt_models::dcgan(8).graph;
        assert_eq!(a, apart, "equal graphs built apart are still two bodies");
        let mut fleet = Fleet::new(config);
        for (i, g) in [&a, &c, &a, &apart, &c, &a].into_iter().enumerate() {
            fleet.submit(spec_on(&format!("j{i}"), g)).unwrap();
        }
        assert_eq!(graph_refs(&dir), (vec![0, 1, 2], vec![0, 1, 0, 2, 1, 0]));

        // Run one job to completion so the cut drops it, then rotate: the
        // new file numbers the live bodies from 0 in first-write order.
        while fleet.completed.is_empty() {
            assert!(fleet.tick());
        }
        fleet.flush_durable();
        assert_eq!(graph_refs(&dir), (vec![0, 1, 2], vec![0, 1, 2, 0, 1]));

        // Appends after the cut name the prologue's records, and a new
        // body gets the next id of this file.
        fleet.submit(spec_on("j6", &apart)).unwrap();
        fleet
            .submit(spec_on("j7", &nnrt_models::dcgan(2).graph))
            .unwrap();
        let (defined, named) = graph_refs(&dir);
        assert_eq!(defined, vec![0, 1, 2, 3]);
        assert_eq!(named[named.len() - 2..], [2, 3]);

        // Once every job has finished, the final cut holds no graph.
        fleet.run();
        assert_eq!(graph_refs(&dir), (vec![], vec![]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_jobs_naming_one_graph_record_share_its_body() {
        let (config, dir) = durable_config("graph-sharing");
        let a = nnrt_models::dcgan(4).graph;
        let b = nnrt_models::dcgan(8).graph;
        let mut fleet = Fleet::new(config.clone());
        for (i, g) in [&a, &b, &a, &a, &b].into_iter().enumerate() {
            fleet.submit(spec_on(&format!("j{i}"), g)).unwrap();
        }
        // Place one job, so recovery takes both the retry and queue paths.
        assert!(fleet.tick());
        drop(fleet);

        let (recovered, report) = Fleet::recover(config).expect("recovers");
        assert_eq!(report.jobs_resumed.len(), 1);
        assert_eq!(report.jobs_requeued.len(), 4);
        let specs: Vec<&JobSpec> = recovered
            .retries
            .iter()
            .map(|r| &r.job.spec)
            .chain(recovered.queue.iter().map(|q| &q.spec))
            .collect();
        for x in &specs {
            for y in &specs {
                assert_eq!(
                    x.graph.same_body(&y.graph),
                    x.graph == y.graph,
                    "{} and {}",
                    x.name,
                    y.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Steps `fleet` one tick at a time, checking after every tick that
    /// `list_jobs` equals the per-id `job_status` scan. A node crash is armed
    /// once the first job completes, so the walk passes through states with
    /// queued, running, retrying and completed jobs at once.
    #[test]
    fn list_jobs_matches_per_id_job_status_in_every_phase() {
        let mut fleet = Fleet::new(FleetConfig {
            node_count: 2,
            max_jobs_per_node: 1,
            ..FleetConfig::default()
        });
        let mut graph = DataflowGraph::new();
        graph.add_op(
            nnrt_graph::OpKind::MatMul,
            nnrt_graph::Shape(vec![8, 8]),
            &[],
        );
        for i in 0..8 {
            fleet
                .submit(JobSpec {
                    name: format!("tiny-{i}"),
                    model: "tiny".to_string(),
                    graph: graph.clone(),
                    steps: 3 + i,
                    priority: 0,
                    weight: 1.0,
                })
                .unwrap();
        }
        let mut armed = false;
        let mut seen_all_phases = false;
        loop {
            let per_id: Vec<JobStatus> = (0..fleet.next_job_id())
                .filter_map(|id| fleet.job_status(JobId(id)))
                .collect();
            let listed = fleet.list_jobs();
            assert_eq!(listed, per_id);
            // Both paths share one scan, so also pin it to the fleet's lists.
            for j in &listed {
                let id = JobId(j.id);
                let resident_on = fleet
                    .nodes
                    .iter()
                    .position(|n| n.residents.iter().any(|r| r.report.id == j.id));
                let (phase, node) = if let Some(c) = fleet.completed.iter().find(|c| c.id == j.id) {
                    (JobPhase::Completed, Some(c.node))
                } else if let Some(n) = resident_on {
                    (JobPhase::Running, Some(n as u32))
                } else if fleet.retries.iter().any(|r| r.job.report.id == j.id) {
                    (JobPhase::Retrying, None)
                } else {
                    assert!(fleet.queue.iter().any(|q| q.id == id));
                    (JobPhase::Queued, None)
                };
                assert_eq!((j.phase, j.node), (phase, node), "job {}", j.id);
            }
            let phases: Vec<JobPhase> = listed.iter().map(|j| j.phase).collect();
            seen_all_phases |= [
                JobPhase::Queued,
                JobPhase::Running,
                JobPhase::Retrying,
                JobPhase::Completed,
            ]
            .iter()
            .all(|p| phases.contains(p));
            if !armed && phases.contains(&JobPhase::Completed) {
                let node = fleet.nodes.iter().position(|n| !n.residents.is_empty());
                fleet.set_fault_plan(FaultPlan {
                    events: vec![FaultEvent::NodeCrash {
                        node: node.expect("a resident job") as u32,
                        at: fleet.now(),
                        down_secs: 1.0,
                    }],
                    ..FaultPlan::none()
                });
                armed = true;
            }
            if !fleet.tick() {
                break;
            }
        }
        assert!(seen_all_phases, "the walk never held every phase at once");
        assert_eq!(fleet.list_jobs().len(), 8);
    }

    fn gpu_config() -> FleetConfig {
        FleetConfig {
            node_count: 1,
            backend: NodeBackend::Gpu,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn gpu_fleet_serves_jobs_and_warm_starts_later_ones() {
        let mut fleet = Fleet::new(gpu_config());
        fleet.submit(job("dcgan-0", 4)).unwrap();
        fleet.submit(job("dcgan-1", 4)).unwrap();
        let report = fleet.run();
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs.iter().all(|j| j.steps == 2));
        // The second job found every curve already in the shared store.
        assert!(report.profiling_steps_saved_total > 0);
        let second = report.jobs.iter().find(|j| j.name == "dcgan-1").unwrap();
        assert_eq!(second.warm_keys, second.total_keys);
        assert_eq!(second.profiling_steps, 0);
    }

    #[test]
    fn gpu_curves_never_leak_into_knl_signatures() {
        // Satellite: heterogeneous stores keep device classes separate by
        // construction — a GPU-only run must populate only GPU signatures.
        let mut fleet = Fleet::new(gpu_config());
        fleet.submit(job("dcgan-0", 4)).unwrap();
        let report = fleet.run();
        assert_eq!(report.jobs.len(), 1);

        let store = fleet.store().clone();
        assert!(!store.is_empty(), "the GPU job must publish curves");
        let gpu_sig = GpuSpec::p100().signature();
        let knl_sig = KnlCostModel::knl().signature();
        let keys = OpCatalog::new(&nnrt_models::dcgan(4).graph).keys().to_vec();
        assert!(keys.iter().any(|k| store.contains(gpu_sig, k)));
        assert!(keys.iter().all(|k| !store.contains(knl_sig, k)));

        // And a KNL fleet sharing the same store starts cold: nothing the
        // GPU measured is visible under the KNL signature.
        let mut knl = Fleet::with_backends(
            FleetConfig {
                node_count: 1,
                ..FleetConfig::default()
            },
            vec![NodeBackend::Knl],
            store,
        );
        knl.submit(job("dcgan-knl", 4)).unwrap();
        let knl_report = knl.run();
        let j = &knl_report.jobs[0];
        assert_eq!(
            j.warm_keys, 0,
            "KNL job must not warm-start from GPU curves"
        );
        assert!(j.profiling_steps > 0);
    }

    #[test]
    fn mixed_fleet_keeps_per_class_warm_paths() {
        let config = FleetConfig {
            node_count: 2,
            max_jobs_per_node: 1,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::with_backends(
            config,
            vec![NodeBackend::Knl, NodeBackend::Gpu],
            Arc::new(ProfileStore::new()),
        );
        for i in 0..4 {
            fleet.submit(job(&format!("dcgan-{i}"), 4)).unwrap();
        }
        let report = fleet.run();
        assert_eq!(report.jobs.len(), 4);
        // Both device classes ended up hosting work, and each class's later
        // jobs warm-started from its own earlier jobs only.
        let nodes_used: std::collections::HashSet<u32> =
            report.jobs.iter().map(|j| j.node).collect();
        assert_eq!(nodes_used.len(), 2, "both nodes must host jobs");
        for node in [0u32, 1] {
            let mut on_node: Vec<_> = report.jobs.iter().filter(|j| j.node == node).collect();
            on_node.sort_by_key(|j| j.id);
            assert!(!on_node.is_empty());
            assert!(
                on_node[0].profiling_steps > 0,
                "first job per class is cold"
            );
            for later in &on_node[1..] {
                assert_eq!(
                    later.profiling_steps, 0,
                    "later jobs on the same device class are fully warm"
                );
            }
        }
    }

    #[test]
    fn gpu_fleet_report_is_byte_identical_at_any_profile_thread_count() {
        // Satellite/acceptance: the GPU fleet honors the same determinism
        // contract as the KNL fleet — worker count only changes wall-clock.
        let run_with = |threads: usize| {
            let mut fleet = Fleet::new(FleetConfig {
                profile_threads: threads,
                record_traces: true,
                ..gpu_config()
            });
            fleet.submit(job("dcgan-0", 4)).unwrap();
            fleet.submit(job("dcgan-1", 8)).unwrap();
            fleet.run().to_json()
        };
        assert_eq!(run_with(1), run_with(4));
    }

    fn cluster_config() -> FleetConfig {
        FleetConfig {
            node_count: 1,
            backend: NodeBackend::Cluster,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn cluster_fleet_report_is_byte_identical_at_any_profile_thread_count() {
        // Acceptance: the multi-node simulator is a pure function of the
        // measured step, so the cluster backend inherits the fleet's
        // determinism contract — worker count only changes wall-clock.
        let run_with = |threads: usize| {
            let mut fleet = Fleet::new(FleetConfig {
                profile_threads: threads,
                ..cluster_config()
            });
            fleet.submit(job("dcgan-0", 4)).unwrap();
            fleet.submit(job("dcgan-1", 8)).unwrap();
            fleet.run().to_json()
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn cluster_backend_adds_comm_time_and_emits_telemetry() {
        // The same job on a cluster head takes at least as long per step as
        // on a bare KNL node (gradient sync is never free), and the report
        // exposes the comm telemetry.
        let mut knl = Fleet::new(FleetConfig::default());
        knl.submit(job("dcgan-0", 4)).unwrap();
        let knl_step = knl.run().jobs[0].step_secs;

        let mut fleet = Fleet::new(cluster_config());
        fleet.submit(job("dcgan-0", 4)).unwrap();
        let report = fleet.run();
        let step = report.jobs[0].step_secs;
        assert!(
            step >= knl_step * (1.0 - 1e-12),
            "a cluster step cannot beat its own compute: {step} vs {knl_step}"
        );
        let metrics = report.metrics.as_deref().unwrap_or("");
        for needed in [
            "nnrt_cluster_overlap_fraction",
            "nnrt_cluster_bytes_on_wire_total",
            "nnrt_cluster_link_utilization",
        ] {
            assert!(metrics.contains(needed), "metrics must expose {needed}");
        }
        let comm_events = fleet
            .obs()
            .events_snapshot(Some(Clock::Sim))
            .iter()
            .filter(|e| e.kind == EventKind::ClusterComm)
            .count();
        assert_eq!(
            comm_events, 1,
            "each cluster job must trace one comm summary event"
        );
    }

    #[test]
    fn cluster_curves_never_leak_into_knl_signatures() {
        // A cluster head's measured step times embed synchronization
        // effects; its curves must stay invisible to single-node KNL jobs.
        let mut fleet = Fleet::new(cluster_config());
        fleet.submit(job("dcgan-0", 4)).unwrap();
        fleet.run();
        let store = fleet.store().clone();
        assert!(!store.is_empty());
        let knl_sig = KnlCostModel::knl().signature();
        let keys = OpCatalog::new(&nnrt_models::dcgan(4).graph).keys().to_vec();
        assert!(keys.iter().all(|k| !store.contains(knl_sig, k)));
    }

    #[test]
    fn gpu_stream_strategies_rank_as_the_paper_says() {
        // Serial >= static-2 >= never worse than controlled by more than
        // noise: concurrency must help a branchy model.
        let step_secs = |strategy: GpuStrategy| {
            let mut fleet = Fleet::new(FleetConfig {
                gpu: GpuRuntimeConfig {
                    strategy,
                    ..GpuRuntimeConfig::default()
                },
                ..gpu_config()
            });
            fleet.submit(job("dcgan-0", 4)).unwrap();
            fleet.run().jobs[0].step_secs
        };
        let serial = step_secs(GpuStrategy::Serial);
        let static2 = step_secs(GpuStrategy::Static { streams: 2 });
        assert!(
            static2 < serial,
            "two streams must beat serial: {static2} vs {serial}"
        );
    }
}
