//! The discrete-event multi-node training simulator.
//!
//! Rather than adding compute and communication times
//! (`step = compute + allreduce`), this module simulates both as
//! first-class events over serial resources — one compute lane per node and
//! one interconnect link per injection point — so communication can overlap
//! computation, queue behind other transfers (per-link contention), and be
//! *reordered* by a scheduling policy. It is the same event-loop shape as
//! `nnrt-gpu::runtime::simulate_streams`: a ready list per resource, the
//! clock advancing to the earliest completion, deterministic lowest-index
//! tie-breaking.
//!
//! Three policies are compared, after OOO-Backprop (Oh et al.):
//!
//! * [`ClusterStrategy::NoOverlap`] — the synchronous baseline. Transfers
//!   run *on the compute lane* (a blocking send), and in data parallelism
//!   they start only after the whole backward pass: the event makespan
//!   degenerates to the analytic `compute + allreduce` exactly.
//! * [`ClusterStrategy::Fifo`] — transfers move to the links (overlap
//!   allowed) but every ready list pops in task-creation order, the
//!   dataflow executor's natural dispatch.
//! * [`ClusterStrategy::CriticalPath`] — the out-of-order strategy, "S5"
//!   beside the paper's S1–S4: every task is prioritized by its *bottom
//!   level* over the comm-extended task graph (its duration plus the
//!   longest downstream chain of compute **and** communication), so
//!   gradient ops feeding long comm chains run first and their transfers
//!   start as early as possible.

use crate::interconnect::Interconnect;
use nnrt_graph::{grad_param_bindings, DataflowGraph, OpKind};
use nnrt_manycore::KnlCostModel;
use serde::{Deserialize, Serialize};

/// How the cluster orders compute and communication. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ClusterStrategy {
    /// Blocking sends after the full backward pass — the analytic baseline.
    NoOverlap,
    /// Comm overlaps compute; ready lists pop in task-creation order.
    Fifo,
    /// Critical-path-aware out-of-order backprop (bottom-level priority
    /// over the comm-extended graph).
    #[default]
    CriticalPath,
}

impl ClusterStrategy {
    /// Stable lowercase name (report labels, CLI flag values).
    pub fn name(&self) -> &'static str {
        match self {
            ClusterStrategy::NoOverlap => "no_overlap",
            ClusterStrategy::Fifo => "fifo",
            ClusterStrategy::CriticalPath => "critical_path",
        }
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "no_overlap" => Some(ClusterStrategy::NoOverlap),
            "fifo" => Some(ClusterStrategy::Fifo),
            "critical_path" => Some(ClusterStrategy::CriticalPath),
            _ => None,
        }
    }
}

/// Which parallelism regime the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ClusterMode {
    /// Every node holds a replica; gradients ring-all-reduce.
    #[default]
    DataParallel,
    /// The graph partitions into stages; activations and gradients move
    /// point-to-point between adjacent stages, microbatches pipeline.
    Pipeline,
}

impl ClusterMode {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterMode::DataParallel => "data_parallel",
            ClusterMode::Pipeline => "pipeline",
        }
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "data_parallel" => Some(ClusterMode::DataParallel),
            "pipeline" => Some(ClusterMode::Pipeline),
            _ => None,
        }
    }
}

/// One multi-node training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Node count: replicas (data parallel) or stages (pipeline).
    pub nodes: u32,
    /// The inter-node network.
    pub network: Interconnect,
    /// Compute/comm ordering policy.
    pub strategy: ClusterStrategy,
    /// Parallelism regime.
    pub mode: ClusterMode,
    /// Microbatches per step (pipeline mode only).
    pub microbatches: u32,
    /// Chunks each gradient all-reduce streams through (data parallel);
    /// more chunks = finer link-preemption granularity, same makespan per
    /// tensor ([`Interconnect::ring_allreduce_chunked`]).
    pub chunks: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            network: Interconnect::aries(),
            strategy: ClusterStrategy::CriticalPath,
            mode: ClusterMode::DataParallel,
            microbatches: 4,
            chunks: 4,
        }
    }
}

/// What one simulated multi-node training step did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterStepReport {
    /// Parallelism regime simulated.
    pub mode: ClusterMode,
    /// Ordering policy simulated.
    pub strategy: ClusterStrategy,
    /// Node count.
    pub nodes: u32,
    /// End-to-end simulated step time, seconds.
    pub makespan_secs: f64,
    /// Total compute work scheduled, seconds (sum over lanes).
    pub compute_secs: f64,
    /// Total communication time scheduled, seconds (sum over transfers).
    pub comm_secs: f64,
    /// Communication time that ran concurrently with some compute.
    pub hidden_comm_secs: f64,
    /// `hidden / comm` in `[0, 1]` (1 when there is no communication).
    pub overlap_fraction: f64,
    /// Bytes injected into the network across the whole step.
    pub bytes_on_wire: f64,
    /// Per-link busy time, seconds (empty when sends are blocking).
    pub link_busy_secs: Vec<f64>,
    /// Per-link busy fraction of the makespan.
    pub link_utilization: Vec<f64>,
    /// Transfer events scheduled (all-reduce chunks or p2p messages).
    pub transfers: usize,
}

// ---------------------------------------------------------------------------
// The event engine: serial resources, priority-ordered ready lists.
// ---------------------------------------------------------------------------

/// One schedulable unit: a span of work pinned to a serial resource.
#[derive(Debug, Clone)]
struct Task {
    /// Index of the resource (lane or link) this task occupies.
    resource: usize,
    /// Seconds of occupancy.
    duration: f64,
    /// Task indices that must complete first.
    preds: Vec<usize>,
    /// Whether this is a communication task (for overlap accounting).
    is_comm: bool,
    /// Wire bytes this task moves (comm tasks only).
    bytes: f64,
}

/// A built task graph plus the resource count it schedules over.
#[derive(Debug, Default)]
struct TaskGraph {
    tasks: Vec<Task>,
    resources: usize,
}

impl TaskGraph {
    fn add(
        &mut self,
        resource: usize,
        duration: f64,
        preds: &[usize],
        is_comm: bool,
        bytes: f64,
    ) -> usize {
        self.resources = self.resources.max(resource + 1);
        self.tasks.push(Task {
            resource,
            duration,
            preds: preds.to_vec(),
            is_comm,
            bytes,
        });
        self.tasks.len() - 1
    }

    /// Bottom level of every task: its duration plus the longest chain of
    /// successor durations — compute and comm alike, which is what makes
    /// the priority *comm-extended*.
    fn bottom_levels(&self) -> Vec<f64> {
        let n = self.tasks.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &p in &t.preds {
                succs[p].push(i);
            }
        }
        // Kahn over the reversed DAG, sinks first: a task's level is its
        // duration plus the max level among its successors.
        let mut succ_left: Vec<usize> = succs.iter().map(Vec::len).collect();
        let mut levels = vec![0.0f64; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| succ_left[i] == 0).collect();
        let mut processed = 0usize;
        while let Some(i) = stack.pop() {
            processed += 1;
            levels[i] += self.tasks[i].duration;
            for &p in &self.tasks[i].preds {
                if levels[i] > levels[p] {
                    levels[p] = levels[i];
                }
                succ_left[p] -= 1;
                if succ_left[p] == 0 {
                    stack.push(p);
                }
            }
        }
        assert_eq!(processed, n, "task graph must be acyclic");
        levels
    }
}

/// One executed task span.
#[derive(Debug, Clone, Copy)]
struct Span {
    task: usize,
    start: f64,
    finish: f64,
}

/// List-schedules `tg` over its serial resources. `priority` orders each
/// resource's ready list (higher first, ties to the lower task index);
/// dispatch and completion processing follow fixed index order, so the
/// schedule is a pure function of the task graph.
fn list_schedule(tg: &TaskGraph, priority: &[f64]) -> Vec<Span> {
    let n = tg.tasks.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred_left = vec![0usize; n];
    for (i, t) in tg.tasks.iter().enumerate() {
        pred_left[i] = t.preds.len();
        for &p in &t.preds {
            succs[p].push(i);
        }
    }
    // Ready lists per resource, kept sorted so the best task is at the end.
    let mut ready: Vec<Vec<usize>> = vec![Vec::new(); tg.resources];
    for i in 0..n {
        if pred_left[i] == 0 {
            ready[tg.tasks[i].resource].push(i);
        }
    }
    let better = |a: usize, b: usize| -> bool {
        // Is `a` preferable to `b`?
        (priority[a], std::cmp::Reverse(a)) > (priority[b], std::cmp::Reverse(b))
    };
    for list in &mut ready {
        list.sort_by(|&a, &b| {
            (priority[a], std::cmp::Reverse(a))
                .partial_cmp(&(priority[b], std::cmp::Reverse(b)))
                .expect("finite priorities")
        });
    }
    let mut running: Vec<Option<(usize, f64)>> = vec![None; tg.resources];
    let mut spans = Vec::with_capacity(n);
    let mut done = 0usize;
    let mut clock = 0.0f64;
    while done < n {
        // Dispatch onto every idle resource, lowest resource index first.
        for r in 0..tg.resources {
            if running[r].is_none() {
                if let Some(i) = ready[r].pop() {
                    let finish = clock + tg.tasks[i].duration;
                    running[r] = Some((i, finish));
                    spans.push(Span {
                        task: i,
                        start: clock,
                        finish,
                    });
                }
            }
        }
        // Advance to the earliest completion.
        let next = running
            .iter()
            .flatten()
            .map(|&(_, f)| f)
            .fold(f64::INFINITY, f64::min);
        assert!(
            next.is_finite(),
            "deadlock: {done}/{n} tasks done but nothing is running"
        );
        clock = clock.max(next);
        // Complete everything that finishes now, fixed resource order.
        for slot in running.iter_mut() {
            let Some((i, f)) = *slot else { continue };
            if f <= clock {
                *slot = None;
                done += 1;
                for &s in &succs[i] {
                    pred_left[s] -= 1;
                    if pred_left[s] == 0 {
                        let list = &mut ready[tg.tasks[s].resource];
                        // Insertion keeps the list ascending (best at the
                        // end); lists stay short (a resource's frontier).
                        let mut at = list.len();
                        while at > 0 && better(list[at - 1], s) {
                            at -= 1;
                        }
                        list.insert(at, s);
                    }
                }
            }
        }
    }
    spans
}

/// Sums the portion of each comm span that runs under the union of the
/// compute spans — the overlap the scheduling policy actually achieved.
fn hidden_comm_secs(tg: &TaskGraph, spans: &[Span]) -> f64 {
    let mut compute: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| !tg.tasks[s.task].is_comm && s.finish > s.start)
        .map(|s| (s.start, s.finish))
        .collect();
    compute.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(compute.len());
    for (s, f) in compute {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(f),
            _ => merged.push((s, f)),
        }
    }
    let mut hidden = 0.0;
    for span in spans.iter().filter(|s| tg.tasks[s.task].is_comm) {
        for &(cs, cf) in &merged {
            let lo = span.start.max(cs);
            let hi = span.finish.min(cf);
            if hi > lo {
                hidden += hi - lo;
            }
        }
    }
    hidden
}

/// Renders the schedule into a [`ClusterStepReport`].
fn report(
    tg: &TaskGraph,
    spans: &[Span],
    cfg: &ClusterConfig,
    links: std::ops::Range<usize>,
) -> ClusterStepReport {
    let makespan = spans.iter().map(|s| s.finish).fold(0.0f64, f64::max);
    let compute_secs: f64 = tg
        .tasks
        .iter()
        .filter(|t| !t.is_comm)
        .map(|t| t.duration)
        .sum();
    let comm_secs: f64 = tg
        .tasks
        .iter()
        .filter(|t| t.is_comm)
        .map(|t| t.duration)
        .sum();
    let bytes_on_wire: f64 = tg.tasks.iter().map(|t| t.bytes).sum();
    let transfers = tg.tasks.iter().filter(|t| t.is_comm).count();
    let hidden = hidden_comm_secs(tg, spans);
    let mut link_busy_secs = vec![0.0f64; links.len()];
    for span in spans {
        let r = tg.tasks[span.task].resource;
        if links.contains(&r) {
            link_busy_secs[r - links.start] += span.finish - span.start;
        }
    }
    let link_utilization = link_busy_secs
        .iter()
        .map(|&b| if makespan > 0.0 { b / makespan } else { 0.0 })
        .collect();
    ClusterStepReport {
        mode: cfg.mode,
        strategy: cfg.strategy,
        nodes: cfg.nodes,
        makespan_secs: makespan,
        compute_secs,
        comm_secs,
        hidden_comm_secs: hidden,
        overlap_fraction: if comm_secs > 0.0 {
            (hidden / comm_secs).clamp(0.0, 1.0)
        } else {
            1.0
        },
        bytes_on_wire,
        link_busy_secs,
        link_utilization,
        transfers,
    }
}

// ---------------------------------------------------------------------------
// Per-op durations from the cost model, scaled to a measured step.
// ---------------------------------------------------------------------------

/// Per-op durations whose serial sum equals `step_secs`: each op keeps its
/// cost-model weight, the total matches the per-node runtime's *measured*
/// step (so the S1–S4 scheduling advantage carries into the cluster
/// simulation, and different runtime configurations produce different
/// cluster makespans).
pub fn per_op_secs(graph: &DataflowGraph, step_secs: f64) -> Vec<f64> {
    let cost = KnlCostModel::knl();
    let serial: Vec<f64> = graph
        .iter()
        .map(|(_, op)| cost.serial_time(&nnrt_graph::work_profile(op.kind, &op.shape, &op.aux)))
        .collect();
    let total: f64 = serial.iter().sum();
    assert!(total > 0.0, "a training graph must have positive work");
    let scale = step_secs / total;
    serial.into_iter().map(|t| t * scale).collect()
}

/// Bytes of trainable parameters, estimated from the optimizer-update ops
/// (each updates one weight tensor of its shape) — the gradient volume one
/// data-parallel step all-reduces. Delegates the "is this an optimizer
/// update?" question to [`OpKind::is_param_update`], which the op-catalog
/// test keeps exhaustive.
pub fn param_bytes(graph: &DataflowGraph) -> f64 {
    graph
        .iter()
        .filter(|(_, op)| op.kind.is_param_update())
        .map(|(_, op)| op.shape.bytes_f32() as f64)
        .sum()
}

// ---------------------------------------------------------------------------
// Data parallelism: replicas + streaming all-reduce on the injection link.
// ---------------------------------------------------------------------------

/// Simulates one data-parallel step of `graph` on `cfg.nodes` replicas with
/// per-op compute durations `op_secs` (see [`per_op_secs`]). Replicas are
/// identical, so one node's schedule — a single compute lane plus its
/// injection link — is the step: every replica reaches the same times.
///
/// Each parameter's all-reduce becomes ready the moment its gradient
/// producer completes ([`grad_param_bindings`]) and streams over the link
/// in `cfg.chunks` chunks; the optimizer update waits for the last chunk.
/// Under [`ClusterStrategy::NoOverlap`] the transfers instead run on the
/// compute lane after the whole backward pass — the analytic baseline.
pub fn simulate_data_parallel(
    graph: &DataflowGraph,
    op_secs: &[f64],
    cfg: &ClusterConfig,
) -> ClusterStepReport {
    assert_eq!(graph.len(), op_secs.len());
    assert!(cfg.nodes >= 1);
    const LANE: usize = 0;
    const LINK: usize = 1;
    let blocking = cfg.strategy == ClusterStrategy::NoOverlap;
    let mut tg = TaskGraph {
        resources: 2, // lane + link, even if the link stays idle
        ..TaskGraph::default()
    };

    let bindings = grad_param_bindings(graph);
    let is_update: Vec<bool> = graph
        .iter()
        .map(|(_, op)| op.kind.is_param_update())
        .collect();

    // One compute task per op, same index as the graph node.
    for (id, _) in graph.iter() {
        let preds: Vec<usize> = graph.preds(id).iter().map(|p| p.0 as usize).collect();
        tg.add(LANE, op_secs[id.0 as usize], &preds, false, 0.0);
    }
    if blocking {
        // The synchronous baseline fuses every gradient into one bucket and
        // all-reduces it on the compute lane after the whole backward pass
        // (all non-update compute) — exactly the analytic
        // `compute + ring_allreduce(param_bytes)` model.
        let preds: Vec<usize> = (0..graph.len()).filter(|&i| !is_update[i]).collect();
        let barrier = tg.add(LANE, 0.0, &preds, false, 0.0);
        let total: f64 = bindings.iter().map(|b| b.bytes).sum();
        let sched = cfg.network.ring_allreduce_chunked(total, cfg.nodes, 1);
        let fused = tg.add(LANE, sched.makespan, &[barrier], true, sched.wire_bytes);
        for b in &bindings {
            tg.tasks[b.update.0 as usize].preds.push(fused);
        }
    } else {
        // Per-parameter streaming all-reduce: chunk tasks in series on the
        // injection link, gated on the gradient producer, gating the update.
        // Each tensor's reduce pays its own ring latencies — the price of
        // not fusing, bought back by overlap.
        for b in &bindings {
            let sched = cfg
                .network
                .ring_allreduce_chunked(b.bytes, cfg.nodes, cfg.chunks.max(1));
            let wire_per_chunk = sched.wire_bytes / sched.chunk_done.len() as f64;
            let mut prev_done = 0.0;
            let mut prev_task = b.producer.0 as usize;
            for &done_at in &sched.chunk_done {
                let dur = done_at - prev_done;
                let preds = [prev_task];
                prev_task = tg.add(LINK, dur, &preds, true, wire_per_chunk);
                prev_done = done_at;
            }
            // The update consumes the fully reduced gradient.
            tg.tasks[b.update.0 as usize].preds.push(prev_task);
        }
    }

    let priority = match cfg.strategy {
        ClusterStrategy::CriticalPath => tg.bottom_levels(),
        // FIFO: creation order (graph construction order for compute,
        // gradient-readiness order for transfers).
        _ => (0..tg.tasks.len()).map(|i| -(i as f64)).collect(),
    };
    let spans = list_schedule(&tg, &priority);
    report(&tg, &spans, cfg, LINK..LINK + 1)
}

// ---------------------------------------------------------------------------
// Pipeline parallelism: stages, microbatches, p2p transfers.
// ---------------------------------------------------------------------------

/// Per-microbatch compute classes of one pipeline stage, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageSecs {
    /// Forward ops.
    pub forward: f64,
    /// Backward ops on the input-gradient path (these feed the upstream
    /// stage, so they are critical).
    pub grad_input: f64,
    /// Weight-gradient and optimizer ops (local; deferrable).
    pub grad_weight: f64,
}

impl StageSecs {
    /// Total per-microbatch compute of the stage.
    pub fn total(&self) -> f64 {
        self.forward + self.grad_input + self.grad_weight
    }
}

/// Which pipeline compute class an op kind belongs to.
fn op_class(kind: OpKind) -> u8 {
    use OpKind::*;
    match kind {
        // The input-gradient path: results propagate to the upstream stage.
        Conv2DBackpropInput | ReluGrad | MaxPoolGrad | AvgPoolGrad | FusedBatchNormGrad
        | SigmoidGrad | TanhGrad => 1,
        // Local to the stage: weight gradients and their updates.
        Conv2DBackpropFilter | BiasAddGrad | ApplyAdam | ApplyGradientDescent => 2,
        _ => 0, // forward
    }
}

/// Profiles `graph` as a `stages`-deep layer pipeline: the *forward* ops
/// partition contiguously into `stages` segments of roughly equal forward
/// work (a layer-wise split — cutting the whole training graph in op order
/// would strand every backward op in the tail stage), and each stage's
/// backward work mirrors its forward share: the whole-graph input-gradient
/// and weight-gradient class totals distribute proportionally, since a
/// layer's backward cost tracks its forward cost.
/// All durations scale so the whole-graph serial total equals `step_secs`,
/// divided by `microbatches`. Also returns the activation bytes crossing
/// each cut per microbatch — the output tensor of the last forward op
/// before the cut.
pub fn pipeline_stage_profile(
    graph: &DataflowGraph,
    stages: u32,
    step_secs: f64,
    microbatches: u32,
) -> (Vec<StageSecs>, Vec<f64>) {
    assert!(stages >= 1 && microbatches >= 1);
    let op_secs = per_op_secs(graph, step_secs);
    let m = microbatches as f64;

    // Class totals and the forward ops in graph order.
    let mut total_fwd = 0.0;
    let mut total_gi = 0.0;
    let mut total_gw = 0.0;
    let mut fwd_ops: Vec<(usize, f64)> = Vec::new(); // (graph index, secs)
    for (id, op) in graph.iter() {
        let secs = op_secs[id.0 as usize];
        match op_class(op.kind) {
            1 => total_gi += secs,
            2 => total_gw += secs,
            _ => {
                total_fwd += secs;
                fwd_ops.push((id.0 as usize, secs));
            }
        }
    }
    assert!(total_fwd > 0.0, "a training graph must have forward work");

    // Contiguous split of the forward ops into `stages` segments.
    let per_stage = total_fwd / stages as f64;
    let mut fwd_share = vec![0.0f64; stages as usize];
    let mut cut_after = Vec::new(); // graph index of the last op per cut
    let mut s = 0usize;
    let mut acc = 0.0;
    for (pos, &(idx, secs)) in fwd_ops.iter().enumerate() {
        fwd_share[s] += secs;
        acc += secs;
        let more_stages = s + 1 < stages as usize;
        let must_leave_ops = fwd_ops.len() - pos > stages as usize - s - 1;
        if more_stages && acc >= per_stage * (s + 1) as f64 && must_leave_ops {
            cut_after.push(idx);
            s += 1;
        }
    }

    let out = fwd_share
        .iter()
        .map(|&f| {
            let share = f / total_fwd;
            StageSecs {
                forward: f / m,
                grad_input: total_gi * share / m,
                grad_weight: total_gw * share / m,
            }
        })
        .collect();
    let cuts = cut_after
        .iter()
        .map(|&idx| graph.op(nnrt_graph::NodeId(idx as u32)).shape.bytes_f32() as f64 / m)
        .collect();
    (out, cuts)
}

/// Simulates one pipeline-parallel step: `stages.len()` nodes, one compute
/// lane each, one link per adjacent cut, `cfg.microbatches` microbatches.
///
/// Per microbatch and stage the tasks are Forward, GradInput (feeding the
/// upstream gradient transfer), and GradWeight (local). The baseline
/// policies compute GradWeight *before* GradInput (task-creation order),
/// delaying every upstream send by the weight-gradient work; the
/// critical-path policy runs GradInput first and fills the pipeline
/// bubbles with the deferred weight gradients — the OOO-Backprop schedule.
/// Under [`ClusterStrategy::NoOverlap`] transfers also occupy the sending
/// stage's lane (blocking sends).
pub fn simulate_pipeline(
    stages: &[StageSecs],
    cut_bytes: &[f64],
    cfg: &ClusterConfig,
) -> ClusterStepReport {
    let k = stages.len();
    assert!(k >= 1);
    assert_eq!(cut_bytes.len(), k.saturating_sub(1));
    let m = cfg.microbatches.max(1) as usize;
    let blocking = cfg.strategy == ClusterStrategy::NoOverlap;
    // Resources: lanes 0..k, links k..k+(k-1) (link i joins stage i, i+1).
    let link = |i: usize| k + i;
    let mut tg = TaskGraph {
        resources: k + k.saturating_sub(1),
        ..TaskGraph::default()
    };

    let mut fwd = vec![vec![usize::MAX; m]; k];
    let mut grad_in = vec![vec![usize::MAX; m]; k];
    let mut fwd_xfer = vec![vec![usize::MAX; m]; k]; // from stage s to s+1
    let mut bwd_xfer = vec![vec![usize::MAX; m]; k]; // from stage s to s-1

    // Forward pass: F(s, mb) needs the activation from upstream.
    for mb in 0..m {
        for s in 0..k {
            let mut preds = Vec::new();
            if s > 0 {
                preds.push(fwd_xfer[s - 1][mb]);
            }
            fwd[s][mb] = tg.add(s, stages[s].forward, &preds, false, 0.0);
            if s + 1 < k {
                let bytes = cut_bytes[s];
                let t = cfg.network.transfer(bytes);
                let res = if blocking { s } else { link(s) };
                fwd_xfer[s][mb] = tg.add(res, t, &[fwd[s][mb]], true, bytes);
            }
        }
    }
    // Backward pass, built downstream-first. Task-creation order within a
    // (stage, microbatch): GradWeight then GradInput — the FIFO baseline
    // computes weight gradients before releasing the upstream send.
    for mb in 0..m {
        for s in (0..k).rev() {
            let mut preds = vec![fwd[s][mb]];
            if s + 1 < k {
                preds.push(bwd_xfer[s + 1][mb]);
            }
            let gw = tg.add(s, stages[s].grad_weight, &preds, false, 0.0);
            if s > 0 {
                let gi = tg.add(s, stages[s].grad_input, &preds, false, 0.0);
                grad_in[s][mb] = gi;
                // The gradient tensor crossing cut s-1 mirrors the forward
                // activation bytes of that cut.
                let bytes = cut_bytes[s - 1];
                let t = cfg.network.transfer(bytes);
                let res = if blocking { s } else { link(s - 1) };
                let xfer_preds = if blocking {
                    // Blocking baseline: the send waits for ALL of the
                    // stage's backward work for this microbatch.
                    vec![gi, gw]
                } else {
                    vec![gi]
                };
                bwd_xfer[s][mb] = tg.add(res, t, &xfer_preds, true, bytes);
            } else {
                grad_in[s][mb] = gw;
            }
        }
    }

    let priority = match cfg.strategy {
        ClusterStrategy::CriticalPath => tg.bottom_levels(),
        _ => (0..tg.tasks.len()).map(|i| -(i as f64)).collect(),
    };
    let spans = list_schedule(&tg, &priority);
    report(&tg, &spans, cfg, k..k + k.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_sched::{OpCatalog, Runtime, RuntimeConfig, TfExecutor, TfExecutorConfig};

    fn dcgan_step() -> (DataflowGraph, Vec<f64>) {
        let g = nnrt_models::dcgan(16).graph;
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let step = rt.run_step(&g).total_secs;
        let secs = per_op_secs(&g, step);
        (g, secs)
    }

    #[test]
    fn engine_serializes_one_resource() {
        let mut tg = TaskGraph::default();
        let a = tg.add(0, 1.0, &[], false, 0.0);
        let b = tg.add(0, 2.0, &[], false, 0.0);
        tg.add(0, 3.0, &[a, b], false, 0.0);
        let pr: Vec<f64> = (0..3).map(|i| -(i as f64)).collect();
        let spans = list_schedule(&tg, &pr);
        let finish = spans.iter().map(|s| s.finish).fold(0.0f64, f64::max);
        assert_eq!(finish, 6.0);
    }

    #[test]
    fn engine_overlaps_independent_resources() {
        let mut tg = TaskGraph::default();
        tg.add(0, 2.0, &[], false, 0.0);
        tg.add(1, 2.0, &[], true, 1.0);
        let spans = list_schedule(&tg, &[0.0, 0.0]);
        let finish = spans.iter().map(|s| s.finish).fold(0.0f64, f64::max);
        assert_eq!(finish, 2.0);
        assert_eq!(hidden_comm_secs(&tg, &spans), 2.0);
    }

    #[test]
    fn priority_reorders_a_ready_list() {
        let mut tg = TaskGraph::default();
        let a = tg.add(0, 1.0, &[], false, 0.0);
        let b = tg.add(0, 1.0, &[], false, 0.0);
        // Priority favors b: it must start first.
        let spans = list_schedule(&tg, &[0.0, 1.0]);
        let start_of = |t: usize| spans.iter().find(|s| s.task == t).unwrap().start;
        assert!(start_of(b) < start_of(a));
    }

    #[test]
    fn no_overlap_matches_the_analytic_model() {
        let (g, secs) = dcgan_step();
        let cfg = ClusterConfig {
            strategy: ClusterStrategy::NoOverlap,
            chunks: 1,
            ..ClusterConfig::default()
        };
        let report = simulate_data_parallel(&g, &secs, &cfg);
        let compute: f64 = secs.iter().sum();
        let sync = cfg.network.ring_allreduce(param_bytes(&g), cfg.nodes);
        assert!(
            (report.makespan_secs - (compute + sync)).abs() / (compute + sync) < 1e-9,
            "blocking sends after backward must reduce to compute + allreduce: {} vs {}",
            report.makespan_secs,
            compute + sync
        );
        assert_eq!(report.link_busy_secs, vec![0.0]);
    }

    #[test]
    fn param_bytes_counts_optimizer_targets() {
        let bytes = param_bytes(&nnrt_models::dcgan(16).graph);
        // DCGAN G+D hold a few million parameters.
        assert!(bytes > 1e6 && bytes < 1e9, "got {bytes}");
    }

    #[test]
    fn param_bytes_agrees_with_the_gradient_bindings() {
        // Same predicate, two consumers: the comm volume of the fused
        // all-reduce and the per-parameter bindings the streaming
        // all-reduces schedule from.
        for g in [nnrt_models::dcgan(8).graph, nnrt_models::resnet50(4).graph] {
            let from_bindings: f64 = grad_param_bindings(&g).iter().map(|b| b.bytes).sum();
            assert_eq!(param_bytes(&g), from_bindings);
        }
    }

    #[test]
    fn data_parallel_bytes_are_strategy_invariant() {
        let (g, secs) = dcgan_step();
        let mut reports = Vec::new();
        for strategy in [
            ClusterStrategy::NoOverlap,
            ClusterStrategy::Fifo,
            ClusterStrategy::CriticalPath,
        ] {
            let cfg = ClusterConfig {
                strategy,
                ..ClusterConfig::default()
            };
            reports.push(simulate_data_parallel(&g, &secs, &cfg));
        }
        for r in &reports[1..] {
            // Wire volume is a property of the gradients, not the policy
            // (the fused baseline moves the same bytes in fewer messages).
            let rel = (r.bytes_on_wire - reports[0].bytes_on_wire).abs() / reports[0].bytes_on_wire;
            assert!(
                rel < 1e-12,
                "{} vs {}",
                r.bytes_on_wire,
                reports[0].bytes_on_wire
            );
        }
        assert!(reports[0].bytes_on_wire > 0.0);
        assert!(reports[1].transfers > reports[0].transfers);
    }

    #[test]
    fn critical_path_overlap_beats_no_overlap_data_parallel() {
        // Strong scaling: 8 replicas, per-node batch 1 — the regime where
        // gradient sync is worth hiding (comm ~15% of a step).
        let g = nnrt_models::dcgan(1).graph;
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let secs = per_op_secs(&g, rt.run_step(&g).total_secs);
        let base = simulate_data_parallel(
            &g,
            &secs,
            &ClusterConfig {
                nodes: 8,
                strategy: ClusterStrategy::NoOverlap,
                ..ClusterConfig::default()
            },
        );
        let ooo = simulate_data_parallel(
            &g,
            &secs,
            &ClusterConfig {
                nodes: 8,
                strategy: ClusterStrategy::CriticalPath,
                ..ClusterConfig::default()
            },
        );
        let speedup = base.makespan_secs / ooo.makespan_secs;
        assert!(
            speedup >= 1.10,
            "OOO backprop must hide >=10% (paper: 1.10-1.27x), got {speedup:.3}x \
             (base {:.4}s, ooo {:.4}s, overlap {:.2})",
            base.makespan_secs,
            ooo.makespan_secs,
            ooo.overlap_fraction
        );
        assert!(ooo.overlap_fraction > base.overlap_fraction);
    }

    #[test]
    fn pipeline_critical_path_beats_no_overlap() {
        // A deep pipeline with few in-flight microbatches: bubbles dominate
        // and deferring weight gradients pays the most (paper: 1.41-1.99x).
        let g = nnrt_models::resnet50(4).graph;
        let rt = Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default());
        let secs = per_op_secs(&g, rt.run_step(&g).total_secs);
        let step: f64 = secs.iter().sum();
        let cfg = ClusterConfig {
            nodes: 8,
            mode: ClusterMode::Pipeline,
            microbatches: 2,
            ..ClusterConfig::default()
        };
        let (stages, cuts) = pipeline_stage_profile(&g, cfg.nodes, step, cfg.microbatches);
        let base = simulate_pipeline(
            &stages,
            &cuts,
            &ClusterConfig {
                strategy: ClusterStrategy::NoOverlap,
                ..cfg.clone()
            },
        );
        let ooo = simulate_pipeline(
            &stages,
            &cuts,
            &ClusterConfig {
                strategy: ClusterStrategy::CriticalPath,
                ..cfg.clone()
            },
        );
        let speedup = base.makespan_secs / ooo.makespan_secs;
        assert!(
            speedup >= 1.4,
            "pipeline OOO must reach the paper's 1.41x floor, got {speedup:.3}x \
             (base {:.4}s, ooo {:.4}s)",
            base.makespan_secs,
            ooo.makespan_secs
        );
    }

    /// One Section V data-parallel step: DCGAN at global batch 64 sharded
    /// over `nodes` replicas, one fused all-reduce after the backward pass,
    /// per-node compute scaled to the runtime's step or, with
    /// `recommendation`, to the TensorFlow-guide step.
    fn section_v_step(nodes: u32, recommendation: bool) -> ClusterStepReport {
        let g = nnrt_models::dcgan(64 / nodes as usize).graph;
        let step = if recommendation {
            TfExecutor::new(TfExecutorConfig::recommendation())
                .run_step(&g, &OpCatalog::new(&g), &KnlCostModel::knl())
                .total_secs
        } else {
            Runtime::prepare(&g, KnlCostModel::knl(), RuntimeConfig::default())
                .run_step(&g)
                .total_secs
        };
        let cfg = ClusterConfig {
            nodes,
            strategy: ClusterStrategy::NoOverlap,
            chunks: 1,
            ..ClusterConfig::default()
        };
        simulate_data_parallel(&g, &per_op_secs(&g, step), &cfg)
    }

    #[test]
    fn runtime_advantage_survives_data_parallelism() {
        // The paper's Section V claim ("our runtime system can work on
        // individual KNLs without any change"), checked at 4 nodes.
        let ours = section_v_step(4, false);
        let rec = section_v_step(4, true);
        assert!(
            ours.makespan_secs < rec.makespan_secs,
            "runtime must keep beating the recommendation: {} vs {}",
            ours.makespan_secs,
            rec.makespan_secs
        );
        assert_eq!(
            ours.bytes_on_wire, rec.bytes_on_wire,
            "same gradients, same all-reduce"
        );
    }

    #[test]
    fn strong_scaling_reduces_compute_but_adds_comm() {
        let one = section_v_step(1, false);
        let four = section_v_step(4, false);
        assert_eq!(one.comm_secs, 0.0);
        assert!(four.comm_secs > 0.0);
        assert!(
            four.compute_secs < one.compute_secs,
            "a quarter batch must compute faster"
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let (g, secs) = dcgan_step();
        let cfg = ClusterConfig::default();
        let a = simulate_data_parallel(&g, &secs, &cfg);
        let b = simulate_data_parallel(&g, &secs, &cfg);
        assert_eq!(a, b);
    }
}
