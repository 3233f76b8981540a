//! Shared execution machinery: drives a [`DataflowGraph`] through the
//! discrete-event [`Engine`], charging concurrency-reconfiguration penalties
//! and collecting the per-step report both executors share.

use crate::measure::OpCatalog;
use crate::runtime::StepReport;
use nnrt_graph::{DataflowGraph, NodeId, OpKind, ReadyTracker};
use nnrt_manycore::{
    CostModel, Engine, JobId, KnlCostModel, PlacementRequest, SharingMode, SlotPreference,
};

/// A launch decision made by a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Launch {
    pub node: NodeId,
    pub threads: u32,
    pub mode: SharingMode,
    pub slot: SlotPreference,
}

/// Executor state for one training step.
pub(crate) struct ExecContext<'a> {
    pub graph: &'a DataflowGraph,
    pub catalog: &'a OpCatalog,
    pub cost: &'a KnlCostModel,
    pub engine: Engine,
    pub tracker: ReadyTracker,
    /// Last intra-op parallelism used per kind, indexed by `OpKind as
    /// usize` (Strategy 2's motivation: a change costs `reconfig_cost`).
    last_threads: [Option<u32>; OpKind::ALL.len()],
    /// Per-kind accumulated busy time and instance count, indexed the same
    /// way.
    per_kind: [(f64, usize); OpKind::ALL.len()],
    /// Predicted durations of running jobs (for Strategy 3's throughput
    /// check): `(job, start, predicted duration)`, one entry per running
    /// job.
    predictions: Vec<(JobId, f64, f64)>,
    /// Per-node timing records (always collected; they also feed the
    /// interference-feedback adaptation of §III-D's discussion).
    timings: Vec<NodeTiming>,
}

/// When one operation actually ran, and what the policy expected.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeTiming {
    /// Dataflow node id.
    pub node: u32,
    /// Launch time, seconds.
    pub start: f64,
    /// Completion time, seconds.
    pub finish: f64,
    /// The policy's predicted duration at launch.
    pub predicted: f64,
    /// The cost model's solo duration (no co-run interference).
    pub nominal: f64,
}

impl NodeTiming {
    /// Actual wall-clock duration.
    pub fn actual(&self) -> f64 {
        self.finish - self.start
    }

    /// Whether this op overlapped `other` in time.
    pub fn overlaps(&self, other: &NodeTiming) -> bool {
        self.start < other.finish && other.start < self.finish
    }
}

impl<'a> ExecContext<'a> {
    pub fn new(
        graph: &'a DataflowGraph,
        catalog: &'a OpCatalog,
        cost: &'a KnlCostModel,
        record_trace: bool,
    ) -> Self {
        let mut engine = Engine::new(cost.topology().clone(), cost.params().clone());
        engine.record_trace(record_trace);
        ExecContext {
            graph,
            catalog,
            cost,
            engine,
            tracker: ReadyTracker::new(graph),
            last_threads: [None; OpKind::ALL.len()],
            per_kind: [(0.0, 0); OpKind::ALL.len()],
            predictions: Vec::new(),
            timings: Vec::with_capacity(graph.len()),
        }
    }

    /// Launches `launch`, charging a reconfiguration penalty when a tunable
    /// kind changes its thread count between consecutive instances.
    /// `predicted` is the policy's predicted duration (for throughput checks);
    /// pass the true nominal when the policy has no model. `solo` is the
    /// cost model's solo time of the launch, which the caller has at hand
    /// (policies derive it once per operation and configuration).
    pub fn launch(&mut self, launch: Launch, predicted: f64, solo: f64) {
        let op = self.graph.op(launch.node);
        let profile = *self.catalog.profile(launch.node);
        debug_assert_eq!(
            solo.to_bits(),
            self.cost
                .solo_time(&profile, launch.threads, launch.mode)
                .to_bits(),
            "solo time of {launch:?}"
        );
        let mut nominal = solo;
        if op.kind.is_tunable() {
            let last = &mut self.last_threads[op.kind as usize];
            match last.replace(launch.threads) {
                Some(prev) if prev != launch.threads => {
                    nominal += self.cost.params().reconfig_cost;
                }
                _ => {}
            }
        }
        let removed = self.tracker.take(launch.node);
        debug_assert!(removed, "launched node {:?} was not ready", launch.node);
        let request = PlacementRequest {
            threads: launch.threads,
            mode: launch.mode,
            slot: launch.slot,
        };
        let job = self
            .engine
            .launch(profile, nominal, &request, launch.node.0 as u64)
            .expect("engine accepts a validated launch");
        self.predictions
            .push((job, self.engine.now(), predicted.max(nominal)));
    }

    /// Advances to the next completion; returns `false` when nothing ran.
    pub fn advance(&mut self) -> bool {
        let Some(outcome) = self.engine.advance_next() else {
            return false;
        };
        let node = NodeId(outcome.tag as u32);
        let kind = self.graph.op(node).kind;
        let e = &mut self.per_kind[kind as usize];
        e.0 += outcome.finish - outcome.start;
        e.1 += 1;
        let at = self
            .predictions
            .iter()
            .position(|&(job, _, _)| job == outcome.job)
            .expect("every running job has a prediction");
        let (_, _, predicted) = self.predictions.swap_remove(at);
        self.timings.push(NodeTiming {
            node: outcome.tag as u32,
            start: outcome.start,
            finish: outcome.finish,
            predicted,
            nominal: outcome.nominal,
        });
        self.tracker.complete(self.graph, node);
        true
    }

    /// Profile of the running job occupying the most physical cores, if any.
    pub fn widest_running_profile(&self) -> Option<nnrt_manycore::WorkProfile> {
        self.engine.widest_running().map(|(_, _, profile)| profile)
    }

    /// Longest predicted remaining time among running jobs, from the
    /// *predictions* the policy supplied (not ground truth) — this is what
    /// the paper's Strategy 3 compares candidates against.
    pub fn predicted_max_remaining(&self) -> Option<f64> {
        let now = self.engine.now();
        self.predictions
            .iter()
            .map(|&(_, start, dur)| (start + dur - now).max(0.0))
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Finalizes the step into a report.
    pub fn finish(mut self) -> StepReport {
        let total_secs = self.engine.now();
        let mut per_kind: Vec<(OpKind, f64, usize)> = OpKind::ALL
            .into_iter()
            .map(|k| (k, self.per_kind[k as usize]))
            .filter(|&(_, (_, n))| n > 0)
            .map(|(k, (t, n))| (k, t, n))
            .collect();
        // Busy time descending; exact ties by kind.
        per_kind.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        StepReport {
            total_secs,
            per_kind,
            trace: self.engine.take_trace(),
            timings: self.timings,
            nodes_executed: self.tracker.num_completed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnrt_graph::{DataflowGraph, OpAux, OpInstance, OpKind, Shape};

    /// Strategy 2's raison d'être, observed at the executor level: changing
    /// a tunable kind's thread count between consecutive instances charges
    /// the reconfiguration penalty.
    #[test]
    fn thread_count_changes_charge_reconfiguration() {
        let mut g = DataflowGraph::new();
        let op = OpInstance::with_aux(
            OpKind::Conv2D,
            Shape::nhwc(16, 8, 8, 128),
            OpAux::conv(3, 1, 128),
        );
        let a = g.add(op.clone(), &[]);
        let b = g.add(op.clone(), &[a]);
        let c = g.add(op, &[b]);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();

        let run = |threads: [u32; 3]| -> f64 {
            let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
            for (node, t) in [a, b, c].into_iter().zip(threads) {
                // Serial execution: wait for the previous op.
                while ctx.engine.num_running() > 0 {
                    ctx.advance();
                }
                let launch = Launch {
                    node,
                    threads: t,
                    mode: SharingMode::Compact,
                    slot: SlotPreference::Primary,
                };
                let nominal = cost.solo_time(catalog.profile(node), t, SharingMode::Compact);
                ctx.launch(launch, nominal, nominal);
            }
            while ctx.advance() {}
            ctx.finish().total_secs
        };

        let stable = run([20, 20, 20]);
        let thrash = run([20, 24, 20]);
        let reconfig = cost.params().reconfig_cost;
        // Two thread-count changes => two penalties, plus the small true
        // time difference between 20 and 24 threads.
        assert!(
            thrash > stable + 1.5 * reconfig,
            "thrash {thrash} vs stable {stable} (penalty {reconfig})"
        );
    }

    #[test]
    fn eigen_kinds_never_pay_reconfiguration() {
        let mut g = DataflowGraph::new();
        let a = g.add(OpInstance::new(OpKind::Tile, Shape::vec1(1_000_000)), &[]);
        let b = g.add(OpInstance::new(OpKind::Tile, Shape::vec1(1_000_000)), &[a]);
        let catalog = OpCatalog::new(&g);
        let cost = KnlCostModel::knl();
        let mut ctx = ExecContext::new(&g, &catalog, &cost, false);
        let mut expected = 0.0;
        for (node, t) in [a, b].into_iter().zip([16u32, 48]) {
            while ctx.engine.num_running() > 0 {
                ctx.advance();
            }
            let nominal = cost.solo_time(catalog.profile(node), t, SharingMode::Compact);
            expected += nominal;
            ctx.launch(
                Launch {
                    node,
                    threads: t,
                    mode: SharingMode::Compact,
                    slot: SlotPreference::Primary,
                },
                nominal,
                nominal,
            );
        }
        while ctx.advance() {}
        let total = ctx.finish().total_secs;
        assert!((total - expected).abs() < 1e-12, "no penalty for Eigen ops");
    }
}
